"""Accumulation-first span close: a server span is closed with
``span_end`` on every exit path, so a sampled-out (negative-id) span
still feeds the profiler and the timeline — the lock/span rule accepts
the ``finally`` close."""


def serve(self, msg):
    obs = self.obs
    span = obs.span_begin("serve", parent=msg.span, node=self.node_id)
    try:
        yield from self.handle(msg.origin, msg.payload)
    finally:
        obs.span_end(span)
