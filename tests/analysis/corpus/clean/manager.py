"""A well-formed manager: held-await on a unicast op whose server is
transient (blocking acquire, no remote wait while holding) — the
op->entry edge is discharged by the ownership-order axiom."""

OP_ECHO = "corpus.echo"


class EchoManager:
    OPS = (Op(OP_ECHO, "_serve_echo", page=()),)

    def __init__(self, remote, table):
        self.remote = remote
        self.table = table

    def ping(self, page):
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            value = yield from self.remote.request(1, OP_ECHO, page)
            return value
        finally:
            entry.lock.release()

    def _serve_echo(self, origin, page):
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            return Reply(page)
        finally:
            entry.lock.release()
