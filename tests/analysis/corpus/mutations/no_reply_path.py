OP_PING = "corpus.ping"


class SilentManager:
    OPS = (Op(OP_PING, "_serve_ping"),)

    def __init__(self, remote):
        self.remote = remote

    def ping(self, page):
        return (yield from self.remote.request(1, OP_PING, page))

    def _serve_ping(self, origin, page):
        if page > 0:
            return Reply(page)
        # BUG: falls off the end — the waiting client receives None.
        yield from self.touch(page)

    def touch(self, page):
        yield page
