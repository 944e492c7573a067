OP_OK = "corpus.ok"
OP_LOST = "corpus.lost"


class LossyManager:
    OPS = (Op(OP_OK, "_serve_ok"),)

    def __init__(self, remote):
        self.remote = remote

    def poke(self, page):
        yield from self.remote.request(1, OP_OK, page)
        # BUG: no row serves OP_LOST.
        yield from self.remote.request(1, OP_LOST, page)

    def _serve_ok(self, origin, page):
        return Reply(page)
        yield
