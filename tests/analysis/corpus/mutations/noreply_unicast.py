OP_ASK = "corpus.ask"


class MuteManager:
    OPS = (Op(OP_ASK, "_serve_ask"),)

    def __init__(self, remote):
        self.remote = remote

    def ask(self, page):
        return (yield from self.remote.request(1, OP_ASK, page))

    def _serve_ask(self, origin, page):
        if page > 0:
            return Reply(page)
        # BUG: silence on a point-to-point request.
        return NO_REPLY
        yield
