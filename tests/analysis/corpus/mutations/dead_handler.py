OP_USED = "corpus.used"
OP_DEAD = "corpus.dead"


class StaleManager:
    OPS = (
        Op(OP_USED, "_serve_used"),
        # BUG: served, never sent by anyone.
        Op(OP_DEAD, "_serve_dead"),
    )

    def __init__(self, remote):
        self.remote = remote

    def use(self, page):
        yield from self.remote.request(1, OP_USED, page)

    def _serve_used(self, origin, page):
        return Reply(page)
        yield

    def _serve_dead(self, origin, page):
        return Reply(page)
        yield
