"""BUG: the row claims the op fan-out-safe (``fanout=True``) but its
handler appends to an unkeyed per-node list.  The fan-out claim
requires each delivery to write only the target's own per-page state; a
shared append makes the final list order depend on delivery
interleaving."""

OP_INV = "corpus.inv"


class LoggingInvalidator:
    OPS = (Op(OP_INV, "_serve_inv", page=(), fanout=True),)

    def __init__(self, remote, table, memory):
        self.remote = remote
        self.table = table
        self.memory = memory
        self.order = []

    def invalidate(self, targets, page):
        yield from self.remote.multicast(targets, OP_INV, page)

    def _serve_inv(self, origin, page):
        self.memory.drop(page)
        self.order.append(page)
        return Reply(True)
        yield
