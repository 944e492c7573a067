"""BUG: the row's ``page`` names the wrong payload element — it
declares ``payload[0]`` as the op's page while the handler keys the
page table by ``payload[1]``.  A scheduler trusting the row would
commute deliveries that actually race on the same entry."""

OP_MOVE = "corpus.move"


class MoveManager:
    OPS = (Op(OP_MOVE, "_serve_move", page=(0,)),)

    def __init__(self, remote, table):
        self.remote = remote
        self.table = table

    def move(self, src, dst):
        value = yield from self.remote.request(1, OP_MOVE, (src, dst))
        return value

    def _serve_move(self, origin, req):
        entry = self.table.entry(req[1])
        return Reply(entry.owner)
        yield
