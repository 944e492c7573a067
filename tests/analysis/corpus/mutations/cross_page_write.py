"""BUG: the handler reaches beyond its declared page — it reads the
entry of ``page + 1``, a key that is not a payload projection.  No
``page`` declaration can attribute that access, so the op must be
demoted to conflicts-with-everything."""

OP_NEXT = "corpus.next"


class NeighbourManager:
    OPS = (Op(OP_NEXT, "_serve_next", page=()),)

    def __init__(self, remote, table):
        self.remote = remote
        self.table = table

    def next_owner(self, page):
        value = yield from self.remote.request(1, OP_NEXT, page)
        return value

    def _serve_next(self, origin, page):
        entry = self.table.entry(page)
        neighbour = self.table.entry(page + 1)
        return Reply((entry.owner, neighbour.owner))
        yield
