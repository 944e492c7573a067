"""BUG: the handler keys the page table by its payload, but the op's
row declares no ``page`` — the scheduler cannot attribute its
deliveries to a page, so the POR must treat them as conflicting with
everything."""

OP_PROBE = "corpus.probe"


class ProbeManager:
    OPS = (Op(OP_PROBE, "_serve_probe"),)

    def __init__(self, remote, table):
        self.remote = remote
        self.table = table

    def probe(self, page):
        value = yield from self.remote.request(1, OP_PROBE, page)
        return value

    def _serve_probe(self, origin, page):
        entry = self.table.entry(page)
        return Reply(entry.owner)
        yield
