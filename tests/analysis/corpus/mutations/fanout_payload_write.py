"""BUG: the handler mutates the delivered payload.  A multicast hands
every target the *same* payload object, so an in-place append is a
covert cross-node channel: targets observe each other's deliveries and
the final contents depend on interleaving.  The op can never be
page-attributed, and its row's ``fanout=True`` claim is unprovable
too."""

OP_UPDATE = "corpus.update"


class SigningUpdater:
    OPS = (Op(OP_UPDATE, "_serve_update", page=(0,), fanout=True),)

    def __init__(self, remote, table, node_id):
        self.remote = remote
        self.table = table
        self.node_id = node_id

    def update(self, targets, page):
        yield from self.remote.multicast(targets, OP_UPDATE, (page, []))

    def _serve_update(self, origin, req):
        entry = self.table.entry(req[0])
        req.append(self.node_id)
        return Reply(True)
        yield
