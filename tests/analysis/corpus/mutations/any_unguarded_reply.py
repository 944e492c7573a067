"""BUG: the op is awaited first-reply-wins (scheme ``any``) but the
handler replies unconditionally — every broadcast target answers,
so which reply wins depends on delivery order.  The real managers guard
the reply with ``entry.is_owner``; single ownership then makes at most
one target answer."""

OP_LOCATE = "corpus.locate"


class ChattyLocator:
    OPS = (Op(OP_LOCATE, "_serve_locate", page=(), fanout=True),)

    def __init__(self, remote, table, node_id):
        self.remote = remote
        self.table = table
        self.node_id = node_id

    def locate(self, page):
        owner = yield from self.remote.broadcast(OP_LOCATE, page, scheme="any")
        return owner

    def _serve_locate(self, origin, page):
        entry = self.table.entry(page)
        return Reply(self.node_id)
        yield
