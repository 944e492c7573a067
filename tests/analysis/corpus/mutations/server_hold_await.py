OP_GET = "corpus.get"
OP_CHASE = "corpus.chase"


class ChasingManager:
    OPS = (Op(OP_GET, "_serve_get"), Op(OP_CHASE, "_serve_chase"))

    def __init__(self, remote, table):
        self.remote = remote
        self.table = table

    def fetch(self, page):
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            return (yield from self.remote.request(1, OP_GET, page))
        finally:
            entry.lock.release()

    def _serve_get(self, origin, page):
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            # BUG: remote wait while holding the entry lock.
            fresh = yield from self.remote.request(2, OP_CHASE, page)
            return Reply(fresh)
        finally:
            entry.lock.release()

    def _serve_chase(self, origin, page):
        return Reply(page)
        yield
