OP_PURGE = "corpus.purge"


class PurgingManager:
    OPS = (Op(OP_PURGE, "_serve_purge"),)

    def __init__(self, remote, table):
        self.remote = remote
        self.table = table

    def purge(self, page, holders):
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            # All-replies collective while holding the entry lock...
            yield from self.remote.multicast(holders, OP_PURGE, page)
        finally:
            entry.lock.release()

    def _serve_purge(self, origin, page):
        entry = self.table.entry(page)
        # ...but the server blocking-acquires: a target whose lock is
        # held by its own purge never answers.
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            entry.access = 0
            return Reply(True)
        finally:
            entry.lock.release()
