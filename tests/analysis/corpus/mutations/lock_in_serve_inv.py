"""BUG: the row declares the handler lock-free (a holder that is itself
write-faulting keeps its entry lock while its invalidation is pending),
but the handler takes the entry lock.  The rule follows the row, not the
handler's name."""

OP_DROP = "corpus.drop"


class LockingDropper:
    OPS = (Op(OP_DROP, "_on_drop", page=(0,), lock_free=True),)

    def drop(self, holders, page):
        yield from self.remote.multicast(holders, OP_DROP, (page, 0))

    def _on_drop(self, origin, payload):
        entry = self.table.entry(payload[0])
        yield from entry.lock.acquire()
        try:
            entry.access = 0
            return Reply(True)
        finally:
            entry.lock.release()
