OP_MOVE = "corpus.move"


class MovingManager:
    OPS = (Op(OP_MOVE, "_serve_move"),)

    def __init__(self, remote, table):
        self.remote = remote
        self.table = table

    def transfer(self, src, dst):
        if not src.lock.try_acquire():
            yield from src.lock.acquire()
        try:
            if not dst.lock.try_acquire():
                yield from dst.lock.acquire()
            try:
                # BUG: remote wait with two entry locks held.
                yield from self.remote.request(1, OP_MOVE, (src.page, dst.page))
            finally:
                dst.lock.release()
        finally:
            src.lock.release()

    def _serve_move(self, origin, pages):
        return Reply(pages)
        yield
