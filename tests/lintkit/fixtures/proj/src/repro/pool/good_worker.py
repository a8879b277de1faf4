"""Fixture: plain-data worker args and a child-local lock (clean)."""

import threading
from multiprocessing import Process

_LOCK = threading.Lock()


def _worker_main(init_blob: bytes, parent_pid: int) -> None:
    lock = threading.Lock()
    with lock:
        pass


def start_pool(blob):
    worker = Process(target=_worker_main, args=(blob, 1))
    worker.start()


def _audit_locked(path):
    """Decoy: touches the module lock but is never fork-reachable."""
    with _LOCK:
        return path
