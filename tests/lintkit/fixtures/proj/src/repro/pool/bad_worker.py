"""Fixture: fork-hostile worker state (RPL008)."""

import threading
from multiprocessing import Process

_LOCK = threading.Lock()


def _worker_main(init_blob: bytes, stop: threading.Event) -> None:
    with _LOCK:
        pass


def start_pool(blob):
    worker = Process(target=_worker_main, args=(blob, None))
    worker.start()
