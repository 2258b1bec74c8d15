"""A store metrics scrape never waits on the store lock.

The socket's ``{"op": "metrics"}`` and the ``serve --metrics-out``
sampler scrape on the event loop, and a compaction holds the store lock
for its whole run; a scrape that took the lock would stall the loop for
as long.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.store import SortedStore


def test_expose_returns_while_another_thread_holds_the_store_lock(tmp_path):
    store = SortedStore(tmp_path, engine="cpu-std")
    store.insert(np.arange(64, dtype=np.float32))
    registry = MetricsRegistry()
    store.bind_metrics(registry)
    held, release = threading.Event(), threading.Event()

    def hold():
        with store._lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    holder.start()
    assert held.wait(10)
    exposed = []
    scraper = threading.Thread(target=lambda: exposed.append(registry.expose()))
    try:
        scraper.start()
        scraper.join(timeout=2)
        assert not scraper.is_alive(), "expose() waited on the store lock"
    finally:
        release.set()
        holder.join()
        scraper.join()
    assert "repro_store_live_pairs 64" in exposed[0]
