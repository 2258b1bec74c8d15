"""Stateful property test: SortedStore against an in-memory lexsort model.

Hypothesis interleaves inserts, range and top-k queries, compactions,
reopens and a crash injected at the compaction commit hook (the hook the
crash-safety tests use).  The model is every pair ever inserted; each
answer must equal the model's ``np.lexsort`` order, byte for byte, however
the pairs are spread over runs, cached or on disk.  Range bounds are
drawn one float64 ulp off stored keys, where rounding them to float32
would land on a stored key, so a cached search with rounded bounds fails.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.store import MANIFEST_NAME, SortedStore
from repro.stream.stream import VALUE_DTYPE

_F32 = np.finfo(np.float32)
keys_st = st.one_of(
    st.sampled_from(
        [0.0, -0.0, np.inf, -np.inf, 0.5, -0.5, float(_F32.max),
         float(_F32.smallest_subnormal)]
    ),
    st.floats(width=32, allow_nan=False),
)


class _Crash(OSError):
    pass


class StoreModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="store-model-"))
        self.store = self._open()
        self.model = np.empty(0, dtype=VALUE_DTYPE)

    def _open(self) -> SortedStore:
        # A small cache: some runs answer from memory, others from disk.
        return SortedStore(self.dir, engine="cpu-std", cache_pairs=48)

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _ordered(self) -> np.ndarray:
        return self.model[np.lexsort((self.model["id"], self.model["key"]))]

    @rule(
        keys=st.lists(keys_st, max_size=40),
        engine=st.sampled_from(["cpu-std", "abisort"]),
    )
    def insert(self, keys, engine):
        keys = np.asarray(keys, dtype=np.float32)
        self.store.insert(keys, engine=engine)
        batch = np.empty(keys.shape[0], dtype=VALUE_DTYPE)
        batch["key"] = keys
        batch["id"] = np.arange(
            self.model.shape[0], self.model.shape[0] + keys.shape[0]
        )
        self.model = np.concatenate([self.model, batch])

    @rule(data=st.data())
    def range(self, data):
        stored = self.model["key"].astype(np.float64)
        bound = st.floats(allow_nan=False)
        if stored.shape[0]:
            near = st.tuples(
                st.sampled_from(stored.tolist()),
                st.sampled_from([-np.inf, 0.0, np.inf]),
            ).map(lambda kv: float(np.nextafter(kv[0], kv[1])))
            bound = st.one_of(near, bound)
        lo, hi = sorted((data.draw(bound), data.draw(bound)))
        ordered = self._ordered()
        wide = ordered["key"].astype(np.float64)
        want = ordered[(wide >= lo) & (wide <= hi)]
        assert self.store.range(lo, hi).tobytes() == want.tobytes()

    @rule(k=st.integers(0, 60))
    def top_k(self, k):
        assert self.store.top_k(k).tobytes() == self._ordered()[:k].tobytes()

    @rule(fan_in=st.integers(2, 4), devices=st.integers(1, 3))
    def compact(self, fan_in, devices):
        self.store.compact(fan_in=fan_in, devices=devices)

    @rule()
    def reopen(self):
        self.store = self._open()

    @precondition(lambda self: self.store.run_count >= 2)
    @rule(fan_in=st.integers(2, 4))
    def crash_at_commit(self, fan_in):
        before = (self.dir / MANIFEST_NAME).read_bytes()

        def crash(produced, consumed):
            raise _Crash("simulated power loss before the manifest commit")

        self.store._commit_compaction = crash
        try:
            self.store.compact(fan_in=fan_in, devices=1)
        except _Crash:
            pass
        else:
            raise AssertionError("compaction never reached its commit hook")
        assert (self.dir / MANIFEST_NAME).read_bytes() == before
        # The process died: the next open sweeps the orphaned outputs.
        self.store = self._open()
        live = {run.name for run in self.store.manifest.runs}
        assert {path.name for path in self.dir.glob("*.run")} == live


StoreModel.TestCase.settings = settings(stateful_step_count=25)
TestStoreModel = StoreModel.TestCase
