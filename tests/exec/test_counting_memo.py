"""The process-wide counting-run memo of the stream tier.

A stream program's op log, counters and modeled cost are pure functions
of (program, padded length, GPU model, mapping), so
:mod:`repro.exec.stream_tier` drives each program once per length per
process and replays it for every later request.  These tests pin what
that may and may not change:

* requests through ``repro.sort`` really hit the memo (one drive for two
  requests, shared records), and every result -- the first and the
  replayed -- equals a ``trace=True`` reference run;
* a memo entry is never served to another program, GPU model or mapping;
* out-of-contract inputs (repeated ids, NaN keys) are rejected at the
  request on memo hits too, and neither use nor write the memo.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.baselines.bitonic_network import gpusort_stream
from repro.core.api import ABiSortConfig
from repro.errors import SortInputError
from repro.exec import stream_tier
from repro.stream.gpu_model import GEFORCE_6800_ULTRA, GEFORCE_7800_GTX
from repro.stream.mapping2d import RowWiseMapping, ZOrderMapping
from repro.stream.stream import VALUE_DTYPE
from repro.workloads.rng import seeded_rng


class _Drives:
    count = 0


@pytest.fixture
def drives(monkeypatch) -> _Drives:
    """An empty memo, and a count of the counting drives made against it.

    Every drive builds exactly one counting machine through
    ``_counting_machine``; memo hits build theirs from the entry instead.
    """
    monkeypatch.setattr(stream_tier, "_RUNS", {})
    spy = _Drives()
    real = stream_tier._counting_machine

    def counting_machine(distinct_io):
        spy.count += 1
        return real(distinct_io)

    monkeypatch.setattr(stream_tier, "_counting_machine", counting_machine)
    return spy


def _values(rng, n: int) -> np.ndarray:
    out = np.empty(n, dtype=VALUE_DTYPE)
    out["key"] = (rng.random(n, dtype=np.float32) * 16).round() / 16
    out["id"] = rng.permutation(n).astype(np.uint32)
    return out


def _sort(engine: str, values: np.ndarray, *, trace: bool = False, **kw):
    request = repro.SortRequest(values=values.copy(), trace=trace, **kw)
    return repro.sort(request, engine=engine)


def _telemetry(result) -> dict:
    d = dataclasses.asdict(result.telemetry)
    d.pop("wall_time_s")  # measured, the one field allowed to differ
    return d


def _assert_matches_reference(result, ref) -> None:
    assert result.values.tobytes() == ref.values.tobytes()
    assert _telemetry(result) == _telemetry(ref)
    assert (result.machine is None) == (ref.machine is None)
    if ref.machine is not None:
        assert result.machine.ops == ref.machine.ops
        assert result.machine.counters() == ref.machine.counters()
        assert result.machine.peak_alloc_bytes == ref.machine.peak_alloc_bytes
    if ref.cluster is not None:
        assert result.cluster.shard_sort_ms == ref.cluster.shard_sort_ms
        assert len(result.cluster.machines) == len(ref.cluster.machines)
        for machine, ref_machine in zip(result.cluster.machines, ref.cluster.machines):
            assert machine.ops == ref_machine.ops
            assert machine.counters() == ref_machine.counters()


#: (engine, n): lengths whose shards/chunks all pad to one length, so one
#: request needs exactly one drive.
MEMO_FACES = [
    ("abisort", 1500),
    ("sharded-abisort", 4096),
    ("bitonic-network", 1024),
    ("external", 8192),
]


class TestMemoHit:
    @pytest.mark.parametrize("engine, n", MEMO_FACES)
    def test_two_requests_drive_once_and_match_reference(self, drives, engine, n):
        rng = seeded_rng(n)
        inputs = [_values(rng, n) for _ in range(2)]
        results = [_sort(engine, values) for values in inputs]
        assert drives.count == 1
        for values, result in zip(inputs, results):
            _assert_matches_reference(result, _sort(engine, values, trace=True))

    def test_replayed_records_are_shared_and_frozen(self, drives):
        rng = seeded_rng(1)
        first, second = (_sort("abisort", _values(rng, 256)) for _ in range(2))
        assert drives.count == 1
        assert all(a is b for a, b in zip(first.machine.ops, second.machine.ops))
        with pytest.raises(dataclasses.FrozenInstanceError):
            second.machine.ops[0].tag = "corrupted"

    def test_reference_tier_never_touches_the_memo(self, drives):
        _sort("abisort", _values(seeded_rng(2), 256), trace=True)
        assert drives.count == 0
        assert stream_tier._RUNS == {}


#: Pairs of request variants at one length; the first primes the memo.
VARIANTS = {
    "gpu": (("abisort", {"gpu": GEFORCE_6800_ULTRA}),
            ("abisort", {"gpu": GEFORCE_7800_GTX})),
    "network-gpu": (("bitonic-network", {"gpu": GEFORCE_6800_ULTRA}),
                    ("bitonic-network", {"gpu": GEFORCE_7800_GTX})),
    "mapping-class": (("abisort", {"mapping": ZOrderMapping()}),
                      ("abisort", {"mapping": RowWiseMapping(32)})),
    "mapping-params": (("abisort", {"mapping": RowWiseMapping(32)}),
                       ("abisort", {"mapping": RowWiseMapping(1024)})),
    "schedule": (("abisort", {}), ("abisort-sequential", {})),
    "semantics": (("abisort-sequential", {}), ("abisort-brook", {})),
    "brook": (("abisort-brook", {}), ("abisort", {})),
    "oem": (("bitonic-network", {}), ("odd-even-merge", {})),
    "periodic": (("odd-even-merge", {}), ("periodic-balanced", {})),
    "bitonic": (("periodic-balanced", {}), ("bitonic-network", {})),
}


class TestMemoKey:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_primed_variant_never_serves_another(self, drives, variant):
        rng = seeded_rng(3)
        values = _values(rng, 2048)
        seen = []
        for engine, kw in VARIANTS[variant]:
            got = _sort(engine, values, **kw)
            want = _sort(engine, values, trace=True, **kw)
            assert got.telemetry.modeled_gpu_ms == want.telemetry.modeled_gpu_ms
            assert got.machine.ops == want.machine.ops
            seen.append((got.telemetry.modeled_gpu_ms, got.machine.ops))
        assert seen[0] != seen[1]  # the pair is distinguishable

    def test_equal_models_share_costs_by_value(self, drives):
        """A GPU model rebuilt field for field is the same cost-table key."""
        values = _values(seeded_rng(4), 512)
        rebuilt = dataclasses.replace(
            GEFORCE_6800_ULTRA, kernel_cycles=dict(GEFORCE_6800_ULTRA.kernel_cycles)
        )
        a = _sort("abisort", values, gpu=GEFORCE_6800_ULTRA).telemetry
        b = _sort("abisort", values, gpu=rebuilt).telemetry
        assert a.modeled_gpu_ms == b.modeled_gpu_ms
        (run,) = stream_tier._RUNS.values()
        assert len(run.costs) == 1

    def test_eight_threads_priming_at_once(self, drives):
        values = _values(seeded_rng(5), 4096)
        with ThreadPoolExecutor(8) as pool:
            results = list(
                pool.map(lambda _: _sort("abisort", values), range(8))
            )
        ref = _sort("abisort", values, trace=True)
        for result in results:
            _assert_matches_reference(result, ref)
        assert len(stream_tier._RUNS) == 1


class TestInputChecksOnMemoHits:
    @pytest.mark.parametrize(
        "engine, n", [("abisort", 1024), ("sharded-abisort", 4096), ("external", 8192)]
    )
    def test_duplicate_ids_still_raise(self, drives, engine, n):
        good = _values(seeded_rng(6), n)
        _sort(engine, good)  # primes the memo for every chunk length
        bad = good.copy()
        bad["id"][1] = bad["id"][0]
        bad["key"][1] = bad["key"][0] + 1  # distinct composites: order is strict
        with pytest.raises(SortInputError):
            _sort(engine, bad)
        assert drives.count == 1  # raised on the memo hit, without a new drive

    def test_wrong_dtype_still_raises(self, drives):
        config = ABiSortConfig()
        stream_tier.counting_sort_run(config, _values(seeded_rng(9), 64))
        with pytest.raises(SortInputError):
            stream_tier.counting_sort_run(config, np.arange(64, dtype=np.float32))
        stream_tier.counting_network_run(gpusort_stream, _values(seeded_rng(9), 64))
        with pytest.raises(SortInputError):
            stream_tier.counting_network_run(
                gpusort_stream, np.arange(64, dtype=np.float32)
            )

    @pytest.mark.parametrize("engine, n", MEMO_FACES)
    @pytest.mark.parametrize("trace", [False, True])
    def test_nan_keys_rejected_and_write_no_entry(self, drives, engine, n, trace):
        rng = seeded_rng(7)
        values = _values(rng, n)
        values["key"][rng.integers(0, n, size=5)] = np.nan
        with pytest.raises(SortInputError, match="NaN"):
            _sort(engine, values, trace=trace)
        assert drives.count == 0
        assert stream_tier._RUNS == {}

    @pytest.mark.parametrize("engine, n", MEMO_FACES)
    def test_nan_keys_rejected_and_leave_a_primed_entry(self, drives, engine, n):
        rng = seeded_rng(8)
        _sort(engine, _values(rng, n))
        primed = dict(stream_tier._RUNS)
        values = _values(rng, n)
        values["key"][rng.integers(0, n, size=5)] = np.nan
        with pytest.raises(SortInputError, match="NaN"):
            _sort(engine, values)
        assert drives.count == 1
        assert stream_tier._RUNS == primed
