"""Cross-engine equivalence suite for the unified SortEngine API.

Every registered backend must agree with :func:`reference_sort` (the
NumPy-native (key, id) total order) on random, sorted, reverse-sorted,
duplicate-key, and non-power-of-two workloads -- within its declared
capability flags: engines without ``any_length`` must instead raise
:class:`CapabilityError` on non-power-of-two input.  Plus the registry
semantics, the uniform empty/single-element behaviour, telemetry
population, and batch aggregation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.values import reference_sort
from repro.engines import (
    BatchResult,
    CapabilityError,
    EngineCapabilities,
    EngineError,
    SortEngine,
    SortRequest,
    SortTelemetry,
)

# The concrete backends: every registered engine except the "auto" front
# end, whose plan -> execute behaviour (it reports the *chosen* backend as
# result.engine) is covered by tests/planner/.
ENGINES = tuple(e for e in repro.engines.available() if e != "auto")

N_POW2 = 64
N_ODD = 100


def workload_keys(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "random":
        return rng.random(n, dtype=np.float32)
    if kind == "sorted":
        return np.sort(rng.random(n, dtype=np.float32))
    if kind == "reverse":
        return np.sort(rng.random(n, dtype=np.float32))[::-1].copy()
    if kind == "duplicate-key":
        return rng.integers(0, 4, n).astype(np.float32)
    raise AssertionError(kind)


WORKLOADS = ("random", "sorted", "reverse", "duplicate-key")


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", WORKLOADS)
    def test_matches_reference_on_power_of_two(self, engine, kind, rng):
        request = SortRequest(keys=workload_keys(kind, N_POW2, rng))
        result = repro.sort(request, engine=engine)
        assert np.array_equal(result.values, reference_sort(request.to_values()))
        assert result.engine == engine
        assert result.telemetry.n == N_POW2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_power_of_two_per_capability(self, engine, rng):
        request = SortRequest(keys=workload_keys("random", N_ODD, rng))
        caps = repro.engines.capabilities(engine)
        if caps.any_length:
            result = repro.sort(request, engine=engine)
            assert np.array_equal(
                result.values, reference_sort(request.to_values())
            )
        else:
            with pytest.raises(CapabilityError) as err:
                repro.sort(request, engine=engine)
            # The error names engines that can serve the request.
            assert "abisort" in str(err.value)

    @pytest.mark.parametrize("n", (0, 1, 2, 3, 4, 6, 8))
    def test_one_length_rule_for_dispatch_and_planning(self, n, rng):
        """``EngineCapabilities.accepts`` is the one length rule: dispatch
        serves exactly the lengths the planner scores an engine for."""
        power_of_two = n in (0, 1, 2, 4, 8)
        request = SortRequest(keys=rng.random(n, dtype=np.float32))
        planned = {c.engine for c in repro.plan(request).candidates}
        for engine in ENGINES:
            caps = repro.engines.capabilities(engine)
            accepted = caps.any_length or power_of_two
            assert caps.accepts(n) == accepted, engine
            assert (engine in planned) == accepted, engine
            if accepted:
                result = repro.sort(request, engine=engine)
                assert np.array_equal(
                    result.values, reference_sort(request.to_values())
                )
            else:
                with pytest.raises(CapabilityError):
                    repro.sort(request, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ids_are_a_permutation(self, engine, rng):
        keys = workload_keys("duplicate-key", N_POW2, rng)
        result = repro.sort(SortRequest(keys=keys), engine=engine)
        assert np.array_equal(np.sort(result.ids), np.arange(N_POW2))
        assert np.array_equal(keys[result.ids], result.keys)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stability_via_positional_ids(self, engine, rng):
        """With default ids, equal keys keep input order (``stable`` flag)."""
        assert repro.engines.capabilities(engine).stable
        keys = np.zeros(N_POW2, dtype=np.float32)
        result = repro.sort(SortRequest(keys=keys), engine=engine)
        assert np.array_equal(result.ids, np.arange(N_POW2))


#: Keys that stress the strict order: infinities (a real +inf row must
#: survive the +inf padding), both zero signs (equal under the order, so
#: ids decide) and few distinct values (repeats).
HOSTILE_KEYS = st.one_of(
    st.sampled_from([-np.inf, np.inf, -0.0, 0.0, 1.0, -2.5]),
    st.floats(width=32, allow_nan=False),
)
UINT32_MAX = (1 << 32) - 1


@st.composite
def hostile_requests(draw, any_length: bool):
    """Keys plus unique uint32 ids that are not ``0..n-1``: ids reach past
    ``n`` and up to the uint32 ceiling."""
    if any_length:
        n = draw(st.integers(2, 100))
    else:
        n = 1 << draw(st.integers(1, 6))
    keys = draw(st.lists(HOSTILE_KEYS, min_size=n, max_size=n))
    ids = draw(
        st.lists(
            st.one_of(
                st.integers(0, 2 * n),
                st.integers(UINT32_MAX - 1000, UINT32_MAX),
                st.integers(0, UINT32_MAX),
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return np.array(keys, dtype=np.float32), np.array(ids, dtype=np.uint32)


@st.composite
def out_of_contract_requests(draw, any_length: bool):
    """A hostile request broken one way: a repeated id or a NaN key."""
    keys, ids = draw(hostile_requests(any_length))
    n = keys.shape[0]
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 2))
    j += j >= i
    if draw(st.booleans()):
        ids[j] = ids[i]
    else:
        keys[i] = np.nan
    return keys, ids


def _request(form: str, keys, ids, **kw) -> SortRequest:
    """The same input as ``values=`` (packed by hand) or ``keys=``/``ids=``."""
    if form == "keys":
        return SortRequest(keys=keys, ids=ids, **kw)
    values = np.empty(keys.shape[0], dtype=repro.VALUE_DTYPE)
    values["key"] = keys
    values["id"] = ids
    return SortRequest(values=values, **kw)


class TestLexsortContract:
    """Every engine, traced or not, returns exactly ``np.lexsort`` order --
    and every engine rejects the same out-of-contract inputs."""

    @pytest.mark.parametrize("trace", (False, True), ids=("memo", "traced"))
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=15)
    @given(data=st.data())
    def test_ids_in_lexsort_order(self, engine, trace, data):
        any_length = repro.engines.capabilities(engine).any_length
        keys, ids = data.draw(hostile_requests(any_length))
        request = SortRequest(keys=keys, ids=ids, trace=trace)
        result = repro.sort(request, engine=engine)
        assert np.array_equal(result.ids, ids[np.lexsort((ids, keys))])

    @pytest.mark.parametrize("form", ("values", "keys"))
    @pytest.mark.parametrize("trace", (False, True), ids=("memo", "traced"))
    @pytest.mark.parametrize("engine", repro.engines.available())
    @settings(max_examples=5)
    @given(data=st.data())
    def test_out_of_contract_inputs_rejected(self, engine, trace, form, data):
        any_length = repro.engines.capabilities(engine).any_length
        keys, ids = data.draw(out_of_contract_requests(any_length))
        with pytest.raises(repro.SortInputError):
            repro.sort(_request(form, keys, ids, trace=trace), engine=engine)

    @pytest.mark.parametrize("form", ("values", "keys"))
    @pytest.mark.parametrize("trace", (False, True), ids=("memo", "traced"))
    def test_repeated_ids_in_different_shards_rejected(self, trace, form, rng):
        n = 4096
        keys = rng.random(n, dtype=np.float32)
        ids = np.arange(n, dtype=np.uint32)
        ids[n - 1] = ids[0]  # first and last shard
        request = _request(form, keys, ids, trace=trace, devices=2)
        with pytest.raises(repro.SortInputError, match="unique"):
            repro.sort(request, engine="sharded-abisort")


class TestUniformTrivialInputs:
    """Empty and single-element requests succeed identically everywhere."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n", (0, 1))
    def test_trivial_inputs(self, engine, n, rng):
        request = SortRequest(keys=rng.random(n, dtype=np.float32))
        result = repro.sort(request, engine=engine)
        assert len(result) == n
        assert result.telemetry.n == n
        assert result.telemetry.stream_ops == 0
        assert result.machine is None

    def test_abisort_trivial_keys_and_values(self):
        def abisort(**inputs):
            return repro.sort(SortRequest(**inputs), engine="abisort")

        empty = abisort(keys=np.array([], dtype=np.float32))
        assert empty.keys.shape == (0,) and empty.ids.shape == (0,)
        one = abisort(keys=np.array([2.5], dtype=np.float32))
        assert one.keys.tolist() == [2.5] and one.ids.tolist() == [0]
        assert len(abisort(values=np.empty(0, dtype=repro.VALUE_DTYPE))) == 0


class TestTelemetry:
    def test_stream_engine_telemetry_populated(self, rng):
        result = repro.sort(
            SortRequest(keys=rng.random(N_POW2, dtype=np.float32)),
            engine="abisort",
        )
        t = result.telemetry
        assert t.stream_ops == t.kernel_ops + t.copy_ops > 0
        assert t.kernel_instances > 0
        assert t.bytes_moved > 0
        assert t.modeled_gpu_ms > 0
        assert t.wall_time_s > 0
        assert result.machine is not None
        assert len(result.machine.ops) == t.stream_ops

    def test_cpu_engine_telemetry_populated(self, rng):
        t = repro.sort(
            SortRequest(keys=rng.random(N_POW2, dtype=np.float32)),
            engine="cpu-quicksort",
        ).telemetry
        assert t.cpu_ops > 0 and t.modeled_cpu_ms > 0
        assert t.stream_ops == 0

    def test_external_engine_telemetry_populated(self, rng):
        t = repro.sort(
            SortRequest(keys=rng.random(1 << 10, dtype=np.float32)),
            engine="external",
        ).telemetry
        assert t.disk_bytes > 0 and t.disk_seeks > 0
        assert t.modeled_io_ms > 0 and t.modeled_gpu_ms > 0

    def test_require_flags_dispatch(self, rng):
        request = SortRequest(
            keys=rng.random(N_POW2, dtype=np.float32), require=("out_of_core",)
        )
        assert repro.sort(request, engine="external").telemetry.n == N_POW2
        with pytest.raises(CapabilityError):
            repro.sort(request, engine="abisort")
        with pytest.raises(repro.SortInputError, match="unknown capability"):
            repro.sort(
                SortRequest(keys=np.zeros(2, np.float32),
                            require=("warp_drive",)),
                engine="abisort",
            )


class TestBatch:
    def test_batch_aggregates_and_per_request_results(self, rng):
        requests = [
            SortRequest(keys=rng.random(n, dtype=np.float32))
            for n in (16, 32, 64, 100)
        ]
        batch = repro.sort_batch(requests, engine="abisort")
        assert isinstance(batch, BatchResult)
        assert len(batch) == 4
        for req, res in zip(requests, batch):
            assert np.array_equal(res.values, reference_sort(req.to_values()))
        agg = batch.telemetry
        assert agg.requests == 4
        assert agg.n == 16 + 32 + 64 + 100
        assert agg.stream_ops == sum(
            r.telemetry.stream_ops for r in batch.results
        )
        assert agg.modeled_gpu_ms == pytest.approx(
            sum(r.telemetry.modeled_gpu_ms for r in batch.results)
        )

    def test_batch_accepts_bare_arrays(self, rng):
        keys = rng.random(32, dtype=np.float32)
        batch = repro.sort_batch([keys, repro.make_values(keys)])
        assert len(batch) == 2
        assert np.array_equal(batch[0].values, batch[1].values)


class TestRegistry:
    def test_at_least_eight_engines(self):
        assert len(ENGINES) >= 8

    def test_expected_backends_present(self):
        assert {
            "abisort", "abisort-overlapped", "abisort-sequential",
            "bitonic-network", "odd-even-merge", "periodic-balanced",
            "odd-even-transition", "cpu-quicksort", "external",
        } <= set(ENGINES)
        assert "auto" in repro.engines.available()
        assert repro.engines.DEFAULT_ENGINE == "auto"

    def test_available_filters_by_capability(self):
        assert "external" in repro.engines.available(require=("out_of_core",))
        assert "abisort" not in repro.engines.available(require=("out_of_core",))
        assert "bitonic-network" not in repro.engines.available(
            require=("any_length",)
        )

    def test_unknown_engine_raises(self):
        with pytest.raises(EngineError, match="unknown engine"):
            repro.engines.get("timsort-9000")

    def test_register_duplicate_guard_and_replace(self):
        class Dummy(SortEngine):
            name = "dummy"
            capabilities = EngineCapabilities(any_length=True)

            def _run(self, values, request):
                return reference_sort(values), SortTelemetry(), None

        repro.engines.register("dummy", Dummy)
        try:
            with pytest.raises(EngineError, match="already registered"):
                repro.engines.register("dummy", Dummy)
            repro.engines.register("dummy", Dummy, replace=True)
            out = repro.sort(
                SortRequest(keys=np.array([3.0, 1.0, 2.0], np.float32)),
                engine="dummy",
            )
            assert out.keys.tolist() == [1.0, 2.0, 3.0]
        finally:
            repro.engines.unregister("dummy")
        assert "dummy" not in repro.engines.available()

    def test_register_as_decorator(self):
        @repro.engines.register("decorated-dummy")
        class Decorated(SortEngine):
            name = "decorated-dummy"
            capabilities = EngineCapabilities(any_length=True)

            def _run(self, values, request):
                return reference_sort(values), SortTelemetry(), None

        try:
            assert "decorated-dummy" in repro.engines.available()
        finally:
            repro.engines.unregister("decorated-dummy")


class TestOneInstancePerName:
    """The registry builds each engine once; every caller shares it."""

    @pytest.mark.parametrize("name", ["auto", "abisort", "cpu-std"])
    def test_get_returns_the_same_instance(self, name):
        assert repro.engines.get(name) is repro.engines.get(name)

    def test_replace_drops_the_instance_and_capabilities(self):
        class Narrow(SortEngine):
            name = "swap-dummy"
            capabilities = EngineCapabilities(any_length=False)

            def _run(self, values, request):
                return reference_sort(values), SortTelemetry(), None

        class Wide(Narrow):
            capabilities = EngineCapabilities(any_length=True, out_of_core=True)

        repro.engines.register("swap-dummy", Narrow)
        try:
            old = repro.engines.get("swap-dummy")
            assert not repro.engines.capabilities("swap-dummy").any_length
            assert repro.engines.get("swap-dummy") is old
            repro.engines.register("swap-dummy", Wide, replace=True)
            new = repro.engines.get("swap-dummy")
            assert new is not old and isinstance(new, Wide)
            assert repro.engines.get("swap-dummy") is new
            caps = repro.engines.capabilities("swap-dummy")
            assert caps.any_length and caps.out_of_core
            assert "swap-dummy" in repro.engines.available(
                require=("out_of_core",)
            )
        finally:
            repro.engines.unregister("swap-dummy")
        with pytest.raises(EngineError, match="unknown engine"):
            repro.engines.get("swap-dummy")

    def test_plugin_is_built_once_across_sorts_and_service(self, rng):
        from repro.service import SortService

        built = []

        class Counted(SortEngine):
            name = "counted-dummy"
            capabilities = EngineCapabilities(any_length=True)

            def __init__(self):
                built.append(self)

            def _run(self, values, request):
                return reference_sort(values), SortTelemetry(), None

        repro.engines.register("counted-dummy", Counted)
        try:
            requests = [
                SortRequest(keys=rng.random(50 + i, dtype=np.float32))
                for i in range(8)
            ]
            for request in requests[:3]:
                repro.sort(request, engine="counted-dummy")
            served = SortService(devices=4, max_batch=len(requests)).map(
                requests, engine="counted-dummy"
            )
            for request, result in zip(requests, served):
                assert np.array_equal(
                    result.values, reference_sort(request.to_values())
                )
            assert len(built) == 1
        finally:
            repro.engines.unregister("counted-dummy")


class TestRequestValidation:
    def test_values_and_keys_are_exclusive(self, rng):
        values = repro.make_values(rng.random(4, dtype=np.float32))
        with pytest.raises(repro.SortInputError, match="not both"):
            SortRequest(values=values, keys=values["key"]).to_values()

    def test_values_must_be_value_dtype(self):
        with pytest.raises(repro.SortInputError, match="VALUE_DTYPE"):
            SortRequest(values=np.zeros(4, np.float32)).to_values()

    def test_neither_given(self):
        with pytest.raises(repro.SortInputError, match="values or keys"):
            SortRequest().to_values()

    def test_bare_non_array_rejected(self):
        with pytest.raises(EngineError, match="SortRequest"):
            repro.sort([3.0, 1.0])
