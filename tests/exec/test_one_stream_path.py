"""One path per stream tier.

An untraced stream sort always takes the memo and pads nothing on a hit;
only ``trace=True`` runs the reference interpreter, which pads and strips.
The memo never declines: a kernel it cannot count is a
:class:`~repro.errors.KernelError` naming it, not a silent re-run.  Both
program kinds take ``(values, machine)``.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

import repro
from repro.baselines.bitonic_network import gpusort_stream
from repro.core.abisort import GPUABiSorter
from repro.core.api import ABiSortConfig, make_sorter
from repro.core.values import reference_sort
from repro.errors import KernelError, SortInputError
from repro.exec import stream_tier
from repro.stream.context import StreamMachine
from repro.stream.stream import VALUE_DTYPE
from repro.workloads import records
from repro.workloads.rng import seeded_rng


def _values(n: int, seed: int = 0) -> np.ndarray:
    rng = seeded_rng(seed)
    return repro.make_values(rng.random(n, dtype=np.float32))


@pytest.fixture
def pads(monkeypatch) -> list[int]:
    """An empty memo, and the lengths padded wherever the name is bound."""
    monkeypatch.setattr(stream_tier, "_RUNS", {})
    lengths: list[int] = []
    real = records.pad_to_power_of_two

    def pad_to_power_of_two(values):
        lengths.append(values.shape[0])
        return real(values)

    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, "pad_to_power_of_two", None) is real
        ):
            monkeypatch.setattr(module, "pad_to_power_of_two", pad_to_power_of_two)
    return lengths


class TestMemoPathPadsNothing:
    @pytest.mark.parametrize("program", [ABiSortConfig(), gpusort_stream])
    def test_memo_hit_calls_no_padding(self, pads, program):
        stream_tier.sort_on_stream(program, _values(700, seed=1))
        assert pads == [700]  # the miss pads a private copy, once
        values = _values(700, seed=2)
        out, machine = stream_tier.sort_on_stream(program, values)
        assert pads == [700]
        assert out.tobytes() == reference_sort(values).tobytes()
        assert machine.run is stream_tier._RUNS[(program, 1024)]

    @pytest.mark.parametrize("trace", [False, True])
    def test_empty_input_raises_whatever_the_memo_holds(self, pads, trace):
        empty = np.empty(0, dtype=VALUE_DTYPE)
        for _primed in range(2):
            with pytest.raises(SortInputError, match="empty"):
                stream_tier.sort_on_stream(ABiSortConfig(), empty, trace=trace)
            stream_tier.sort_on_stream(ABiSortConfig(), _values(2))

    def test_only_the_interpreter_pads(self, pads):
        values = _values(700, seed=3)
        memo_out, memo_machine = stream_tier.sort_on_stream(ABiSortConfig(), values)
        traced_out, traced_machine = stream_tier.sort_on_stream(
            ABiSortConfig(), values, trace=True
        )
        assert pads == [700, 700]  # the memo miss, then the interpreter
        assert memo_out.tobytes() == traced_out.tobytes()
        assert memo_machine.ops == traced_machine.ops

    def test_untraced_sorts_build_no_reference_machine(self, monkeypatch):
        monkeypatch.setattr(stream_tier, "_RUNS", {})
        built: list[type] = []
        real = StreamMachine.__init__

        def init(self, *args, **kwargs):
            built.append(type(self))
            real(self, *args, **kwargs)

        monkeypatch.setattr(StreamMachine, "__init__", init)
        for engine in ("abisort", "abisort-brook", "bitonic-network"):
            repro.sort(repro.SortRequest(values=_values(512)), engine=engine)
        repro.sort(repro.SortRequest(values=_values(3000)), engine="sharded-abisort")
        assert built and set(built) == {stream_tier.CountingStreamMachine}
        built.clear()
        repro.sort(repro.SortRequest(values=_values(512), trace=True), engine="abisort")
        assert built == [StreamMachine]


def _copy_body(ctx) -> None:
    ctx.push("out", ctx.read("values"))


def _unprofiled_program(values, machine):
    """A network preceded by a copy kernel the memo has no profile for."""
    n = values.shape[0]
    src = machine.wrap("copy_src", values.copy())
    dst = machine.alloc("copy_dst", VALUE_DTYPE, n)
    machine.kernel(
        "unprofiled_copy",
        instances=n,
        body=_copy_body,
        inputs={"values": (src.whole(), 1)},
        outputs={"out": (dst.whole(), 1)},
    )
    return gpusort_stream(dst.array().copy(), machine)


class TestMemoNeverDeclines:
    def test_unprofiled_kernel_raises_on_the_vectorized_tier(self, monkeypatch):
        monkeypatch.setattr(stream_tier, "_RUNS", {})
        values = _values(64, seed=4)
        with pytest.raises(KernelError, match="unprofiled_copy"):
            stream_tier.sort_on_stream(_unprofiled_program, values)
        assert stream_tier._RUNS == {}
        out, machine = stream_tier.sort_on_stream(
            _unprofiled_program, values, trace=True
        )
        assert out.tobytes() == reference_sort(values).tobytes()
        assert machine.ops[0].name == "unprofiled_copy"

    def test_debug_levels_live_on_the_sorter_only(self):
        assert [f.name for f in dataclasses.fields(ABiSortConfig)] == [
            "schedule",
            "optimized",
            "gpu_semantics",
        ]
        assert not hasattr(stream_tier, "StreamTierUnsupported")
        values = _values(256, seed=5)
        out = GPUABiSorter(validate_levels=True).sort(values)
        assert out.tobytes() == reference_sort(values).tobytes()


class TestMachineArgument:
    @pytest.mark.parametrize("optimized", [True, False])
    def test_sort_runs_on_the_given_machine(self, optimized):
        values = _values(1024, seed=6)
        sorter = make_sorter(ABiSortConfig(optimized=optimized))
        machine = StreamMachine(trace_gathers=True)
        out = sorter.sort(values, machine)
        assert sorter.last_machine is machine
        assert machine.gather_traces
        assert out.tobytes() == reference_sort(values).tobytes()
        # Tracing gathers changes no record of the op log.
        plain = make_sorter(ABiSortConfig(optimized=optimized))
        plain.sort(values)
        assert plain.last_machine is not machine
        assert machine.ops == plain.last_machine.ops

    def test_default_machine_matches_gpu_semantics(self):
        for gpu_semantics in (True, False):
            sorter = GPUABiSorter(gpu_semantics=gpu_semantics)
            sorter.sort(_values(64, seed=7))
            assert sorter.last_machine.distinct_io is gpu_semantics
