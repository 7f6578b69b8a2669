"""Tests of the benchmark itself: span arithmetic, wrapping, gate, smoke runs."""

import json
import os
import signal
import time
import types

import pytest

import hetsim
from hetbench import gate, layers, refclock, workloads
from hetbench.refclock import ReferenceClock
from hetbench.tracing import (
    Patch, Span, Tracer, check_spans, item_times, leftover_wrappers, self_times, unattributed,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hetsim.__file__)))


def test_self_times_of_synthetic_span_tree():
    # A[0,10] holds B[1,4] (which holds C[2,3]) and D[5,9]; E[11,12] stands alone
    spans = [
        Span("A", 0.0, 10.0, -1, 0),
        Span("B", 1.0, 4.0, 0, 0),
        Span("C", 2.0, 3.0, 1, 0),
        Span("D", 5.0, 9.0, 0, 0),
        Span("E", 11.0, 12.0, -1, -1),
        Span("D", 11.5, 11.75, 4, -1),
    ]
    times = self_times(spans)
    assert times == {"A": 3.0, "B": 2.0, "C": 1.0, "D": 4.25, "E": 0.75}
    assert unattributed(spans, 13.0) == 2.0
    assert sum(times.values()) + unattributed(spans, 13.0) == 13.0
    assert check_spans(spans, 0.0, 13.0, set(times)) == []


@pytest.mark.parametrize("bad, expect", [
    (Span("C", 2.0, 4.5, 1, 0), "outside its parent 1"),      # child ends after its parent
    (Span("C", 0.5, 3.0, 1, 0), "outside its parent 1"),      # child starts before its parent
    (Span("X", 2.0, 3.0, 1, 0), "maps to no layer metric"),   # unknown span name
    (Span("C", 2.0, 3.0, 5, 0), "which opened after it"),     # parent recorded later
])
def test_check_spans_rejects_a_bad_span_tree(bad, expect):
    spans = [Span("A", 0.0, 10.0, -1, 0), Span("B", 1.0, 4.0, 0, 0), bad, Span("D", 5.0, 9.0, 0, 0)]
    problems = check_spans(spans, 0.0, 13.0, {"A", "B", "C", "D"})
    assert any(expect in p for p in problems), problems


def test_check_spans_rejects_overlap_and_spans_outside_the_unit():
    overlapping = [Span("A", 0.0, 10.0, -1, 0), Span("B", 1.0, 6.0, 0, 0), Span("B", 5.0, 9.0, 0, 0)]
    assert any("overlaps" in p for p in check_spans(overlapping, 0.0, 10.0, {"A", "B"}))
    late = [Span("A", 0.0, 10.0, -1, 0), Span("A", 11.0, 14.0, -1, 1)]
    assert any("outside the unit" in p for p in check_spans(late, 0.0, 13.0, {"A"}))


def test_item_times_sum_the_segments_of_each_item():
    sites = ["unit", "drop", "drop.end", "drop", "drop.end", "unit.end"]
    segments = [1, 3, 1, 2, 1]
    assert item_times(sites, segments, "drop", "drop.end") == [3, 2]
    assert item_times(sites, segments, "drop", "unit.end") == [4, 3]  # each item runs to the next start


def test_reference_times_rescale_by_the_kernel_at_both_ends():
    clock = ReferenceClock()
    ref = refclock.REF_SECONDS
    # kernel samples of ref, 3 ref and ref seconds, starting at 0, 1 and 2
    clock.entries = [0.0, 1.0, 2.0]
    clock.exits = [ref, 1.0 + 3 * ref, 2.0 + ref]
    gap = 1.0 - ref  # program time between two samples
    times = clock.reference_times([ref, 0.5, 1.0 + ref / 2, 2.0])
    # between samples 0 and 1 the kernel took 2 ref on average: half speed
    assert times[0] == 0.0
    assert times[1] == pytest.approx((0.5 - ref) / 2)
    assert times[2] == pytest.approx(gap / 2)              # inside a sample: no time passes
    assert times[3] == pytest.approx(gap / 2 + (1.0 - 3 * ref) / 2)
    for outside in (-1.0, 2.5):
        with pytest.raises(ValueError):
            clock.reference_times([outside])


def test_reference_clock_samples_while_on_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with ReferenceClock(period=0.01) as clock:
        clock.mark("a")
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        clock.mark("b")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.entries) >= 4
    (seconds,) = clock.segments()
    assert seconds > 0
    assert clock.kernel_factor() > 0


def test_batch_means():
    assert workloads.batch_means([1.0, 3.0, 5.0, 7.0, 9.0], 2) == [2.0, 6.0, 9.0]


def test_tracer_records_nesting_items_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner")(lambda x: x + 1)
    outer = tracer.span("outer", item=True)(lambda x: inner(x) * 2)
    counted = tracer.counter("hits")(lambda: None)
    assert outer(1) == 4
    counted()
    counted()
    outer(2)
    assert [(s.name, s.parent, s.item) for s in tracer.spans] == [
        ("outer", -1, 0), ("inner", 0, 0), ("outer", -1, 1), ("inner", 2, 1),
    ]
    assert tracer.counts == {"outer.calls": 2, "inner.calls": 2, "hits": 2}
    assert self_times(tracer.spans) == {"outer": 4.0, "inner": 2.0}


def test_patch_wraps_and_restores_functions_methods_and_classmethods():
    mod = types.ModuleType("fake")

    def func(x):
        return x * 3

    class Box:
        def method(self, x):
            return x + 1

        @classmethod
        def make(cls):
            return cls()

    mod.func, mod.Box = func, Box
    originals = (vars(mod)["func"], vars(Box)["method"], vars(Box)["make"])
    tracer = Tracer()
    with Patch() as patch:
        patch.wrap(mod, "func", tracer.span("f"))
        patch.wrap(Box, "method", tracer.span("m"))
        patch.wrap(Box, "make", tracer.span("k"))
        assert mod.func(2) == 6
        assert Box.make().method(1) == 2
        assert isinstance(vars(Box)["make"], classmethod)
    assert (vars(mod)["func"], vars(Box)["method"], vars(Box)["make"]) == originals
    assert tracer.counts == {"f.calls": 1, "m.calls": 1, "k.calls": 1}
    with pytest.raises(AttributeError):
        Patch().wrap(mod, "absent", tracer.span("x"))


def test_layer_install_restores_every_hetsim_attribute():
    before = {
        (owner, attr): vars(owner)[attr]
        for owner, attr in [
            (hetsim.harness, "run_drop"),
            (hetsim.cell_selection, "allocate"),
            (hetsim.cell_selection.NetworkState, "build"),
            (hetsim.topology, "wrap_distance"),
            (hetsim, "wrap_distance"),
        ]
    }
    patch = Patch()
    layers.install(Tracer(), patch, hetsim)
    assert all(vars(owner)[attr] is not original for (owner, attr), original in before.items())
    restored = patch.restore()
    assert leftover_wrappers(restored) == []
    assert all(vars(owner)[attr] is original for (owner, attr), original in before.items())


def _runner(name, tmp_path, size=1, seed=None):
    workload = workloads.WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    return workloads.Runner(hetsim, workload, seed, str(tmp_path), size=size)


def test_gate_rejects_one_byte_change_to_samples(tmp_path):
    runner = _runner("acc2", tmp_path)
    unit = runner.unit()
    assert unit.problems == []
    outdir = os.path.join(str(tmp_path), "untraced")
    recorded = gate.file_hashes(outdir)
    assert gate.check_hashes(gate.file_hashes(outdir), recorded) == []

    path = os.path.join(outdir, "samples.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")  # last digit of the last SINR
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    problems = gate.check_hashes(gate.file_hashes(outdir), recorded)
    assert len(problems) == 1 and problems[0].startswith("samples.csv")


def test_structure_check_rejects_non_finite_sinr(tmp_path):
    runner = _runner("acc2", tmp_path, seed=5)
    assert runner.unit().problems == []
    outdir = os.path.join(str(tmp_path), "untraced")
    path = os.path.join(outdir, "samples.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",nan\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    labels = ["rsrp", "pl", "cre6", "interference"]
    problems = gate.check_campaign_structure(outdir, 1, 684, labels, (0.4, 0.6, 0.8, 1.0))
    assert any("not finite" in p for p in problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_item_smoke_run(name, tmp_path):
    result = workloads.run_untraced(_runner(name, tmp_path), 0, SRC, probes=1)
    assert result.problems == []
    assert (result.correct, result.attempted, result.failed) == (True, 1, 0)
    assert set(result.metrics) == set(workloads.E2E_UNITS)
    assert all(v > 0 for v in result.metrics.values())


def test_traced_smoke_run_matches_untraced(tmp_path):
    result = workloads.run_traced(_runner("acc2", tmp_path), 0)
    assert result.problems == []
    assert set(result.metrics) == set(layers.UNITS)
    assert result.metrics["metrics.samples"] == 684 * 16
    assert result.metrics["cell_selection.search.runs"] == 4
    assert result.metrics["topology.users_placed"] == 684


def test_benchmark_json_matches_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
