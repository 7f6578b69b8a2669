"""The benchmark's workloads and the timed runs over them.

A unit is one pass of a workload through hetsim's public API:
`load_scenario` + `run_campaign` (outputs written to disk) for a
campaign, `run_oracle_suite` for the oracle. A run repeats the unit with
the same seed until its time is up and checks every unit's outputs. An
untraced run reports medians over its repeats in reference seconds
(`refclock`), a traced run medians over its traced units in wall
seconds. Everything runs in this process with one worker.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from hetbench import gate, layers, refclock
from hetbench.refclock import ReferenceClock
from hetbench.tracing import Patch, Tracer, check_spans, item_times, leftover_wrappers, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join(HERE, "scenarios")
SECTORS = 57  # 19 sites x 3 sectors, fixed by the layout


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None    # scenario file under scenarios/; None for the oracle
    default_seed: int     # the seed whose outputs golden.json records
    instances: int = 0    # oracle instances per unit


WORKLOADS = {
    w.name: w
    for w in (
        Workload("acc2", "acc2.cfg", 1),
        Workload("oracle", None, 0, instances=2400),
    )
}

# marks that bound a unit's run and its items
UNIT_START, UNIT_END = "unit", "unit.end"
ITEM_MARK = "harness.run_drop"
ORACLE_ITEM_MARK = "harness.random_small_gains"

MIN_SETUP_PROBES = 7

# Oracle instances have 2 or 3 cells and 3 to 5 users with equal odds, so
# half of them enumerate at most 27 assignments and half at least 32: the
# median instance jumps between those classes (about 25% apart) from seed
# to seed. item_s.p50 of the oracle is therefore the median over batches
# of this many consecutive instances of their mean time.
ORACLE_BATCH = 10

E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_s.p50": "s", "peak_rss_mb": "MB"}

# fresh interpreter -> import hetsim, load + validate the scenario, build_layout
_SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hetsim.harness as h\n"
    "if len(sys.argv) > 2:\n"
    "    s = h.load_scenario(sys.argv[2], {'master_seed': int(sys.argv[3])})\n"
    "    h.build_layout(s.isd_m)\n"
    "print('ready', flush=True)\n"
)


@dataclass
class Unit:
    """Outcome of one unit."""

    items: int
    start: float = 0.0           # perf_counter at the unit's start and end
    end: float = 0.0
    wall: float = 0.0            # end - start: the whole unit, load included
    run_wall: float = 0.0        # run_campaign / run_oracle_suite only
    clock: ReferenceClock | None = None  # untraced units only
    hashes: dict[str, str] = field(default_factory=dict)
    triple: list | None = None   # oracle (converged, containment_failures, non_converged)
    outcome: dict[str, int] = field(default_factory=dict)  # counts read off the results
    problems: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)  # traced units only
    tracer: Tracer | None = None


class Runner:
    """Runs one workload at one seed against the hetsim package `hs`."""

    def __init__(self, hs, workload: Workload, seed: int, outdir: str, size: int | None = None):
        self.hs = hs
        self.seed = seed
        self.outdir = outdir
        self.size = size
        golden = gate.load_golden().get(workload.name, {})
        # the recorded outputs hold only at the recorded seed and full size
        self.golden = golden if golden.get("seed") == seed and size is None else None
        self.config = os.path.join(SCENARIO_DIR, workload.config) if workload.config else None
        if size is not None:
            self.items = size
        elif self.config:
            self.items = hs.harness.load_scenario(self.config).drops
        else:
            self.items = workload.instances

    # ---- one unit ----------------------------------------------------------

    def unit(self, tracer: Tracer | None = None, sample: bool = False) -> Unit:
        """Run the workload once: traced when a tracer is given, else with
        item marks, and sampling the reference kernel if `sample` is set."""
        outdir = os.path.join(self.outdir, "traced" if tracer else "untraced")
        shutil.rmtree(outdir, ignore_errors=True)
        patch = Patch()
        unit = Unit(items=self.items)
        try:
            if tracer is None:
                unit.clock = ReferenceClock()
                self._install_marks(unit.clock, patch)
            else:
                layers.install(tracer, patch, self.hs)
            with unit.clock if sample else contextlib.nullcontext():
                result = self._campaign(unit, outdir) if self.config else self._oracle(unit)
        except Exception:  # noqa: BLE001 - a raising unit fails all its items
            unit.problems.append("raised:\n" + traceback.format_exc())
            return unit
        finally:
            restored = patch.restore()
            leftovers = leftover_wrappers(restored)
            if leftovers:
                unit.problems.append(f"wrappers left in place: {leftovers}")
        if tracer is not None:
            unit.tracer = tracer
            unit.layer = layers.layer_metrics(tracer, unit.wall)
            unit.problems += check_spans(tracer.spans, unit.start, unit.end, layers.SPAN_NAMES)
        unit.problems += self._check(result, unit, outdir)
        return unit

    def _install_marks(self, clock: ReferenceClock, patch: Patch) -> None:
        """Item marks of an untraced unit: each drop's start and end, or
        each oracle instance's start."""
        h = self.hs.harness
        if self.config:
            patch.wrap(h, "run_drop", clock.bracket(ITEM_MARK))
        else:
            patch.wrap(h, "random_small_gains", clock.marker(ORACLE_ITEM_MARK))

    def _overrides(self, outdir: str) -> dict:
        overrides = {"master_seed": self.seed, "output_dir": outdir, "workers": 1}
        if self.size is not None:
            overrides["drops"] = self.size
        return overrides

    def _campaign(self, unit: Unit, outdir: str):
        h = self.hs.harness
        t0 = time.perf_counter()
        scenario = h.load_scenario(self.config, self._overrides(outdir))
        t1 = time.perf_counter()
        if unit.clock:
            unit.clock.mark(UNIT_START)
        report, summaries = h.run_campaign(scenario)
        t2 = time.perf_counter()
        if unit.clock:
            unit.clock.mark(UNIT_END)
        unit.start, unit.end = t0, t2
        unit.wall, unit.run_wall = t2 - t0, t2 - t1
        return scenario, report, summaries

    def _oracle(self, unit: Unit):
        h = self.hs.harness
        t0 = time.perf_counter()
        if unit.clock:
            unit.clock.mark(UNIT_START)
        result = h.run_oracle_suite(instances=self.items, seed=self.seed)
        t1 = time.perf_counter()
        if unit.clock:
            unit.clock.mark(UNIT_END)
        unit.start, unit.end = t0, t1
        unit.wall = unit.run_wall = t1 - t0
        return result

    # ---- checks ------------------------------------------------------------

    def _check(self, result, unit: Unit, outdir: str) -> list[str]:
        if not self.config:
            unit.outcome = {
                "cell_selection.search.runs": result.instances,
                "cell_selection.search.converged": result.converged,
            }
            unit.triple = gate.oracle_triple(result)
            expected = self.golden["triple"] if self.golden else None
            return gate.check_oracle(result, expected)
        scenario, report, summaries = result
        searched = [s for s in summaries if s.strategy == "interference"]
        unit.hashes = gate.file_hashes(outdir)
        unit.outcome = {
            "metrics.samples": len(report.samples),
            "harness.output_bytes": layers.output_bytes(outdir),
            "cell_selection.search.runs": len(searched),
            "cell_selection.search.passes": sum(s.passes_used for s in searched),
            "cell_selection.search.moves": sum(s.moves_total for s in searched),
            "cell_selection.search.converged": sum(1 for s in searched if s.converged),
        }
        if self.golden:
            return gate.check_hashes(unit.hashes, self.golden["sha256"])
        labels = [s.label for s in scenario.strategy_configs()]
        users = SECTORS * scenario.users_per_sector
        return gate.check_campaign_structure(outdir, scenario.drops, users, labels, scenario.alphas)

    # ---- set-up ------------------------------------------------------------

    def setup_seconds(self, src_dir: str, probes: int) -> list[float]:
        """Time from a fresh interpreter's start to its first item, per probe.

        The probe's wall time is turned into reference seconds by timing
        the reference kernel right before and right after it, on the CPU
        the probe runs on: the caller pins the process to one CPU.
        """
        cmd = [sys.executable, "-c", _SETUP_PROBE, src_dir]
        if self.config:
            cmd += [self.config, str(self.seed)]
        times = []
        for _ in range(probes):
            before = refclock.kernel_seconds()
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=60)
            if line.strip() != "ready" or code != 0:
                raise RuntimeError(f"set-up probe failed with exit code {code}")
            after = refclock.kernel_seconds()
            times.append(elapsed * refclock.REF_SECONDS * 2.0 / (before + after))
        return times


# ---- runs ----------------------------------------------------------------------


def batch_means(values: list[float], size: int) -> list[float]:
    """Mean of each run of `size` consecutive values (the last may be shorter)."""
    return [statistics.fmean(values[i:i + size]) for i in range(0, len(values), size)]


def _time_left(start: float, seconds: float, units: list[Unit], more: int = 1) -> bool:
    """True if `more` units of typical length end within the budget."""
    typical = statistics.median(u.wall for u in units) if units else 0.0
    return time.perf_counter() - start + more * typical <= seconds


def _all_problems(units: list[Unit]) -> list[str]:
    return [p for u in units for p in u.problems]


def _determinism(units: list[Unit]) -> list[str]:
    """Every unit of a run writes the same outputs and reads the same counts."""
    problems = []
    ok = [u for u in units if not u.problems]
    for u in ok[1:]:
        if u.hashes != ok[0].hashes or u.triple != ok[0].triple:
            problems.append("outputs differ between repeats of the same seed")
        if u.clock and u.clock.sites != ok[0].clock.sites:
            problems.append("the marked call sequence differs between repeats of the same seed")
        if u.outcome != ok[0].outcome:
            problems.append(f"outcome counts differ between repeats: {u.outcome} != {ok[0].outcome}")
    return problems


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    metric_units: dict[str, str]
    problems: list[str]
    notes: dict = field(default_factory=dict)


def _result(units: list[Unit], problems: list[str], metrics: dict, metric_units: dict) -> RunResult:
    attempted = sum(u.items for u in units)
    return RunResult(
        correct=not problems,
        attempted=attempted,
        # a unit that raises fails its check, and a failed check fails every item
        failed=attempted if problems else 0,
        metrics=metrics,
        metric_units=metric_units,
        problems=problems,
    )


def run_untraced(runner: Runner, seconds: float, src_dir: str, probes: int = 1) -> RunResult:
    """End-to-end metrics from repeats of one unit, set-up probes between them.

    Times are in reference seconds (see `refclock`): wall time rescaled by
    how fast a fixed kernel ran meanwhile, which takes most of the shared
    host's changes of speed out of them. `items_per_s` comes from the
    median repeat, and each item's time is its median over the repeats.
    The repeats take turns on the CPUs, and `probes` set-up probes run
    before each unit and after the last (at least MIN_SETUP_PROBES in all),
    so that their median spans the run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    setup: list[float] = []
    units: list[Unit] = []
    start = time.perf_counter()
    try:
        while not units or _time_left(start, seconds, units):
            os.sched_setaffinity(0, {cpus[len(units) % len(cpus)]})
            setup += runner.setup_seconds(src_dir, probes)
            units.append(runner.unit(sample=True))
        setup += runner.setup_seconds(src_dir, max(probes, MIN_SETUP_PROBES - len(setup)))
    finally:
        os.sched_setaffinity(0, cpus)
    problems = _all_problems(units) + _determinism(units)
    good = [u for u in units if not u.problems]
    if not good:
        raise RuntimeError("every unit failed:\n" + "\n".join(problems[:5]))
    first, last = (ITEM_MARK, ITEM_MARK + ".end") if runner.config else (ORACLE_ITEM_MARK, UNIT_END)
    run_s, per_unit = [], []
    for u in good:
        segments = u.clock.segments()  # from the UNIT_START mark to the UNIT_END mark
        run_s.append(sum(segments))
        per_unit.append(item_times(u.clock.sites, segments, first, last))
    if any(len(items) != runner.items for items in per_unit):
        problems.append(f"{[len(i) for i in per_unit]} items marked, expected {runner.items} a unit")
    items = [statistics.median(repeats) for repeats in zip(*per_unit)]
    typical = items if runner.config else batch_means(items, ORACLE_BATCH)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": runner.items / statistics.median(run_s),
        "item_s.p50": statistics.median(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = _result(units, problems, metrics, E2E_UNITS)
    result.notes = {
        "repeats": len(good),
        "items_per_s.each_repeat": [runner.items / s for s in run_s],
        "items_per_s.wall_each_repeat": [u.items / u.run_wall for u in good],
        "kernel_factor.each_repeat": [u.clock.kernel_factor() for u in good],
        "item_s.n": len(typical),
        "setup_s.all": setup,
    }
    if len(items) >= 100:  # at least ten samples lie beyond the 90th percentile
        result.notes["item_s.p90"] = statistics.quantiles(items, n=10)[-1]
    return result


def run_traced(runner: Runner, seconds: float, spans_path: str | None = None) -> RunResult:
    """Per-layer metrics: traced units with untraced ones in between.

    The untraced units give the wall time the tracing overhead is measured
    against, and the outputs and counts the traced units must reproduce.
    The first unit of a process runs cold (heap growth), so the first
    traced unit is left out of the overhead.
    """
    start = time.perf_counter()
    traced: list[Unit] = [runner.unit(Tracer())]
    plain: list[Unit] = []
    while len(traced) < 2 or _time_left(start, seconds, plain + traced, more=2):
        plain.append(runner.unit())
        traced.append(runner.unit(Tracer()))
    units = plain + traced
    problems = _all_problems(units) + _determinism(plain) + _determinism(traced)
    good_t = [u for u in traced if not u.problems]
    good_p = [u for u in plain if not u.problems]
    if not good_t or not good_p:
        raise RuntimeError("every traced or untraced unit failed:\n" + "\n".join(problems[:5]))

    first = good_t[0].layer
    for u in good_t[1:]:
        differ = [m for m in layers.COUNTS if u.layer[m] != first[m]]
        if differ:
            problems.append(f"per-layer counts differ between traced repeats: {differ}")
    for name, value in good_p[0].outcome.items():
        if first.get(name) != value:
            problems.append(f"{name}: traced {first.get(name)} != untraced {value}")
    if (good_t[0].hashes, good_t[0].triple) != (good_p[0].hashes, good_p[0].triple):
        problems.append("traced and untraced runs gave different outputs")

    metrics: dict[str, float] = {}
    for name in layers.UNITS:
        if name == "trace.overhead_frac":
            continue
        values = [u.layer[name] for u in good_t]
        metrics[name] = first[name] if name in layers.COUNTS else statistics.median(values)
    warm_t = [u for u in traced[1:] if not u.problems] or good_t
    metrics["trace.overhead_frac"] = (
        statistics.median(u.wall for u in warm_t) / statistics.median(u.wall for u in good_p) - 1.0
    )
    if spans_path is not None:
        write_spans(spans_path, good_t[-1].tracer.spans)
    result = _result(units, problems, metrics, layers.UNITS)
    result.notes = {
        "traced_units": len(traced),
        "untraced_units": len(plain),
    }
    return result
