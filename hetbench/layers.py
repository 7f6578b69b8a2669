"""Where the traced run puts its spans in hetsim, and the per-layer metrics.

Each span wraps a module or class attribute at the place the caller looks
it up: `harness` for the calls a drop makes, `cell_selection` for the
allocator its state rebuilds call, and the class for `NetworkState` and
`SinrReport` methods. A site that hetsim no longer has makes the traced
run fail, so a lost probe cannot read as a per-layer gain.
"""

from __future__ import annotations

import os

from hetbench.gate import GATED_FILES
from hetbench.tracing import Patch, Tracer, self_times, unattributed

# per-layer metric -> span whose summed self seconds it reports
SELF_TIME = {
    "topology.place_picos.s": "topology.place_picos",
    "topology.place_users.s": "topology.place_users",
    "topology.build_layout.s": "topology.build_layout",
    "radio.compute_gain_matrix.s": "radio.compute_gain_matrix",
    "scheduler.allocate.s": "scheduler.allocate",
    "cell_selection.search.s": "cell_selection.search",
    "cell_selection.move_user.s": "cell_selection.move_user",
    "cell_selection.state_build.s": "cell_selection.state_build",
    "cell_selection.baseline.s": "cell_selection.baseline",
    "cell_selection.oracle.s": "cell_selection.oracle",
    "metrics.wideband_sinr.s": "metrics.wideband_sinr",
    "metrics.percentile_table.s": "metrics.percentile_table",
    "metrics.export_cdf.s": "metrics.export_cdf",
    "harness.run_drop.self_s": "harness.run_drop",
    "harness.write_outputs.self_s": "harness.write_outputs",
    "harness.run_campaign.self_s": "harness.run_campaign",
    "harness.load_scenario.s": "harness.load_scenario",
    "harness.run_oracle_suite.self_s": "harness.run_oracle_suite",
}
SPAN_NAMES = frozenset(SELF_TIME.values())

# per-layer counts, each repeating exactly for a fixed seed
COUNTS = {
    "topology.wrap_distance.calls": "count",
    "topology.picos_placed": "count",
    "topology.users_placed": "count",
    "radio.links": "count",
    "scheduler.allocate.calls": "count",
    "uplink_power.open_loop_power.calls": "count",
    "cell_selection.search.runs": "count",
    "cell_selection.search.passes": "count",
    "cell_selection.search.moves": "count",
    "cell_selection.search.metric_evals": "count",
    "cell_selection.search.converged": "count",
    "cell_selection.move_user.calls": "count",
    "cell_selection.state_build.calls": "count",
    "cell_selection.oracle.assignments": "count",
    "metrics.wideband_sinr.calls": "count",
    "metrics.percentile_table.calls": "count",
    "metrics.samples": "count",
    "harness.output_bytes": "bytes",
}

# derived in `layer_metrics` or from the traced and untraced walls
DERIVED = {
    "cell_selection.search.converged_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.wall_s": "s",
}

UNITS = {**{m: "s" for m in SELF_TIME}, **COUNTS, **DERIVED}


def output_bytes(outdir: str) -> int:
    """Total size of the gated output files (the resolved scenario embeds the path)."""
    return sum(os.path.getsize(os.path.join(outdir, name)) for name in GATED_FILES)


def _picos(counts, args, kwargs, result):
    counts["topology.picos_placed"] += len(result[0])


def _users(counts, args, kwargs, result):
    counts["topology.users_placed"] += result.n_users


def _links(counts, args, kwargs, result):
    counts["radio.links"] += result.n_cells * result.n_users


def _search(counts, args, kwargs, result):
    gains = args[0] if args else kwargs["gains"]
    counts["cell_selection.search.runs"] += 1
    counts["cell_selection.search.passes"] += result.passes_used
    counts["cell_selection.search.moves"] += sum(result.moves_per_pass)
    counts["cell_selection.search.metric_evals"] += result.passes_used * gains.n_users
    counts["cell_selection.search.converged"] += int(bool(result.converged))


def _oracle(counts, args, kwargs, result):
    gains = args[0] if args else kwargs["gains"]
    space = kwargs.get("search_space", args[4] if len(args) > 4 else None)
    n_cells = gains.n_cells if space is None else len(space)
    counts["cell_selection.oracle.assignments"] += n_cells ** gains.n_users


def _samples(counts, args, kwargs, result):
    report, _ = result
    counts["metrics.samples"] += len(report.samples)


def _written(counts, args, kwargs, result):
    scenario = args[0] if args else kwargs["scenario"]
    counts["harness.output_bytes"] += output_bytes(scenario.output_dir)


def _bindings(hs, module, attr: str) -> list:
    """Every hetsim module that binds the same object as module.attr."""
    target = vars(module).get(attr)
    if target is None:
        return [module]
    modules = [hs] + [v for v in vars(hs).values() if getattr(v, "__name__", "").startswith("hetsim.")]
    return [m for m in modules if vars(m).get(attr) is target]


def install(tracer: Tracer, patch: Patch, hs) -> None:
    """Wrap every traced call site of the hetsim package `hs`."""
    h = hs.harness
    span = tracer.span
    at = patch.wrap
    at(h, "load_scenario", span("harness.load_scenario"))
    at(h, "run_campaign", span("harness.run_campaign", on_result=_samples))
    at(h, "run_drop", span("harness.run_drop", item=True))
    at(h, "write_outputs", span("harness.write_outputs", on_result=_written))
    at(h, "run_oracle_suite", span("harness.run_oracle_suite"))
    at(h, "random_small_gains", tracer.item_marker())
    at(h, "build_layout", span("topology.build_layout"))
    at(h, "place_picos", span("topology.place_picos", on_result=_picos))
    at(h, "place_users", span("topology.place_users", on_result=_users))
    at(h, "compute_gain_matrix", span("radio.compute_gain_matrix", on_result=_links))
    for attr in ("select_rsrp", "select_pl", "select_cre"):
        at(h, attr, span("cell_selection.baseline"))
    at(h, "select_interference_based", span("cell_selection.search", on_result=_search))
    at(h, "brute_force_oracle", span("cell_selection.oracle", on_result=_oracle))
    at(h, "wideband_sinr", span("metrics.wideband_sinr"))
    at(hs.metrics, "export_cdf", span("metrics.export_cdf"))
    at(hs.metrics.SinrReport, "percentile_table", span("metrics.percentile_table"))
    at(hs.cell_selection.NetworkState, "build", span("cell_selection.state_build"))
    at(hs.cell_selection.NetworkState, "move_user", span("cell_selection.move_user"))
    at(hs.cell_selection, "allocate", span("scheduler.allocate"))
    # counted wherever bound: these run in tight loops, a span would distort them
    for module in _bindings(hs, hs.topology, "wrap_distance"):
        at(module, "wrap_distance", tracer.counter("topology.wrap_distance.calls"))
    for module in _bindings(hs, hs.uplink_power, "open_loop_power"):
        at(module, "open_loop_power", tracer.counter("uplink_power.open_loop_power.calls"))


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit whose wall time was `wall`."""
    times = self_times(tracer.spans)
    out: dict[str, float] = {m: times.get(name, 0.0) for m, name in SELF_TIME.items()}
    out.update({m: int(tracer.counts.get(m, 0)) for m in COUNTS})
    runs = out["cell_selection.search.runs"]
    out["cell_selection.search.converged_frac"] = (
        out["cell_selection.search.converged"] / runs if runs else 0.0
    )
    out["trace.unattributed_frac"] = unattributed(tracer.spans, wall) / wall
    out["trace.wall_s"] = wall
    return out
