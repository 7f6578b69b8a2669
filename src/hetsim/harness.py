"""Scenario configuration, Monte Carlo campaign execution and persistence.

A Scenario bundles every knob of the experiment (layout counts, channel
constants, power control, strategies, seeds). Each drop derives its own
random stream from (master_seed, drop_index), so results are independent
of execution order and worker count, and adding drops never perturbs
existing ones. All strategies within a drop share the same topology and
shadowing, giving paired strategy comparisons.
"""

from __future__ import annotations

import configparser
import io
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator

import numpy as np

from hetsim import metrics as metrics_mod
from hetsim.cell_selection import (
    Assignment,
    NetworkState,
    StrategyConfig,
    VALID_KINDS,
    brute_force_oracle,
    coblock_interference,
    coblock_mask,
    release_power_table,
    select_cre,
    select_interference_based,
    select_pl,
    select_rsrp,
)
from hetsim.metrics import NoiseModel, SinrReport, SinrRun
from hetsim.metrics import wideband_sinr  # noqa: F401 - kept bound here, hetbench traces harness.wideband_sinr
from hetsim.radio import MACRO, PICO, GainMatrix, RadioParams, compute_gain_matrix
from hetsim.scheduler import DATA_RBS, per_slot
from hetsim.topology import build_layout, place_picos, place_users
from hetsim.uplink_power import PowerConfig


class ConfigError(ValueError):
    """Bad scenario configuration (unknown key, missing file, bad value)."""


def _option(section: str, default):
    """A Scenario field kept in [section] of the scenario file."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class Scenario(RadioParams):
    """Every knob of a campaign; the layout is fixed at 19 sites.

    Each field is one key of the scenario file, in the section its
    metadata names, else in [radio] (the inherited RadioParams first)."""

    # [layout]
    isd_m: float = _option("layout", 500.0)
    picos_per_sector: int = _option("layout", 2)
    users_per_sector: int = _option("layout", 12)
    # [radio]
    min_pico_to_macro_m: float = 75.0
    min_pico_to_pico_m: float = 35.0
    pico_coverage_radius_m: float = 50.0
    noise_psd_dbm_hz: float = NoiseModel.psd_dbm_hz
    noise_figure_db: float = NoiseModel.noise_figure_db
    total_bandwidth_mhz: float = 10.0
    # [power]: one P0 for every alpha, or one P0 per entry of alphas
    p0_dbm: float | tuple[float, ...] = _option("power", -90.0)
    max_ue_power_dbm: float = _option("power", PowerConfig.pmax_dbm)
    rbs_per_user: int = _option("power", PowerConfig.rbs_per_user)
    total_data_rbs: int = _option("power", DATA_RBS)
    alphas: tuple[float, ...] = _option("power", (0.4, 0.6, 0.8, 1.0))
    # [selection]
    strategies: tuple[str, ...] = _option("selection", ("rsrp", "pl", "cre", "interference"))
    cre_bias_db: float = _option("selection", 6.0)
    max_passes: int = _option("selection", StrategyConfig.max_passes)
    # [run]
    drops: int = _option("run", 20)
    master_seed: int = _option("run", 1)
    output_dir: str | None = _option("run", None)
    workers: int = _option("run", 1)

    def __post_init__(self):
        # a one-element P0 list is one value; a longer list is held as a tuple
        if isinstance(self.p0_dbm, (list, tuple)):
            p0 = tuple(self.p0_dbm)
            object.__setattr__(self, "p0_dbm", p0[0] if len(p0) == 1 else p0)

    def validate(self) -> "Scenario":
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v!r}")
        if self.isd_m <= 0:
            raise ConfigError("isd_m must be positive")
        if self.picos_per_sector < 0:
            raise ConfigError("picos_per_sector must be >= 0")
        if self.users_per_sector < self.picos_per_sector:
            raise ConfigError("users_per_sector must be >= picos_per_sector (seed users)")
        if self.min_pico_to_macro_m < 0:
            raise ConfigError(f"min_pico_to_macro_m must be >= 0, got {self.min_pico_to_macro_m!r}")
        if self.min_pico_to_pico_m < 0:
            raise ConfigError(f"min_pico_to_pico_m must be >= 0, got {self.min_pico_to_pico_m!r}")
        if self.pico_coverage_radius_m <= 0:
            raise ConfigError(f"pico_coverage_radius_m must be positive, got {self.pico_coverage_radius_m!r}")
        if self.drops < 1:
            raise ConfigError("drops must be >= 1")
        if self.rbs_per_user < 1:
            raise ConfigError("rbs_per_user must be >= 1")
        if self.total_data_rbs < 1 or self.total_data_rbs % self.rbs_per_user != 0:
            raise ConfigError("total_data_rbs must be a positive multiple of rbs_per_user")
        if self.total_data_rbs * (NoiseModel.rb_bandwidth_hz / 1e6) > self.total_bandwidth_mhz + 1e-9:
            raise ConfigError("data RBs exceed the total bandwidth")
        if not self.alphas:
            raise ConfigError("alphas must be non-empty")
        if any(not 0.0 <= a <= 1.0 for a in self.alphas):
            raise ConfigError("every alpha must lie in [0, 1]")
        if len(set(self.alphas)) != len(self.alphas):
            raise ConfigError(f"alphas repeat a value: {', '.join(f'{a:g}' for a in self.alphas)}")
        if isinstance(self.p0_dbm, tuple) and len(self.p0_dbm) != len(self.alphas):
            raise ConfigError(
                f"p0_dbm lists {len(self.p0_dbm)} values for {len(self.alphas)} alphas; "
                "give one value, or one per alpha"
            )
        if self.max_passes < 1:
            raise ConfigError("max_passes must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.strategies:
            raise ConfigError("strategies must be non-empty")
        if self.output_dir == "":
            raise ConfigError("output_dir must name a directory, got ''")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        texts = [("strategies", token) for token in self.strategies] + [("output_dir", self.output_dir or "")]
        for name, text in texts:
            if text != text.strip() or re.search(r"(?:^|\s)[;#]", text):
                raise ConfigError(
                    f"{name} value {text!r} would not read back from a scenario file: it starts or ends "
                    "with whitespace, or a ';' or '#' comes first in it or after whitespace"
                )
        labels = [_parse_strategy_token(token, self).label for token in self.strategies]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"strategies repeat a label: {', '.join(labels)}")
        return self

    # ---- derived objects -------------------------------------------------

    def noise_model(self) -> NoiseModel:
        return NoiseModel(
            psd_dbm_hz=self.noise_psd_dbm_hz,
            noise_figure_db=self.noise_figure_db,
        )

    def power_config(self, alpha: float) -> PowerConfig:
        """Operating point of one swept alpha: (alpha, its P0) and the cap."""
        p0 = self.p0_dbm
        if isinstance(p0, tuple):
            p0 = p0[self.alphas.index(alpha)]
        return PowerConfig(
            p0_dbm=p0,
            alpha=alpha,
            pmax_dbm=self.max_ue_power_dbm,
            rbs_per_user=self.rbs_per_user,
        )

    def strategy_configs(self) -> tuple[StrategyConfig, ...]:
        return tuple(_parse_strategy_token(t, self) for t in self.strategies)


def _parse_strategy_token(token: str, scenario: Scenario) -> StrategyConfig:
    token = token.strip()
    kind, _, arg = token.partition(":")
    kind = kind.strip()
    if kind not in VALID_KINDS:
        raise ConfigError(f"unknown strategy {token!r}")
    bias = scenario.cre_bias_db if kind == "cre" else 0.0
    if arg:
        if kind != "cre":
            raise ConfigError(f"only cre takes a bias argument, got {token!r}")
        try:
            bias = float(arg)
        except ValueError as exc:
            raise ConfigError(f"bad cre bias in {token!r}") from exc
        if not math.isfinite(bias):
            raise ConfigError(f"cre bias in {token!r} must be finite")
    return StrategyConfig(kind=kind, cre_bias_db=bias, max_passes=scenario.max_passes)


# ---- config file (INI) ----------------------------------------------------


def float_list(raw: str) -> tuple[float, ...]:
    """A comma list of floats, from a scenario file or the command line."""
    return tuple(float(x) for x in raw.split(","))


def str_list(raw: str) -> tuple[str, ...]:
    """A comma list of words; empty entries are dropped."""
    return tuple(x.strip() for x in raw.split(",") if x.strip())


# the reader of a key, by the annotation of its Scenario field
_READERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "str | None": str,
    "float | tuple[float, ...]": float_list,
    "tuple[float, ...]": float_list,
    "tuple[str, ...]": str_list,
}

# section -> key -> reader of every Scenario field, sections and keys in file order
_SECTIONS: dict[str, dict[str, Callable[[str], object]]] = {
    name: {} for name in ("layout", "radio", "power", "selection", "run")
}
for _field in fields(Scenario):
    _SECTIONS[_field.metadata.get("section", "radio")][_field.name] = _READERS[_field.type]


def load_scenario(path: str, overrides: dict | None = None) -> Scenario:
    """Parse an INI scenario file; unknown sections (a non-empty [DEFAULT]
    too) or keys are errors, and so is a file that cannot be read."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")

    values: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, raw in parser.items(section):
            read = _SECTIONS[section].get(key)
            if read is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            try:
                values[key] = read(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc

    return Scenario(**{**values, **(overrides or {})}).validate()


def _format_value(value) -> str:
    """Short form of a value that reads back equal: '%g', else the full repr."""
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    return str(value)


def scenario_to_ini(scenario: Scenario) -> str:
    """Render the fully resolved scenario back to INI text."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser.add_section(section)
        for key in keys:
            value = getattr(scenario, key)
            if value is not None:
                items = value if isinstance(value, tuple) else (value,)
                parser.set(section, key, ", ".join(_format_value(v) for v in items))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# ---- drop execution --------------------------------------------------------


def _sinr_links(state: NetworkState) -> tuple[np.ndarray, np.ndarray]:
    """The co-block masks and serving links of a state's assignment, per slot.

    mask[s, j] is the coblock_mask of the user at [s, j] of the per-slot
    layout. links[s, j, i] is the gain from the user at [s, i] to the
    serving cell of the user at [s, j]. Both follow from the serving
    vector alone, so the runs of one assignment at any alpha share them.
    """
    mask = coblock_mask(state.subframe)
    serving = per_slot(state.serving, state.slots)      # padding reads cell 0
    # index arrays split by a slice: their (slots, depth) axes come first and
    # the sliced users' axis last, so one copy gives links[s, j, i]
    links = state.g_slot[np.arange(state.slots)[:, None], :, serving]
    return mask, links


def _sinr_db(mask: np.ndarray, links: np.ndarray, state: NetworkState) -> np.ndarray:
    """Wideband SINR (dB) of every user of a state, from its _sinr_links.

    A user's per-RB SINR is p g / (I + noise) at its serving cell, where I
    is coblock_interference over its slot's received power at that cell:
    the serving column of the search's metric product, S * U * U work.
    The SINR is flat across the user's RBs, and the MMSE combiner returns
    a constant vector exactly, so the wideband value is the per-RB one.
    """
    rx = links * per_slot(state.per_rb_power_mw, state.slots)[:, None, :]  # rx[s, j, i]: user i at j's cell
    interference = coblock_interference(mask, rx[..., None])[..., 0]
    gamma = np.diagonal(rx, axis1=1, axis2=2) / (interference + state.noise_rb_mw)
    return 10.0 * np.log10(gamma.T.ravel()[:len(state.serving)])


def _baseline_assignment(strategy: StrategyConfig, gains: GainMatrix) -> Assignment:
    if strategy.kind == "rsrp":
        return select_rsrp(gains)
    if strategy.kind == "pl":
        return select_pl(gains)
    if strategy.kind == "cre":
        return select_cre(gains, strategy)
    raise ValueError(f"not a baseline strategy: {strategy.kind}")


class DropError(RuntimeError):
    """A drop failed; carries the drop index and the stage it failed in."""

    def __init__(self, drop_index: int, stage: str, cause: Exception):
        super().__init__(f"drop {drop_index} failed in {stage}: {cause}")
        self.drop_index = drop_index
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # a worker's error is pickled back to the campaign by its arguments
        return DropError, (self.drop_index, self.stage, self.cause)


class CampaignError(RuntimeError):
    """Drops of a campaign failed; carries each failed drop's error line."""

    def __init__(self, failures: list[str]):
        super().__init__("campaign aborted; failed drops:\n  " + "\n  ".join(failures))
        self.failures = failures


@contextmanager
def _stage(drop_index: int, stage: str):
    """Raise any failure inside the block as a DropError that names the stage."""
    try:
        yield
    except Exception as exc:
        raise DropError(drop_index, stage, exc) from exc


def run_drop(scenario: Scenario, drop_index: int) -> list[SinrRun]:
    """Simulate one drop: topology, gains, then one SinrRun per (strategy, alpha).

    The runs share what depends only on an assignment: a baseline
    strategy builds one state and one set of SINR masks and links
    (_sinr_links) for all its alphas, and each alpha adds only its
    powers, the co-block products and the dB step. Each search run builds
    its own, after it has released the search's power table, so the table
    does not live through the run's SINR. At most one set of links is kept
    at a time.

    A failure is raised as a DropError whose stage is placement, gain
    matrix, the selection of one strategy (and alpha, for the search), or
    the SINR of one (strategy, alpha) run.
    """
    rng = np.random.default_rng(np.random.SeedSequence(scenario.master_seed, spawn_key=(drop_index,)))
    with _stage(drop_index, "placement"):
        layout = build_layout(scenario.isd_m)
        picos, pico_sector = place_picos(
            layout,
            scenario.picos_per_sector,
            rng,
            min_to_site_m=scenario.min_pico_to_macro_m,
            min_to_pico_m=scenario.min_pico_to_pico_m,
        )
        nodes = place_users(
            layout,
            picos,
            pico_sector,
            scenario.users_per_sector,
            rng,
            seed_radius_m=scenario.pico_coverage_radius_m,
        )
    with _stage(drop_index, "gain matrix"):
        gains = compute_gain_matrix(layout, nodes, rng, scenario)
    noise_mw = scenario.noise_model().per_rb_noise_mw

    runs: list[SinrRun] = []
    for strategy in scenario.strategy_configs():
        label = strategy.label
        searched = strategy.kind == "interference"
        shared = None  # the _sinr_links of the current assignment
        if not searched:
            with _stage(drop_index, f"selection {label}"):
                baseline = _baseline_assignment(strategy, gains)
        for alpha in scenario.alphas:
            power_cfg = scenario.power_config(alpha)
            run_name = f"{label} α={alpha:g}"
            if searched:
                shared = None
                with _stage(drop_index, f"selection {run_name}"):
                    assignment = select_interference_based(
                        gains, power_cfg, noise_mw, strategy, scenario.total_data_rbs
                    )
                    release_power_table(gains)
            else:
                assignment = baseline
            with _stage(drop_index, f"SINR {run_name}"):
                if shared is None:
                    state = NetworkState.build(
                        gains, assignment.c, power_cfg, noise_mw, scenario.total_data_rbs
                    )
                    shared = _sinr_links(state)
                else:
                    state = state.with_power(power_cfg)
                sinr_db = _sinr_db(*shared, state)
            runs.append(
                SinrRun(
                    drop_index, label, alpha, power_cfg.p0_dbm, assignment.c, sinr_db, gains.cell_tier,
                    converged=bool(assignment.converged),
                    passes_used=int(assignment.passes_used),
                    moves_total=int(sum(assignment.moves_per_pass)),
                    capped_users=int(np.sum(state.capped)),
                    cycle_period=assignment.cycle_period,
                )
            )
    return runs


# ---- campaign ---------------------------------------------------------------


def run_campaign(scenario: Scenario) -> tuple[SinrReport, list[SinrRun]]:
    """Run all drops, aggregate, and write outputs when output_dir is set.

    Returns the report and its runs. The runs are assembled in drop-index
    order, so they do not depend on the number of workers or their
    completion order. An output_dir that cannot be made a directory fails
    before the first drop runs.
    """
    scenario.validate()
    if scenario.output_dir is not None:
        _check_output_dir(scenario.output_dir)
    indices = list(range(scenario.drops))
    runs: list[SinrRun] = []
    failures: list[str] = []
    if scenario.workers > 1:
        # imported here: multiprocessing adds about 1 MB to every process
        # that imports hetsim, and a single-worker run never needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=scenario.workers) as pool:
            futures = [pool.submit(run_drop, scenario, i) for i in indices]
            for fut in futures:
                try:
                    runs.extend(fut.result())
                except DropError as exc:
                    failures.append(str(exc))
    else:
        for i in indices:
            try:
                runs.extend(run_drop(scenario, i))
            except DropError as exc:
                failures.append(str(exc))
    if failures:
        raise CampaignError(failures)

    report = SinrReport(runs=runs)
    if scenario.output_dir is not None:
        write_outputs(scenario, report)
    return report, report.runs


def _check_output_dir(path: str) -> None:
    """Raise a ConfigError unless path is, or can be made, a writable directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing) or not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"output_dir {path}: {existing} is not a writable directory")


def write_outputs(scenario: Scenario, report: SinrReport):
    outdir = scenario.output_dir
    os.makedirs(outdir, exist_ok=True)
    table = report.percentile_table()

    with open(os.path.join(outdir, "samples.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("drop,user,strategy,alpha,serving_cell,tier,sinr_db\n")
        fh.writelines(_samples_csv(report.runs))

    with open(os.path.join(outdir, "percentiles.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("strategy,alpha,p5_db,p50_db,p90_db,n\n")
        for row in table:
            fh.write(
                f"{row['strategy']},{row['alpha']:g},{row['p5_db']:.6f},"
                f"{row['p50_db']:.6f},{row['p90_db']:.6f},{row['n']}\n"
            )

    with open(os.path.join(outdir, "cdf.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("strategy,alpha,sinr_db,fraction\n")
        fh.writelines(_cdf_csv(metrics_mod.export_cdf(report)))

    with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_summary_text(scenario, table, report.runs))

    with open(os.path.join(outdir, "scenario.resolved.cfg"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(scenario_to_ini(scenario))


def _samples_csv(runs: list[SinrRun]) -> Iterator[str]:
    """samples.csv rows, one string per run, formatted by one template per run.

    The template repeats the run's row, with the user, its cell and tier,
    and its SINR as conversions, once per user; '%.6f' formats as '{:.6f}'.
    """
    user_ids: list[str] = []
    for run in runs:
        n = len(run.sinr_db)
        user_ids.extend(str(u) for u in range(len(user_ids), n))
        row = f"{run.drop},%s,{run.strategy.replace('%', '%%')},{run.alpha:g},%s%.6f\n"
        cells = [f"{c},{tier}," for c, tier in enumerate(run.cell_tier.tolist())]
        values: list = [None] * (3 * n)
        values[0::3] = user_ids[:n]
        values[1::3] = [cells[c] for c in run.serving_cell.tolist()]
        values[2::3] = run.sinr_db.tolist()
        yield row * n % tuple(values)


def _cdf_csv(curves: list[tuple[str, float, np.ndarray, np.ndarray]]) -> Iterator[str]:
    """cdf.csv rows, one string per (strategy, alpha) curve, formatted by one template per curve."""
    fractions: dict[int, list[str]] = {}  # curves of one length share their fraction column
    for strategy, alpha, sinr_db, fraction in curves:
        n = len(sinr_db)
        if n not in fractions:
            fractions[n] = [f",{f:.8f}\n" for f in fraction.tolist()]
        values: list = [None] * (2 * n)
        values[0::2] = sinr_db.tolist()
        values[1::2] = fractions[n]
        yield f"{strategy.replace('%', '%%')},{alpha:g},%.6f%s" * n % tuple(values)


def percentile_line(row: dict) -> str:
    """One percentile-table row as the CLI prints it and summary.txt lists it."""
    return (
        f"{row['strategy']} alpha={row['alpha']:g} "
        f"p5={row['p5_db']:.2f} p50={row['p50_db']:.2f} p90={row['p90_db']:.2f} n={row['n']}"
    )


def _summary_text(scenario: Scenario, table: list[dict], runs: list[SinrRun]) -> str:
    lines = [
        f"drops={scenario.drops} master_seed={scenario.master_seed} "
        f"picos_per_sector={scenario.picos_per_sector} users_per_sector={scenario.users_per_sector}",
        "",
        "strategy alpha macro_attached pico_attached converged_rate mean_passes capped_users",
    ]
    groups: dict[tuple[str, float], list[SinrRun]] = {}
    on_macro: dict[int, np.ndarray] = {}  # per drop, whether each cell is a macro: its runs share the tiers
    for run in runs:
        groups.setdefault((run.strategy, run.alpha), []).append(run)
        if run.drop not in on_macro:
            on_macro[run.drop] = run.cell_tier == MACRO
    for (strategy, alpha), items in groups.items():
        macro_counts = [np.count_nonzero(on_macro[run.drop][run.serving_cell]) for run in items]
        macro = np.mean(macro_counts)
        # every cell is a macro or a pico
        pico = np.mean([len(run.serving_cell) - n for run, n in zip(items, macro_counts)])
        conv = np.mean([1.0 if run.converged else 0.0 for run in items])
        passes = np.mean([run.passes_used for run in items])
        capped = np.mean([run.capped_users for run in items])
        lines.append(
            f"{strategy} {alpha:g} {macro:.1f} {pico:.1f} {conv:.2f} {passes:.2f} {capped:.1f}"
        )
    lines.append("")
    lines.append("passes histogram (interference strategy):")
    hist: dict[int, int] = {}
    for run in runs:
        if run.strategy == "interference":
            hist[run.passes_used] = hist.get(run.passes_used, 0) + 1
    for passes in sorted(hist):
        lines.append(f"  passes={passes}: {hist[passes]}")
    lines.append("")
    lines.append("percentiles (dB):")
    lines.extend(f"  {percentile_line(row)}" for row in table)
    return "\n".join(lines) + "\n"


# ---- small-instance oracle suite --------------------------------------------


def random_small_gains(rng: np.random.Generator, n_cells: int, n_users: int) -> GainMatrix:
    """Synthetic gain matrix for oracle-sized instances (cell 0 is macro)."""
    g = rng.uniform(-130.0, -80.0, size=(n_cells, n_users))
    macro = np.ones(n_cells, dtype=bool)
    macro[1:] = rng.uniform(size=n_cells - 1) < 0.5
    tier = np.where(macro, MACRO, PICO)
    rs = np.where(macro, RadioParams.macro_rs_power_dbm, RadioParams.pico_rs_power_dbm)
    return GainMatrix(g=g, cell_tier=tier, rs_power_dbm=rs)


def oracle_instances(count: int, seed: int = 0):
    """The oracle suite's seeded random instances, in order: (gains, power_cfg).

    Each has 2 or 3 cells, 3 to 5 users and a standard alpha.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_cells = int(rng.integers(2, 4))
        n_users = int(rng.integers(3, 6))
        gains = random_small_gains(rng, n_cells, n_users)
        alpha = (0.4, 0.6, 0.8, 1.0)[rng.integers(0, 4)]
        yield gains, PowerConfig(p0_dbm=-90.0, alpha=alpha)


@dataclass
class OracleSuiteResult:
    instances: int
    converged: int
    containment_failures: int
    non_converged_instances: list[int]


def run_oracle_suite(instances: int = 200, seed: int = 0) -> OracleSuiteResult:
    """Best-response search vs. exhaustive stability on oracle_instances.

    Single-block scheduling (the data band is one user's block) maximizes
    coupling. Containment: every converged run must end in the
    brute-force stable set. Non-convergence is counted, not failed here.
    """
    noise_mw = NoiseModel().per_rb_noise_mw
    strategy = StrategyConfig(kind="interference")
    converged = 0
    failures = 0
    non_converged: list[int] = []
    for i, (gains, power_cfg) in enumerate(oracle_instances(instances, seed)):
        total_rbs = power_cfg.rbs_per_user
        result = select_interference_based(gains, power_cfg, noise_mw, strategy, total_rbs)
        if not result.converged:
            non_converged.append(i)
            continue
        converged += 1
        oracle = brute_force_oracle(gains, power_cfg, noise_mw, total_rbs)
        if tuple(result.c) not in oracle.stable:
            failures += 1
    return OracleSuiteResult(
        instances=instances,
        converged=converged,
        containment_failures=failures,
        non_converged_instances=non_converged,
    )
