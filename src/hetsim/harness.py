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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from hetsim import metrics as metrics_mod
from hetsim.cell_selection import (
    Assignment,
    NetworkState,
    StrategyConfig,
    brute_force_oracle,
    select_cre,
    select_interference_based,
    select_pl,
    select_rsrp,
)
from hetsim.metrics import NoiseModel, SinrReport, SinrSample
from hetsim.metrics import wideband_sinr  # noqa: F401 - kept bound here, hetbench traces harness.wideband_sinr
from hetsim.radio import MACRO, PICO, GainMatrix, RadioParams, compute_gain_matrix
from hetsim.topology import PlacementError, build_layout, place_picos, place_users
from hetsim.uplink_power import PowerConfig


class ConfigError(ValueError):
    """Bad scenario configuration (unknown key, missing file, bad value)."""


@dataclass(frozen=True)
class Scenario:
    # layout
    isd_m: float = 500.0
    sites: int = 19
    picos_per_sector: int = 2
    users_per_sector: int = 12
    # radio (Table-style constants)
    macro_pl_const_db: float = 128.1
    macro_pl_slope: float = 37.6
    pico_pl_const_db: float = 140.7
    pico_pl_slope: float = 36.7
    macro_shadow_sigma_db: float = 8.0
    pico_shadow_sigma_db: float = 10.0
    antenna_max_atten_db: float = 20.0
    antenna_theta3db_deg: float = 70.0
    macro_rx_gain_db: float = 15.0
    pico_rx_gain_db: float = 5.0
    penetration_loss_db: float = 20.0
    macro_rs_power_dbm: float = 46.0
    pico_rs_power_dbm: float = 30.0
    min_pico_to_macro_m: float = 75.0
    min_pico_to_pico_m: float = 35.0
    pico_coverage_radius_m: float = 50.0
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 5.0
    total_bandwidth_mhz: float = 10.0
    # power control: one P0 for every alpha, or one P0 per entry of alphas
    p0_dbm: float | tuple[float, ...] = -90.0
    max_ue_power_dbm: float = 23.0
    rbs_per_user: int = 4
    total_data_rbs: int = 48
    alphas: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0)
    # selection
    strategies: tuple[str, ...] = ("rsrp", "pl", "cre", "interference")
    cre_bias_db: float = 6.0
    max_passes: int = 20
    # campaign
    drops: int = 20
    master_seed: int = 1
    output_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        # a one-element P0 list is one value; a longer list is held as a tuple
        if isinstance(self.p0_dbm, (list, tuple)):
            p0 = tuple(self.p0_dbm)
            object.__setattr__(self, "p0_dbm", p0[0] if len(p0) == 1 else p0)

    def validate(self) -> "Scenario":
        if self.sites != 19:
            raise ConfigError("layout is fixed at 19 sites")
        if self.isd_m <= 0:
            raise ConfigError("isd_m must be positive")
        if self.picos_per_sector < 0:
            raise ConfigError("picos_per_sector must be >= 0")
        if self.users_per_sector < self.picos_per_sector:
            raise ConfigError("users_per_sector must be >= picos_per_sector (seed users)")
        if self.drops < 1:
            raise ConfigError("drops must be >= 1")
        if self.rbs_per_user < 1 or self.total_data_rbs % self.rbs_per_user != 0:
            raise ConfigError("total_data_rbs must be a positive multiple of rbs_per_user")
        if self.total_data_rbs * 0.18 > self.total_bandwidth_mhz + 1e-9:
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
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        labels = [_parse_strategy_token(token, self).label for token in self.strategies]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"strategies repeat a label: {', '.join(labels)}")
        return self

    # ---- derived objects -------------------------------------------------

    def radio_params(self) -> RadioParams:
        return RadioParams(
            macro_pl_const_db=self.macro_pl_const_db,
            macro_pl_slope=self.macro_pl_slope,
            pico_pl_const_db=self.pico_pl_const_db,
            pico_pl_slope=self.pico_pl_slope,
            macro_shadow_sigma_db=self.macro_shadow_sigma_db,
            pico_shadow_sigma_db=self.pico_shadow_sigma_db,
            antenna_max_atten_db=self.antenna_max_atten_db,
            antenna_theta3db_deg=self.antenna_theta3db_deg,
            macro_rx_gain_db=self.macro_rx_gain_db,
            pico_rx_gain_db=self.pico_rx_gain_db,
            penetration_loss_db=self.penetration_loss_db,
            macro_rs_power_dbm=self.macro_rs_power_dbm,
            pico_rs_power_dbm=self.pico_rs_power_dbm,
        )

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
    if kind not in ("rsrp", "pl", "cre", "interference"):
        raise ConfigError(f"unknown strategy {token!r}")
    bias = scenario.cre_bias_db if kind == "cre" else 0.0
    if arg:
        if kind != "cre":
            raise ConfigError(f"only cre takes a bias argument, got {token!r}")
        try:
            bias = float(arg)
        except ValueError as exc:
            raise ConfigError(f"bad cre bias in {token!r}") from exc
    return StrategyConfig(kind=kind, cre_bias_db=bias, max_passes=scenario.max_passes)


# ---- config file (INI) ----------------------------------------------------

_SCHEMA: dict[str, dict[str, tuple[str, type]]] = {
    "layout": {
        "isd_m": ("isd_m", float),
        "sites": ("sites", int),
        "picos_per_sector": ("picos_per_sector", int),
        "users_per_sector": ("users_per_sector", int),
    },
    "radio": {
        "macro_pl_const_db": ("macro_pl_const_db", float),
        "macro_pl_slope": ("macro_pl_slope", float),
        "pico_pl_const_db": ("pico_pl_const_db", float),
        "pico_pl_slope": ("pico_pl_slope", float),
        "macro_shadow_sigma_db": ("macro_shadow_sigma_db", float),
        "pico_shadow_sigma_db": ("pico_shadow_sigma_db", float),
        "antenna_max_atten_db": ("antenna_max_atten_db", float),
        "antenna_theta3db_deg": ("antenna_theta3db_deg", float),
        "macro_rx_gain_db": ("macro_rx_gain_db", float),
        "pico_rx_gain_db": ("pico_rx_gain_db", float),
        "penetration_loss_db": ("penetration_loss_db", float),
        "macro_rs_power_dbm": ("macro_rs_power_dbm", float),
        "pico_rs_power_dbm": ("pico_rs_power_dbm", float),
        "min_pico_to_macro_m": ("min_pico_to_macro_m", float),
        "min_pico_to_pico_m": ("min_pico_to_pico_m", float),
        "pico_coverage_radius_m": ("pico_coverage_radius_m", float),
        "noise_psd_dbm_hz": ("noise_psd_dbm_hz", float),
        "noise_figure_db": ("noise_figure_db", float),
        "total_bandwidth_mhz": ("total_bandwidth_mhz", float),
    },
    "power": {
        "p0_dbm": ("p0_dbm", "float_list"),
        "max_ue_power_dbm": ("max_ue_power_dbm", float),
        "rbs_per_user": ("rbs_per_user", int),
        "total_data_rbs": ("total_data_rbs", int),
        "alphas": ("alphas", "float_list"),
    },
    "selection": {
        "strategies": ("strategies", "str_list"),
        "cre_bias_db": ("cre_bias_db", float),
        "max_passes": ("max_passes", int),
    },
    "run": {
        "drops": ("drops", int),
        "master_seed": ("master_seed", int),
        "output_dir": ("output_dir", str),
        "workers": ("workers", int),
    },
}


def _convert(raw: str, kind):
    if kind == "float_list":
        return tuple(float(x) for x in raw.split(","))
    if kind == "str_list":
        return tuple(x.strip() for x in raw.split(",") if x.strip())
    return kind(raw)


def load_scenario(path: str, overrides: dict | None = None) -> Scenario:
    """Parse an INI scenario file; unknown sections or keys are errors."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            attr, kind = _SCHEMA[section][key]
            try:
                values[attr] = _convert(raw, kind)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc

    scenario = replace(Scenario(), **values)
    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario.validate()


def _format_value(value) -> str:
    """Short form of a value that reads back equal: '%g', else the full repr."""
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    return str(value)


def scenario_to_ini(scenario: Scenario) -> str:
    """Render the fully resolved scenario back to INI text."""
    parser = configparser.ConfigParser()
    for section, keys in _SCHEMA.items():
        parser.add_section(section)
        for key, (attr, kind) in keys.items():
            value = getattr(scenario, attr)
            if value is None:
                continue
            if isinstance(value, (list, tuple)):
                value = ", ".join(_format_value(v) for v in value)
            else:
                value = _format_value(value)
            parser.set(section, key, str(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# ---- drop execution --------------------------------------------------------


@dataclass
class StrategySummary:
    drop: int
    strategy: str
    alpha: float
    macro_attached: int
    pico_attached: int
    converged: bool
    passes_used: int
    moves_total: int
    capped_users: int
    cycle_period: int | None  # passes per cycle of a search that cycled


@dataclass
class DropResult:
    drop_index: int
    samples: list[SinrSample]
    summaries: list[StrategySummary]


def _all_user_sinr_db(state: NetworkState) -> np.ndarray:
    """Wideband SINR (dB) of every user, one small product per scheduled block.

    Within one (subframe, block) group the mutual interference matrix is
    a single small product. Each user's per-RB SINR is flat across its
    RBs, and the MMSE combiner returns a constant row exactly, so the
    wideband value is the per-RB one.
    """
    g_lin = state.gains.g_linear
    serving = state.serving
    p = state.per_rb_power_mw
    out = np.empty(len(serving))
    for _, members in state.alloc.blocks():
        rx = g_lin[np.ix_(serving[members], members)] * p[members][None, :]
        signal = np.diagonal(rx)
        gamma_rb = signal / (rx.sum(axis=1) - signal + state.noise_rb_mw)
        out[members] = [10.0 * math.log10(x) for x in gamma_rb.tolist()]
    return out


def _baseline_assignment(strategy: StrategyConfig, gains: GainMatrix) -> Assignment:
    if strategy.kind == "rsrp":
        return select_rsrp(gains, strategy.search_space)
    if strategy.kind == "pl":
        return select_pl(gains, strategy.search_space)
    if strategy.kind == "cre":
        return select_cre(gains, strategy)
    raise ValueError(f"not a baseline strategy: {strategy.kind}")


class DropError(RuntimeError):
    """A drop failed; carries the drop index for the campaign error log."""

    def __init__(self, drop_index: int, cause: Exception):
        super().__init__(f"drop {drop_index} failed: {cause}")
        self.drop_index = drop_index
        self.cause = cause


def run_drop(scenario: Scenario, drop_index: int) -> DropResult:
    """Simulate one drop: topology, gains, then every (strategy, alpha)."""
    rng = np.random.default_rng(np.random.SeedSequence(scenario.master_seed, spawn_key=(drop_index,)))
    layout = build_layout(scenario.isd_m)
    try:
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
    except (PlacementError, ValueError) as exc:
        raise DropError(drop_index, exc) from exc
    gains = compute_gain_matrix(layout, nodes, rng, scenario.radio_params())
    noise_mw = scenario.noise_model().per_rb_noise_mw

    strategies = scenario.strategy_configs()
    baselines = {
        s.label: _baseline_assignment(s, gains) for s in strategies if s.kind != "interference"
    }

    # one int per user, one str per tier and label, shared by the drop's samples
    users = list(range(gains.n_users))
    cell_tier = gains.cell_tier.tolist()
    samples: list[SinrSample] = []
    summaries: list[StrategySummary] = []
    for strategy in strategies:
        label = strategy.label
        for alpha in scenario.alphas:
            power_cfg = scenario.power_config(alpha)
            if strategy.kind == "interference":
                assignment = select_interference_based(
                    gains, power_cfg, noise_mw, strategy, scenario.total_data_rbs
                )
            else:
                assignment = baselines[label]
            state = NetworkState.build(
                gains, assignment.c, power_cfg, noise_mw, scenario.total_data_rbs
            )
            sinr_db = _all_user_sinr_db(state)
            tiers = gains.cell_tier[assignment.c]
            for u in users:
                samples.append(
                    SinrSample(
                        drop=drop_index,
                        user=u,
                        strategy=label,
                        alpha=alpha,
                        p0_dbm=power_cfg.p0_dbm,
                        serving_cell=int(assignment.c[u]),
                        tier=cell_tier[assignment.c[u]],
                        sinr_db=float(sinr_db[u]),
                    )
                )
            summaries.append(
                StrategySummary(
                    drop=drop_index,
                    strategy=label,
                    alpha=alpha,
                    macro_attached=int(np.sum(tiers == MACRO)),
                    pico_attached=int(np.sum(tiers == PICO)),
                    converged=bool(assignment.converged),
                    passes_used=int(assignment.passes_used),
                    moves_total=int(sum(assignment.moves_per_pass)),
                    capped_users=int(np.sum(state.capped)),
                    cycle_period=assignment.cycle_period,
                )
            )
    return DropResult(drop_index=drop_index, samples=samples, summaries=summaries)


# ---- campaign ---------------------------------------------------------------


def run_campaign(scenario: Scenario, workers: int | None = None) -> tuple[SinrReport, list[StrategySummary]]:
    """Run all drops, aggregate, and write outputs when output_dir is set.

    The aggregate is assembled in drop-index order, so it does not depend
    on the number of workers or their completion order.
    """
    scenario.validate()
    n_workers = scenario.workers if workers is None else workers
    indices = list(range(scenario.drops))
    results = []
    failures: list[str] = []
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(run_drop, scenario, i) for i in indices]
            for i, fut in zip(indices, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - collected into the error log
                    failures.append(f"drop {i}: {exc}")
    else:
        for i in indices:
            try:
                results.append(run_drop(scenario, i))
            except Exception as exc:  # noqa: BLE001
                failures.append(f"drop {i}: {exc}")
    if failures:
        raise RuntimeError("campaign aborted; failed drops:\n  " + "\n  ".join(failures))
    results.sort(key=lambda r: r.drop_index)

    samples: list[SinrSample] = []
    summaries: list[StrategySummary] = []
    for res in results:
        samples.extend(res.samples)
        summaries.extend(res.summaries)
    report = SinrReport(samples=samples)

    if scenario.output_dir is not None:
        write_outputs(scenario, report, summaries)
    return report, summaries


def write_outputs(scenario: Scenario, report: SinrReport, summaries: list[StrategySummary]):
    outdir = scenario.output_dir
    os.makedirs(outdir, exist_ok=True)
    table = report.percentile_table()

    with open(os.path.join(outdir, "samples.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("drop,user,strategy,alpha,serving_cell,tier,sinr_db\n")
        for s in report.samples:
            fh.write(
                f"{s.drop},{s.user},{s.strategy},{s.alpha:g},{s.serving_cell},{s.tier},{s.sinr_db:.6f}\n"
            )

    with open(os.path.join(outdir, "percentiles.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("strategy,alpha,p5_db,p50_db,p90_db,n\n")
        for row in table:
            fh.write(
                f"{row['strategy']},{row['alpha']:g},{row['p5_db']:.6f},"
                f"{row['p50_db']:.6f},{row['p90_db']:.6f},{row['n']}\n"
            )

    with open(os.path.join(outdir, "cdf.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("strategy,alpha,sinr_db,fraction\n")
        for strategy, alpha, sinr_db, fraction in metrics_mod.export_cdf(report):
            fh.write(f"{strategy},{alpha:g},{sinr_db:.6f},{fraction:.8f}\n")

    with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_summary_text(scenario, table, summaries))

    with open(os.path.join(outdir, "scenario.resolved.cfg"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(scenario_to_ini(scenario))


def _summary_text(scenario: Scenario, table: list[dict], summaries: list[StrategySummary]) -> str:
    lines = [
        f"drops={scenario.drops} master_seed={scenario.master_seed} "
        f"picos_per_sector={scenario.picos_per_sector} users_per_sector={scenario.users_per_sector}",
        "",
        "strategy alpha macro_attached pico_attached converged_rate mean_passes capped_users",
    ]
    groups: dict[tuple[str, float], list[StrategySummary]] = {}
    for s in summaries:
        groups.setdefault((s.strategy, s.alpha), []).append(s)
    for (strategy, alpha), items in groups.items():
        macro = np.mean([s.macro_attached for s in items])
        pico = np.mean([s.pico_attached for s in items])
        conv = np.mean([1.0 if s.converged else 0.0 for s in items])
        passes = np.mean([s.passes_used for s in items])
        capped = np.mean([s.capped_users for s in items])
        lines.append(
            f"{strategy} {alpha:g} {macro:.1f} {pico:.1f} {conv:.2f} {passes:.2f} {capped:.1f}"
        )
    lines.append("")
    lines.append("passes histogram (interference strategy):")
    hist: dict[int, int] = {}
    for s in summaries:
        if s.strategy == "interference":
            hist[s.passes_used] = hist.get(s.passes_used, 0) + 1
    for passes in sorted(hist):
        lines.append(f"  passes={passes}: {hist[passes]}")
    lines.append("")
    lines.append("percentiles (dB):")
    for row in table:
        lines.append(
            f"  {row['strategy']} alpha={row['alpha']:g} "
            f"p5={row['p5_db']:.2f} p50={row['p50_db']:.2f} p90={row['p90_db']:.2f} n={row['n']}"
        )
    return "\n".join(lines) + "\n"


# ---- small-instance oracle suite --------------------------------------------


def random_small_gains(rng: np.random.Generator, n_cells: int, n_users: int) -> GainMatrix:
    """Synthetic gain matrix for oracle-sized instances (cell 0 is macro)."""
    g = rng.uniform(-130.0, -80.0, size=(n_cells, n_users))
    tier = np.array([MACRO] + [MACRO if rng.uniform() < 0.5 else PICO for _ in range(n_cells - 1)])
    rs = np.where(tier == MACRO, 46.0, 30.0)
    return GainMatrix(g=g, cell_tier=tier, rs_power_dbm=rs)


def oracle_instances(count: int, seed: int = 0, max_cells: int = 3, max_users: int = 5):
    """The oracle suite's seeded random instances, in order: (gains, power_cfg)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_cells = int(rng.integers(2, max_cells + 1))
        n_users = int(rng.integers(3, max_users + 1))
        gains = random_small_gains(rng, n_cells, n_users)
        alpha = float(rng.choice([0.4, 0.6, 0.8, 1.0]))
        yield gains, PowerConfig(p0_dbm=-90.0, alpha=alpha)


@dataclass
class OracleSuiteResult:
    instances: int
    converged: int
    containment_failures: int
    non_converged_instances: list[int]


def run_oracle_suite(
    instances: int = 200,
    seed: int = 0,
    max_cells: int = 3,
    max_users: int = 5,
    total_rbs: int = 4,
    max_passes: int = 20,
) -> OracleSuiteResult:
    """Best-response search vs. exhaustive stability on random instances.

    Single-block scheduling (total_rbs = one block) maximizes coupling.
    Containment: every converged run must end in the brute-force stable
    set. Non-convergence is counted, not failed here.
    """
    noise_mw = NoiseModel().per_rb_noise_mw
    strategy = StrategyConfig(kind="interference", max_passes=max_passes)
    converged = 0
    failures = 0
    non_converged: list[int] = []
    for i, (gains, power_cfg) in enumerate(oracle_instances(instances, seed, max_cells, max_users)):
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
