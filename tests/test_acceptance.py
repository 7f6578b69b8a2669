"""Acceptance suite.

Every numbered criterion runs at its stated tolerance and prints one
PASS/FAIL line (visible with pytest -s). The scaled reproductions
(criteria 9-13) run two seeded 20-drop campaigns shared across tests;
the whole module takes a couple of minutes on one core.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from hetsim.cell_selection import (
    NetworkState,
    StrategyConfig,
    select_cre,
    select_interference_based,
    select_pl,
    select_rsrp,
)
from hetsim.harness import Scenario, run_campaign, run_drop, run_oracle_suite
from hetsim.metrics import NoiseModel, percentiles, wideband_sinr
from hetsim.radio import PICO, compute_gain_matrix, path_loss_db
from hetsim.topology import build_layout, place_picos, place_users
from reference import cochannel_interferers, rb_range, user_blocks

NOISE = NoiseModel()
ALPHAS = (0.4, 0.6, 0.8, 1.0)
P0_FULL_DBM = -90.0


def p0_common_crossing(alpha):
    """P0 at which the open-loop line of alpha reaches Pmax at the same
    coupling loss as the full-compensation line with P0 = P0_FULL_DBM
    (Castellanos et al., "Performance of Uplink Fractional Power Control in
    UTRAN LTE", VTC-Spring 2008):

        P0(alpha) = alpha*P0_full + (1 - alpha)*(Pmax - 10 log10 M)

    P0_full is the per-RB received target at alpha = 1, so alpha = 1 keeps it.
    """
    base = Scenario()
    bw_db = 10.0 * math.log10(base.rbs_per_user)
    return alpha * P0_FULL_DBM + (1.0 - alpha) * (base.max_ue_power_dbm - bw_db)


# the acceptance operating points: (0.4, -25.81), (0.6, -47.21),
# (0.8, -68.60), (1.0, -90.00) dBm
SCENARIO_2PICO = replace(
    Scenario(),
    picos_per_sector=2,
    users_per_sector=12,
    drops=20,
    alphas=ALPHAS,
    p0_dbm=tuple(p0_common_crossing(a) for a in ALPHAS),
    strategies=("rsrp", "pl", "cre", "interference"),
    cre_bias_db=6.0,
    master_seed=1,
)
SCENARIO_6PICO = replace(
    Scenario(),
    picos_per_sector=6,
    users_per_sector=12,
    drops=20,
    alphas=(0.8,),
    p0_dbm=p0_common_crossing(0.8),
    strategies=("rsrp", "interference"),
    master_seed=1,
)


def report(num, name, ok, detail=""):
    print(f"CRITERION {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def pct(campaign_report, strategy, alpha):
    for row in campaign_report.percentile_table():
        if row["strategy"] == strategy and row["alpha"] == alpha:
            return row
    raise KeyError((strategy, alpha))


def interference_runs(campaign, alpha):
    """One detail line: how many interference runs at alpha converged, and
    their percentiles next to those over all drops."""
    rep, runs = campaign
    runs = [r for r in runs if r.strategy == "interference" and r.alpha == alpha]
    converged = [r.sinr_db for r in runs if r.converged]
    text = f"interference a={alpha:g} converged {len(converged)}/{len(runs)} runs"
    if not converged:
        return text
    conv = percentiles(np.concatenate(converged))
    every = pct(rep, "interference", alpha)
    return (
        f"{text}, p5/p50/p90 converged-only {conv[5]:+.2f}/{conv[50]:+.2f}/{conv[90]:+.2f} "
        f"vs all {every['p5_db']:+.2f}/{every['p50_db']:+.2f}/{every['p90_db']:+.2f} dB"
    )


# ---- shared fixtures ---------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_2pico():
    return run_campaign(SCENARIO_2PICO)


@pytest.fixture(scope="module")
def campaign_6pico():
    return run_campaign(SCENARIO_6PICO)


@pytest.fixture(scope="module")
def baseline_drops():
    """Ten seeded drops: gain matrices for assignment-level criteria."""
    out = []
    for drop in range(10):
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(drop,)))
        layout = build_layout(500.0)
        picos, psec = place_picos(layout, 2, rng)
        nodes = place_users(layout, picos, psec, 12, rng)
        out.append(compute_gain_matrix(layout, nodes, rng))
    return out


@pytest.fixture(scope="module")
def drop_states():
    """Three full drops with states for every strategy at the 2-pico
    campaign's operating points."""
    states = []
    for drop in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(drop,)))
        layout = build_layout(500.0)
        picos, psec = place_picos(layout, 2, rng)
        nodes = place_users(layout, picos, psec, 12, rng)
        gains = compute_gain_matrix(layout, nodes, rng)
        per_drop = {}
        for alpha in ALPHAS:
            power = SCENARIO_2PICO.power_config(alpha)
            assignments = {
                "rsrp": select_rsrp(gains),
                "pl": select_pl(gains),
                "cre6": select_cre(gains, StrategyConfig(kind="cre", cre_bias_db=6.0)),
                "interference": select_interference_based(
                    gains, power, NOISE.per_rb_noise_mw, StrategyConfig(kind="interference")
                ),
            }
            for label, assignment in assignments.items():
                per_drop[(label, alpha)] = NetworkState.build(
                    gains, assignment.c, power, NOISE.per_rb_noise_mw
                )
        states.append(per_drop)
    return states


# ---- property suites ---------------------------------------------------------


def test_criterion_01_formula_units():
    macro = path_loss_db("macro", 1000.0)
    pico = path_loss_db("pico", 1000.0)
    noise = NOISE.per_rb_noise_dbm
    ok = (
        abs(macro - 128.1) <= 1e-9
        and abs(pico - 140.7) <= 1e-9
        and abs(noise - (-116.45)) <= 0.01
    )
    assert report(
        1, "formula units", ok,
        f"PL(macro,1km)={macro:.10f} PL(pico,1km)={pico:.10f} noise/RB={noise:.4f} dBm",
    )


def test_criterion_02_wideband_combiner_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 96))
        g = 10 ** rng.uniform(-3.0, 3.0, size=n)
        mine = wideband_sinr(g)
        direct = 1.0 / (1.0 / np.mean(g / (g + 1.0)) - 1.0)
        rel = abs(mine - direct) / direct
        worst = max(worst, rel)
        ok &= rel < 1e-12
        ok &= g.min() <= mine <= g.max()
    for gamma in (0.25, 1.0, 3.5, 50.0, 1234.5):
        for n in (1, 2, 3, 12, 48):
            ok &= wideband_sinr([gamma] * n) == gamma
    assert report(2, "wideband SINR combiner", ok, f"worst relative error {worst:.2e}")


def test_criterion_03_cre_zero_equivalence(baseline_drops):
    ok = True
    for gains in baseline_drops:
        rsrp = select_rsrp(gains).c
        cre0 = select_cre(gains, StrategyConfig(kind="cre", cre_bias_db=0.0)).c
        ok &= bool(np.array_equal(rsrp, cre0))
    assert report(3, "CRE(0) equals RSRP", ok, f"{len(baseline_drops)} drops, per-user equality")


def test_criterion_04_tier_coverage_ordering(baseline_drops):
    ok = True
    for gains in baseline_drops:
        pico_rsrp = set(np.flatnonzero(gains.cell_tier[select_rsrp(gains).c] == PICO).tolist())
        pico_pl = set(np.flatnonzero(gains.cell_tier[select_pl(gains).c] == PICO).tolist())
        ok &= pico_rsrp <= pico_pl
        previous = None
        for bias in (0.0, 3.0, 6.0, 9.0, 12.0):
            assign = select_cre(gains, StrategyConfig(kind="cre", cre_bias_db=bias))
            picos = set(np.flatnonzero(gains.cell_tier[assign.c] == PICO).tolist())
            if previous is not None:
                ok &= previous <= picos
            previous = picos
    assert report(
        4, "tier coverage ordering", ok,
        "RSRP pico set within PL pico set; CRE sets monotone over {0,3,6,9,12} dB",
    )


def test_criterion_05_power_cap(drop_states):
    worst = -np.inf
    for per_drop in drop_states:
        for state in per_drop.values():
            total_dbm = 10.0 * np.log10(state.per_rb_power_mw) + 10.0 * math.log10(state.power_cfg.rbs_per_user)
            worst = max(worst, float(total_dbm.max()))
    ok = worst <= 23.0 + 1e-12
    assert report(5, "23 dBm power cap", ok, f"max total transmit power {worst:.4f} dBm")


def test_criterion_06_stability_oracle():
    result = run_oracle_suite(instances=200, seed=0)
    rate = result.converged / result.instances
    ok = result.containment_failures == 0 and rate >= 0.95
    assert report(
        6, "stability vs brute force", ok,
        f"converged {result.converged}/200 ({rate:.1%}), containment failures "
        f"{result.containment_failures}, non-converged ids {result.non_converged_instances}",
    )


def test_criterion_07_orthogonality(drop_states):
    ok = True
    for per_drop in drop_states:
        for state in per_drop.values():
            subframe, serving = state.subframe, state.serving
            user_sf, rb_start = user_blocks(subframe, len(serving))
            seen = {}
            for u in range(len(serving)):
                for rb in rb_range(subframe, u):
                    key = (int(serving[u]), int(user_sf[u]), rb)
                    ok &= key not in seen
                    seen[key] = u
            for u in range(0, len(serving), 37):
                others = cochannel_interferers(subframe, serving, u, int(rb_start[u]))
                ok &= bool(np.all(serving[others] != serving[u])) and u not in others
    assert report(7, "intra-cell orthogonality", ok, "no RB overlap; interferer sets cross-cell only")


def test_criterion_08_determinism_across_workers(tmp_path):
    base = replace(
        Scenario(),
        picos_per_sector=1,
        users_per_sector=2,
        drops=2,
        alphas=(0.8,),
        strategies=("rsrp", "pl", "cre", "interference"),
        master_seed=77,
    )
    runs = {}
    for workers in (1, 2):
        outdir = tmp_path / f"w{workers}"
        run_campaign(replace(base, output_dir=str(outdir), workers=workers))
        runs[workers] = (outdir / "samples.csv").read_bytes()
    ok = runs[1] == runs[2]
    assert report(
        8, "byte-identical reruns", ok,
        f"samples.csv identical for 1 vs 2 workers ({len(runs[1])} bytes)",
    )


# ---- scaled experiment reproductions ------------------------------------------


def test_criterion_09_interference_vs_rsrp_2pico(campaign_2pico):
    rep, _ = campaign_2pico
    interf = pct(rep, "interference", 0.8)
    rsrp = pct(rep, "rsrp", 0.8)
    gap5 = interf["p5_db"] - rsrp["p5_db"]
    gap50 = interf["p50_db"] - rsrp["p50_db"]
    ok = gap5 >= 2.0 and gap50 >= 1.2
    assert report(
        9, "interference vs RSRP (2 picos, a=0.8)", ok,
        f"p5 gap {gap5:+.2f} dB (need >= 2.0), p50 gap {gap50:+.2f} dB (need >= 1.2); "
        + interference_runs(campaign_2pico, 0.8),
    )


def test_criterion_10_interference_vs_cre_pl_2pico(campaign_2pico):
    rep, _ = campaign_2pico
    interf = pct(rep, "interference", 0.8)
    cre = pct(rep, "cre6", 0.8)
    pl = pct(rep, "pl", 0.8)
    slack = 0.5
    checks = {
        "p5 vs cre6": interf["p5_db"] - (cre["p5_db"] - slack),
        "p50 vs cre6": interf["p50_db"] - (cre["p50_db"] - slack),
        "p5 vs pl": interf["p5_db"] - (pl["p5_db"] - slack),
        "p50 vs pl": interf["p50_db"] - (pl["p50_db"] - slack),
    }
    ok = all(v >= 0.0 for v in checks.values())
    detail = ", ".join(f"{k} margin {v:+.2f}" for k, v in checks.items())
    assert report(10, "interference vs CRE/PL (2 picos, a=0.8)", ok, detail)


def test_criterion_11_densification_gain(campaign_2pico, campaign_6pico):
    rep2, _ = campaign_2pico
    rep6, _ = campaign_6pico
    median2 = pct(rep2, "interference", 0.8)["p50_db"]
    median6 = pct(rep6, "interference", 0.8)["p50_db"]
    gain = median6 - median2
    ok = gain >= 3.0
    assert report(
        11, "6 vs 2 picos median gain", ok,
        f"median {median2:+.2f} -> {median6:+.2f} dB, gain {gain:+.2f} (need >= 3.0); "
        f"2 picos: {interference_runs(campaign_2pico, 0.8)}; "
        f"6 picos: {interference_runs(campaign_6pico, 0.8)}",
    )


def test_criterion_12_interference_vs_rsrp_6pico(campaign_6pico):
    rep, _ = campaign_6pico
    gap = pct(rep, "interference", 0.8)["p50_db"] - pct(rep, "rsrp", 0.8)["p50_db"]
    ok = gap >= 1.0
    assert report(
        12, "interference vs RSRP (6 picos, a=0.8)", ok,
        f"median gap {gap:+.2f} dB (need >= 1.0)",
    )


def test_criterion_13_alpha_fairness_direction(campaign_2pico):
    rep, _ = campaign_2pico
    p5_low = pct(rep, "interference", 0.4)["p5_db"]
    p5_full = pct(rep, "interference", 1.0)["p5_db"]
    p90_low = pct(rep, "interference", 0.4)["p90_db"]
    p90_full = pct(rep, "interference", 1.0)["p90_db"]
    leg_edge = p5_full > p5_low
    leg_center = p90_low > p90_full
    ok = leg_edge and leg_center
    rsrp = {a: pct(rep, "rsrp", a) for a in (0.4, 1.0)}
    assert report(
        13, "alpha sweep fairness direction", ok,
        f"p5: a=1 {p5_full:+.2f} vs a=0.4 {p5_low:+.2f} ({'ok' if leg_edge else 'violated'}, "
        f"margin {p5_full - p5_low:+.2f}); "
        f"p90: a=0.4 {p90_low:+.2f} vs a=1 {p90_full:+.2f} ({'ok' if leg_center else 'violated'}, "
        f"margin {p90_low - p90_full:+.2f}); "
        f"rsrp p5: a=1 {rsrp[1.0]['p5_db']:+.2f} vs a=0.4 {rsrp[0.4]['p5_db']:+.2f}, "
        f"p90: a=0.4 {rsrp[0.4]['p90_db']:+.2f} vs a=1 {rsrp[1.0]['p90_db']:+.2f}; "
        f"{interference_runs(campaign_2pico, 0.4)}; {interference_runs(campaign_2pico, 1.0)}",
    )
