import math

import numpy as np
import pytest

from hetsim.cell_selection import NetworkState
from hetsim.metrics import (
    SUBCARRIERS_PER_RB,
    NoiseModel,
    SinrReport,
    SinrRun,
    export_cdf,
    percentiles,
    wideband_sinr,
)
from hetsim.radio import GainMatrix
from hetsim.uplink_power import PowerConfig, open_loop_power
from reference import per_rb_sinr, user_wideband_sinr_db

NOISE = NoiseModel()


def literal_combiner(values):
    """Direct textbook evaluation used as the independent oracle."""
    g = np.asarray(values, dtype=float)
    return 1.0 / (1.0 / np.mean(g / (g + 1.0)) - 1.0)


# ---- noise model ------------------------------------------------------------


def test_noise_constant():
    assert NOISE.per_rb_noise_dbm == pytest.approx(-116.45, abs=0.01)
    assert NOISE.per_rb_noise_mw == pytest.approx(10 ** (NOISE.per_rb_noise_dbm / 10), rel=1e-12)


# ---- wideband combiner ------------------------------------------------------


def test_wideband_two_point_example():
    # {1, 3}: mean of {0.5, 0.75} = 0.625 -> (1/0.625 - 1)^-1 = 5/3
    assert wideband_sinr([1.0, 3.0]) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_wideband_constant_fixed_point_exact():
    for gamma in (0.3, 1.0, 2.0, 7.7, 123.456):
        for n in (1, 3, 12, 48):
            assert wideband_sinr([gamma] * n) == gamma


def test_wideband_huge_entry_limit():
    # {1, 1e9}: ratios {0.5, ~1}, so the combined value approaches 3
    assert wideband_sinr([1.0, 1e9]) == pytest.approx(3.0, rel=1e-6)


def test_wideband_matches_literal_formula():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 96))
        g = 10 ** rng.uniform(-3.0, 3.0, size=n)
        assert wideband_sinr(g) == pytest.approx(literal_combiner(g), rel=1e-12)


def test_wideband_bounded_by_inputs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = 10 ** rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 30)))
        v = wideband_sinr(g)
        assert g.min() <= v <= g.max()


def test_wideband_monotone():
    rng = np.random.default_rng(2)
    g = 10 ** rng.uniform(-2.0, 2.0, size=12)
    base = wideband_sinr(g)
    for i in range(12):
        bumped = g.copy()
        bumped[i] *= 1.5
        assert wideband_sinr(bumped) >= base


def test_wideband_domain_errors():
    with pytest.raises(ValueError):
        wideband_sinr([])
    with pytest.raises(ValueError):
        wideband_sinr([1.0, 0.0])
    with pytest.raises(ValueError):
        wideband_sinr([1.0, -2.0])
    with pytest.raises(ValueError):
        wideband_sinr([1.0, float("inf")])
    with pytest.raises(ValueError, match="one vector"):
        wideband_sinr(np.array([[1.0, 2.0], [3.0, 4.0]]))


# ---- per-RB SINR ------------------------------------------------------------


def _lone_user_state(g_db=-133.1, per_rb_dbm=-10.0, alpha=0.8):
    gains = GainMatrix(
        g=np.array([[g_db]]), cell_tier=np.array(["macro"]), rs_power_dbm=np.array([46.0])
    )
    # pick P0 so the open-loop law lands exactly on the wanted per-RB power
    p0 = per_rb_dbm - alpha * (-g_db)
    state = NetworkState.build(
        gains, np.array([0]), PowerConfig(p0, alpha), NOISE.per_rb_noise_mw
    )
    assert open_loop_power(PowerConfig(p0, alpha), -g_db).per_rb_dbm == pytest.approx(per_rb_dbm, abs=1e-9)
    return state


def test_per_rb_sinr_noise_only_hand_value():
    state = _lone_user_state()
    sinr_db = 10 * math.log10(per_rb_sinr(0, 0, state))
    # -10 dBm - 133.1 dB - (-116.45 dBm)
    assert sinr_db == pytest.approx(-26.65, abs=0.01)


def test_per_rb_sinr_scales_with_noise():
    state = _lone_user_state()
    base = per_rb_sinr(0, 0, state)
    state.noise_rb_mw *= 2.0
    assert 10 * math.log10(base / per_rb_sinr(0, 0, state)) == pytest.approx(3.01, abs=0.005)


def test_per_rb_sinr_one_interferer_at_noise_level():
    # interferer received exactly at the noise floor halves the SINR
    g = np.array([[-95.0, -100.0], [-130.0, -90.0]])
    gains = GainMatrix(
        g=g, cell_tier=np.array(["macro", "pico"]), rs_power_dbm=np.array([46.0, 30.0])
    )
    # user 1 (PL 90 to its pico) lands on the victim cell at the noise floor
    p0 = NOISE.per_rb_noise_dbm + 100.0 - 0.8 * 90.0
    state = NetworkState.build(
        gains, np.array([0, 1]), PowerConfig(p0, 0.8), NOISE.per_rb_noise_mw, total_rbs=4
    )
    assert not state.capped.any()
    served = open_loop_power(PowerConfig(p0, 0.8), -g[[0, 1], [0, 1]])
    received_dbm = served.per_rb_dbm[1] + g[0, 1]
    assert received_dbm == pytest.approx(NOISE.per_rb_noise_dbm, abs=1e-9)
    solo = _lone_user_state(g_db=-95.0, per_rb_dbm=float(served.per_rb_dbm[0]))
    with_interf = per_rb_sinr(0, 0, state)
    alone = per_rb_sinr(0, 0, solo)
    assert 10 * math.log10(alone / with_interf) == pytest.approx(3.01, abs=0.005)


def test_per_rb_sinr_unscheduled_rb_error():
    state = _lone_user_state()
    with pytest.raises(ValueError):
        per_rb_sinr(0, 47, state)  # lone user id 0 sits on block [0-3]


def test_user_wideband_flat_blocks():
    # flat gains across a user's block: wideband equals the per-RB value
    state = _lone_user_state()
    per_rb_db = 10 * math.log10(per_rb_sinr(0, 0, state))
    assert user_wideband_sinr_db(0, state) == pytest.approx(per_rb_db, rel=1e-12)


# ---- percentiles ------------------------------------------------------------


def test_percentiles_uniform_grid():
    got = percentiles(list(range(1, 101)))
    assert got == {5: 5.0, 50: 50.0, 90: 90.0}


def test_percentiles_singleton():
    assert percentiles([7.0]) == {5: 7.0, 50: 7.0, 90: 7.0}


def test_percentiles_nearest_rank_small():
    assert percentiles([3.0, 1.0, 2.0])[50] == 2.0


def test_percentiles_ordering():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.normal(size=int(rng.integers(1, 200)))
        p = percentiles(vals)
        assert p[5] <= p[50] <= p[90]


def test_percentiles_empty_error():
    with pytest.raises(ValueError):
        percentiles([])


# ---- report and CDF export --------------------------------------------------


def sample(strategy, alpha, sinr):
    """One sample as a one-user run."""
    return SinrRun(0, strategy, alpha, -90.0, np.array([0]), np.array([sinr]), np.array(["macro"]))


def cdf_rows(report):
    """export_cdf's curves as (strategy, alpha, sinr_db, fraction) rows."""
    return [
        (strategy, alpha, v, f)
        for strategy, alpha, values, fractions in export_cdf(report)
        for v, f in zip(values.tolist(), fractions.tolist())
    ]


def test_export_cdf_rank_rule():
    report = SinrReport(runs=[sample("rsrp", 0.8, 1.0), sample("rsrp", 0.8, -1.0)])
    rows = cdf_rows(report)
    assert rows == [("rsrp", 0.8, -1.0, 0.5), ("rsrp", 0.8, 1.0, 1.0)]


def test_export_cdf_empty():
    assert cdf_rows(SinrReport(runs=[])) == []


def test_export_cdf_ties():
    report = SinrReport(runs=[sample("pl", 1.0, 2.5), sample("pl", 1.0, 2.5)])
    rows = cdf_rows(report)
    assert [r[3] for r in rows] == [0.5, 1.0]
    assert rows[0][2] == rows[1][2] == 2.5


def test_export_cdf_fractions_are_rank_over_n():
    rng = np.random.default_rng(4)
    for n in (1, 3, 7, 49, 1000, 13680):
        run = SinrRun(0, "rsrp", 0.8, -90.0, np.zeros(n, dtype=int), rng.normal(size=n), np.array(["macro"]))
        [(strategy, alpha, values, fractions)] = export_cdf(SinrReport(runs=[run]))
        assert (strategy, alpha) == ("rsrp", 0.8)
        assert values.tolist() == sorted(run.sinr_db.tolist())
        assert fractions.tolist() == [i / n for i in range(1, n + 1)]


def test_percentile_table_groups_in_order():
    samples = [sample("rsrp", 0.8, float(i)) for i in range(10)]
    samples += [sample("pl", 0.8, float(-i)) for i in range(10)]
    report = SinrReport(runs=samples)
    table = report.percentile_table()
    assert [row["strategy"] for row in table] == ["rsrp", "pl"]
    assert table[0]["n"] == 10
    assert table[0]["p5_db"] == 0.0
    assert table[1]["p90_db"] == -1.0


def test_grouping_interleaved_samples_matches_per_group_scan():
    # one bucketing pass gives each group's values in sample order and the
    # groups in first-appearance order, as a scan per group would
    rng = np.random.default_rng(8)
    keys = [("rsrp", 0.4), ("interference", 1.0), ("rsrp", 1.0), ("pl", 0.4)]
    samples = [sample(*keys[k], float(v)) for k, v in zip(rng.integers(0, 4, size=200), rng.normal(size=200))]
    report = SinrReport(runs=samples)
    order = list(dict.fromkeys((s.strategy, s.alpha) for s in samples))
    grouped = report.grouped()
    assert list(grouped) == order
    for strategy, alpha in order:
        scan = [s.sinr_db[0] for s in samples if s.strategy == strategy and s.alpha == alpha]
        assert grouped[(strategy, alpha)].tolist() == scan
    assert [(r["strategy"], r["alpha"]) for r in report.percentile_table()] == order
    assert [r[:2] for r in cdf_rows(report)] == [
        key for key in order for _ in grouped[key]
    ]
