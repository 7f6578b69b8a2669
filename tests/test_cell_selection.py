import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsim.cell_selection import (
    MOVE_REL_THRESHOLD,
    NetworkState,
    StrategyConfig,
    adaptive_bias,
    brute_force_oracle,
    interference_metric,
    select_cre,
    select_interference_based,
    select_pl,
    select_rsrp,
    _metric_vector,
)
from hetsim.metrics import NoiseModel
from hetsim.radio import GainMatrix
from hetsim.uplink_power import PowerConfig

NOISE_MW = NoiseModel().per_rb_noise_mw


def gm(g_rows, tiers):
    g = np.asarray(g_rows, dtype=float)
    tier = np.asarray(tiers)
    rs = np.where(tier == "macro", 46.0, 30.0)
    return GainMatrix(g=g, cell_tier=tier, rs_power_dbm=rs)


def random_gm(rng, n_cells, n_users):
    tiers = ["macro"] + [["macro", "pico"][int(rng.integers(0, 2))] for _ in range(n_cells - 1)]
    return gm(rng.uniform(-130.0, -80.0, size=(n_cells, n_users)), tiers)


# ---- baseline selections ----------------------------------------------------


def test_rsrp_prefers_pico_when_much_stronger():
    gains = gm([[-133.1], [-108.0]], ["macro", "pico"])
    assert select_rsrp(gains).c[0] == 1  # -78 dBm beats -87.1 dBm


def test_rsrp_power_gap_outweighs_10db_gain_edge():
    # pico gain only 10 dB better than macro: 16 dB reference power gap wins
    gains = gm([[-100.0], [-90.0]], ["macro", "pico"])
    assert select_rsrp(gains).c[0] == 0
    assert select_pl(gains).c[0] == 1  # but PL selection takes the gain


def test_selection_restricted_to_search_space():
    gains = gm([[-100.0], [-90.0], [-80.0]], ["macro", "pico", "pico"])
    assert select_rsrp(gains, search_space=(1,)).c[0] == 1
    assert select_pl(gains, search_space=(0, 1)).c[0] == 1


def test_pl_equals_rsrp_in_single_tier_network():
    rng = np.random.default_rng(0)
    gains = gm(rng.uniform(-130, -80, size=(4, 9)), ["macro"] * 4)
    assert np.array_equal(select_pl(gains).c, select_rsrp(gains).c)


def test_pl_beats_rsrp_example_pair():
    gains = gm([[-100.0, -110.0], [-90.0, -95.0]], ["macro", "pico"])
    rsrp = select_rsrp(gains).c
    pl = select_pl(gains).c
    assert rsrp[0] == 0 and pl[0] == 1


def test_cre_bias_flips_marginal_user():
    # macro RSRP -85, pico RSRP -90: 6 dB bias flips it, 3 dB does not
    gains = gm([[-131.0], [-120.0]], ["macro", "pico"])
    assert select_cre(gains, StrategyConfig(kind="cre", cre_bias_db=6.0)).c[0] == 1
    assert select_cre(gains, StrategyConfig(kind="cre", cre_bias_db=3.0)).c[0] == 0


def test_cre_zero_equals_rsrp():
    rng = np.random.default_rng(1)
    for _ in range(10):
        gains = random_gm(rng, 5, 12)
        cre = select_cre(gains, StrategyConfig(kind="cre", cre_bias_db=0.0))
        assert np.array_equal(cre.c, select_rsrp(gains).c)


def test_cre_monotone_in_bias():
    rng = np.random.default_rng(2)
    for _ in range(5):
        gains = random_gm(rng, 6, 15)
        previous = None
        for bias in (0.0, 3.0, 6.0, 9.0, 12.0):
            assign = select_cre(gains, StrategyConfig(kind="cre", cre_bias_db=bias))
            picos = set(np.flatnonzero(gains.cell_tier[assign.c] == "pico").tolist())
            if previous is not None:
                assert previous <= picos
            previous = picos


def test_tier_coverage_ordering():
    rng = np.random.default_rng(3)
    for _ in range(10):
        gains = random_gm(rng, 6, 15)
        pico_rsrp = set(np.flatnonzero(gains.cell_tier[select_rsrp(gains).c] == "pico").tolist())
        pico_pl = set(np.flatnonzero(gains.cell_tier[select_pl(gains).c] == "pico").tolist())
        assert pico_rsrp <= pico_pl


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="nearest")
    assert StrategyConfig(kind="cre", cre_bias_db=6.0).label == "cre6"
    assert StrategyConfig(kind="interference").label == "interference"


# ---- interference metric ----------------------------------------------------


def test_metric_noise_only_reduction():
    # a lone user sees no interferers: metric is 4 sigma^2 / g on every cell
    gains = gm([[-100.0], [-90.0]], ["macro", "pico"])
    state = NetworkState.build(gains, np.array([0]), PowerConfig(-90.0, 0.8), NOISE_MW)
    for cell in (0, 1):
        expected = 4 * NOISE_MW / 10 ** (gains.g[cell, 0] / 10.0)
        assert interference_metric(0, cell, state) == pytest.approx(expected, rel=1e-12)


def test_metric_matches_literal_formula():
    # independent oracle: direct evaluation of the argmin operand over the
    # user's blocks, interference summed user by user
    rng = np.random.default_rng(4)
    for _ in range(10):
        n_cells, n_users = 3, 5
        gains = random_gm(rng, n_cells, n_users)
        serving = rng.integers(0, n_cells, size=n_users)
        state = NetworkState.build(gains, serving, PowerConfig(-90.0, 0.8), NOISE_MW, total_rbs=4)
        g_lin = 10 ** (gains.g / 10.0)
        p_mw = 10 ** (state.per_rb_power_dbm / 10.0)
        for k in range(n_users):
            sf = state.alloc.user_subframe[k]
            co = [
                u
                for u in range(n_users)
                if u != k and state.alloc.user_subframe[u] == sf and serving[u] != serving[k]
            ]
            for cell in range(n_cells):
                expected = sum(
                    (sum(p_mw[u] * g_lin[cell, u] for u in co) + NOISE_MW) / g_lin[cell, k]
                    for _ in range(4)
                )
                assert interference_metric(k, cell, state) == pytest.approx(expected, rel=1e-12)
                assert _metric_vector(k, state)[cell] == pytest.approx(expected, rel=1e-12)


def test_metric_at_serving_cell_is_serving_interference():
    gains = gm([[-95.0, -100.0], [-105.0, -88.0]], ["macro", "macro"])
    serving = np.array([0, 1])
    state = NetworkState.build(gains, serving, PowerConfig(-90.0, 1.0), NOISE_MW, total_rbs=4)
    g_lin = 10 ** (gains.g / 10.0)
    p1 = 10 ** (state.per_rb_power_dbm[1] / 10.0)
    i_serving = 4 * (p1 * g_lin[0, 1] + NOISE_MW)
    assert interference_metric(0, 0, state) == pytest.approx(i_serving / g_lin[0, 0], rel=1e-12)


def test_adaptive_bias_symmetric_unity():
    # the one interferer couples identically to both equal-power cells,
    # so serving and candidate interference match: bias exactly 1 (0 dB)
    gains = gm([[-100.0, -100.0], [-95.0, -100.0]], ["macro", "macro"])
    serving = np.array([0, 1])
    state = NetworkState.build(gains, serving, PowerConfig(-90.0, 1.0), NOISE_MW, total_rbs=4)
    assert adaptive_bias(0, 0, 1, state) == pytest.approx(1.0, rel=1e-12)


def test_adaptive_bias_half_interference():
    # candidate sees half the serving interference at equal reference power;
    # high P0 keeps the noise term 6 orders of magnitude below interference
    gains = gm([[-100.0, -80.0], [-95.0, -83.0103]], ["macro", "macro"])
    serving = np.array([0, 1])
    state = NetworkState.build(gains, serving, PowerConfig(-60.0, 1.0), NOISE_MW, total_rbs=4)
    assert adaptive_bias(0, 0, 1, state) == pytest.approx(0.5, rel=1e-4)


def test_adaptive_bias_consistency_identity():
    # candidate wins on the metric iff RSRP_C > RSRP_S * bias
    rng = np.random.default_rng(5)
    for _ in range(25):
        gains = random_gm(rng, 3, 4)
        serving = rng.integers(0, 3, size=4)
        state = NetworkState.build(
            gains, serving, PowerConfig(-90.0, float(rng.choice([0.4, 0.8, 1.0]))), NOISE_MW, total_rbs=4
        )
        for k in range(4):
            s = int(serving[k])
            for c in range(3):
                if c == s:
                    continue
                bias = adaptive_bias(k, s, c, state)
                rsrp_c = 10 ** ((gains.rs_power_dbm[c] + gains.g[c, k]) / 10.0)
                rsrp_s = 10 ** ((gains.rs_power_dbm[s] + gains.g[s, k]) / 10.0)
                metric_wins = interference_metric(k, c, state) < interference_metric(k, s, state)
                assert metric_wins == (rsrp_c > rsrp_s * bias)


# ---- iterative selection ----------------------------------------------------


def test_single_user_matches_pl_selection():
    gains = gm([[-104.0], [-97.0], [-101.0]], ["macro", "pico", "pico"])
    result = select_interference_based(
        gains, PowerConfig(-90.0, 0.8), NOISE_MW, StrategyConfig(kind="interference")
    )
    assert result.converged
    assert np.array_equal(result.c, select_pl(gains).c)


def test_two_user_pile_splits_and_is_stable():
    # rsrp piles both users on the macro; the first then prefers the pico
    # on gain, after which each is the other's co-channel interferer and
    # both stay put: a stable split reached in two passes
    gains = gm([[-100.0, -95.0], [-90.0, -101.0]], ["macro", "pico"])
    power = PowerConfig(-90.0, 1.0)
    assert np.array_equal(select_rsrp(gains).c, [0, 0])
    result = select_interference_based(
        gains, power, NOISE_MW, StrategyConfig(kind="interference"), total_rbs=4
    )
    assert result.converged
    assert list(result.c) == [1, 0]
    assert result.moves_per_pass == [1, 0]
    assert result.passes_used == 2
    # verify stability by each user's unilateral metrics
    state = NetworkState.build(gains, result.c, power, NOISE_MW, total_rbs=4)
    for k in range(2):
        metrics = _metric_vector(k, state)
        assert metrics[result.c[k]] == pytest.approx(metrics.min(), rel=1e-12)


def test_converged_run_has_no_improving_deviation():
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(20):
        gains = random_gm(rng, 3, 5)
        power = PowerConfig(-90.0, float(rng.choice([0.4, 0.8, 1.0])))
        result = select_interference_based(
            gains, power, NOISE_MW, StrategyConfig(kind="interference"), total_rbs=4
        )
        if not result.converged:
            continue
        checked += 1
        state = NetworkState.build(gains, result.c, power, NOISE_MW, total_rbs=4)
        for k in range(5):
            metrics = _metric_vector(k, state)
            own = metrics[result.c[k]]
            assert metrics.min() >= own * (1.0 - MOVE_REL_THRESHOLD)
    assert checked >= 15  # the dynamics should converge on most small instances


def test_interference_respects_search_space():
    gains = gm([[-100.0], [-80.0], [-90.0]], ["macro", "pico", "pico"])
    cfg = StrategyConfig(kind="interference", search_space=(0, 2))
    result = select_interference_based(gains, PowerConfig(-90.0, 0.8), NOISE_MW, cfg)
    assert result.c[0] == 2  # cell 1 is better but out of bounds


def test_custom_initial_assignment():
    gains = gm([[-100.0], [-90.0]], ["macro", "pico"])
    result = select_interference_based(
        gains,
        PowerConfig(-90.0, 0.8),
        NOISE_MW,
        StrategyConfig(kind="interference"),
        initial=np.array([0]),
    )
    assert result.c[0] == 1


# ---- brute-force oracle -----------------------------------------------------


def test_oracle_single_cell():
    gains = gm([[-100.0, -95.0, -90.0]], ["macro"])
    res = brute_force_oracle(gains, PowerConfig(-90.0, 0.8), NOISE_MW, total_rbs=4)
    assert res.stable == [(0, 0, 0)]
    assert res.min_total == (0, 0, 0)


def test_oracle_two_cells_one_user():
    gains = gm([[-100.0], [-90.0]], ["macro", "pico"])
    power = PowerConfig(-90.0, 0.8)
    res = brute_force_oracle(gains, power, NOISE_MW, total_rbs=4)
    assert res.stable == [(1,)]
    bra = select_interference_based(
        gains, power, NOISE_MW, StrategyConfig(kind="interference"), total_rbs=4
    )
    assert tuple(bra.c) in res.stable


def test_oracle_containment_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(15):
        gains = random_gm(rng, 3, 4)
        power = PowerConfig(-90.0, float(rng.choice([0.4, 0.8, 1.0])))
        result = select_interference_based(
            gains, power, NOISE_MW, StrategyConfig(kind="interference"), total_rbs=4
        )
        if not result.converged:
            continue
        oracle = brute_force_oracle(gains, power, NOISE_MW, total_rbs=4)
        assert tuple(result.c) in oracle.stable


def test_oracle_size_guard():
    rng = np.random.default_rng(8)
    power = PowerConfig(-90.0, 0.8)
    with pytest.raises(ValueError):
        brute_force_oracle(random_gm(rng, 5, 3), power, NOISE_MW)
    with pytest.raises(ValueError):
        brute_force_oracle(random_gm(rng, 3, 7), power, NOISE_MW)


def test_descent_moves_strictly_improve():
    # replay the dynamics move by move: every committed move must strictly
    # reduce the mover's own metric as evaluated at the moment of the move
    rng = np.random.default_rng(9)
    gains = random_gm(rng, 3, 5)
    power = PowerConfig(-90.0, 0.8)
    serving = select_rsrp(gains).c.copy()
    state = NetworkState.build(gains, serving, power, NOISE_MW, total_rbs=4)
    committed = 0
    for _ in range(20):
        moved = False
        for k in range(5):
            metrics = _metric_vector(k, state)
            current = int(state.serving[k])
            best = int(np.argmin(metrics))
            if best != current and metrics[best] < metrics[current] * (1 - MOVE_REL_THRESHOLD):
                # independent recomputation of both sides before committing
                before = interference_metric(k, current, state)
                candidate = interference_metric(k, best, state)
                assert candidate < before * (1 - MOVE_REL_THRESHOLD)
                state.move_user(k, best)
                committed += 1
                moved = True
        if not moved:
            break
    assert committed >= 1


# ---- incremental engine against a rebuild-everything reference ---------------


def reference_best_response(gains, power, cfg, total_rbs):
    """The search as first written: it rebuilds the whole state after every
    move, evaluates every user in every pass and runs out every pass."""
    serving = select_rsrp(gains).c.copy()
    state = NetworkState.build(gains, serving, power, NOISE_MW, total_rbs)
    moves_per_pass = []
    for _ in range(cfg.max_passes):
        moves = 0
        for k in range(gains.n_users):
            metrics = _metric_vector(k, state)
            current = int(serving[k])
            best = int(np.argmin(metrics))
            if best != current and metrics[best] < metrics[current] * (1.0 - MOVE_REL_THRESHOLD):
                serving[k] = best
                state = NetworkState.build(gains, serving, power, NOISE_MW, total_rbs)
                moves += 1
        moves_per_pass.append(moves)
        if moves == 0:
            return serving, True, moves_per_pass
    return serving, False, moves_per_pass


def assert_matches_reference(gains, power, total_rbs, max_passes):
    cfg = StrategyConfig(kind="interference", max_passes=max_passes)
    result = select_interference_based(gains, power, NOISE_MW, cfg, total_rbs)
    c, converged, moves_per_pass = reference_best_response(gains, power, cfg, total_rbs)
    assert np.array_equal(result.c, c)
    assert result.converged == converged
    assert result.passes_used == len(moves_per_pass)
    assert result.moves_per_pass == moves_per_pass
    return result


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(2, 5),
    n_users=st.integers(1, 40),
    alpha=st.sampled_from([0.4, 0.6, 0.8, 1.0]),
    total_rbs=st.sampled_from([4, 8, 48]),
    max_passes=st.integers(1, 25),
)
def test_engine_matches_reference_on_random_instances(seed, n_cells, n_users, alpha, total_rbs, max_passes):
    gains = random_gm(np.random.default_rng(seed), n_cells, n_users)
    assert_matches_reference(gains, PowerConfig(-90.0, alpha), total_rbs, max_passes)


@pytest.mark.parametrize("max_passes", [20, 21])
def test_oracle_instance_37_cycles(max_passes):
    """Oracle instance 37 (seed 0) never converges. It has 3 cells, 4 users
    and one block, so the users of a cell share it in subframes ranked by
    user index. From pass 2 on, user 1 alternates between cells 0 and 1.
    In cell 1 it ranks behind user 0 and sits alone in subframe 1, where
    only noise counts and cell 0's better gain draws it back. In cell 0 it
    ranks ahead of user 2 and lands in subframe 0 with users 0 and 3,
    whose interference drives it to cell 1 again. The assignment after
    pass 3 equals the one after pass 1: a 2-cycle, which the engine
    fast-forwards by the parity of max_passes."""
    from hetsim.harness import oracle_instances

    *_, (gains, power) = oracle_instances(38, seed=0)
    result = assert_matches_reference(gains, power, 4, max_passes)
    assert (result.cycle_period, result.cycle_detected_at) == (2, 3)
    assert not result.converged


@pytest.mark.parametrize("max_passes", [20, 21])
def test_cycling_drop_matches_reference(max_passes):
    # 342 users of a real drop (2 picos and 6 users per sector, seed 1,
    # drop 0, alpha = 1) end in a 2-cycle the engine detects at pass 4
    from dataclasses import replace

    from hetsim.harness import Scenario
    from hetsim.radio import compute_gain_matrix
    from hetsim.topology import build_layout, place_picos, place_users

    scenario = replace(Scenario(), picos_per_sector=2, users_per_sector=6, master_seed=1)
    rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(0,)))
    layout = build_layout(scenario.isd_m)
    picos, pico_sector = place_picos(layout, 2, rng)
    nodes = place_users(layout, picos, pico_sector, 6, rng)
    gains = compute_gain_matrix(layout, nodes, rng, scenario.radio_params())
    result = assert_matches_reference(gains, scenario.power_config(1.0), 48, max_passes)
    assert (result.cycle_period, result.cycle_detected_at) == (2, 4)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 5),
    n_users=st.integers(1, 40),
    total_rbs=st.sampled_from([4, 8, 48]),
    n_moves=st.integers(1, 12),
)
def test_incremental_state_equals_rebuild(seed, n_cells, n_users, total_rbs, n_moves):
    rng = np.random.default_rng(seed)
    gains = random_gm(rng, n_cells, n_users)
    power = PowerConfig(-90.0, 0.8)
    state = NetworkState.build(gains, rng.integers(0, n_cells, n_users), power, NOISE_MW, total_rbs)
    for _ in range(n_moves):
        before = [_metric_vector(k, state) for k in range(n_users)]
        user, cell = int(rng.integers(0, n_users)), int(rng.integers(0, n_cells))
        touched = state.move_user(user, cell)
        fresh = NetworkState.build(gains, state.serving.copy(), power, NOISE_MW, total_rbs)
        for name in ("user_subframe", "user_rb_start", "block_key"):
            assert np.array_equal(getattr(state.alloc, name), getattr(fresh.alloc, name))
        assert state.alloc.subframes_per_epoch == fresh.alloc.subframes_per_epoch
        blocks = [(b, list(m)) for b, m in state.alloc.blocks()]
        assert blocks == [(b, list(m)) for b, m in fresh.alloc.blocks()]
        for name in ("total_power_dbm", "per_rb_power_dbm", "per_rb_power_mw", "capped"):
            assert np.array_equal(getattr(state, name), getattr(fresh, name))
        # skipping an untouched user is exact: its metric vector is unchanged
        for k in sorted(set(range(n_users)) - set(touched.tolist())):
            assert np.array_equal(_metric_vector(k, state), before[k])
