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
    _metric_rows,
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
        kernel = _metric_rows(np.arange(n_users), state)
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
                assert kernel[k, cell] == pytest.approx(expected, rel=1e-12)


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
    for k, metrics in enumerate(_metric_rows(np.arange(2), state)):
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
        for k, metrics in enumerate(_metric_rows(np.arange(5), state)):
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


def test_initial_outside_search_space_is_rejected():
    gains = gm([[-100.0, -95.0], [-90.0, -92.0], [-95.0, -90.0]], ["macro", "pico", "pico"])
    cfg = StrategyConfig(kind="interference", search_space=(0, 2))
    with pytest.raises(ValueError, match="outside the search space"):
        select_interference_based(gains, PowerConfig(-90.0, 0.8), NOISE_MW, cfg, initial=np.array([0, 1]))


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
            metrics = _metric_rows([k], state)[0]
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
            metrics = _metric_rows([k], state)[0]
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
    initial = rng.integers(0, n_cells, n_users)
    state = NetworkState.build(gains, initial.copy(), power, NOISE_MW, total_rbs)
    # the same moves on a state that is never scored, so its rows are first
    # built from the moved state
    unscored = NetworkState.build(gains, initial.copy(), power, NOISE_MW, total_rbs)
    users = np.arange(n_users)
    for _ in range(n_moves):
        before = _metric_rows(users, state)
        user, cell = int(rng.integers(0, n_users)), int(rng.integers(0, n_cells))
        touched = state.move_user(user, cell)
        unscored.move_user(user, cell)
        fresh = NetworkState.build(gains, state.serving.copy(), power, NOISE_MW, total_rbs)
        for name in ("subframe", "user_subframe", "user_rb_start", "block_key"):
            assert np.array_equal(getattr(state.alloc, name), getattr(fresh.alloc, name))
        assert state.alloc.subframes_per_epoch == fresh.alloc.subframes_per_epoch
        blocks = [(b, list(m)) for b, m in state.alloc.blocks()]
        assert blocks == [(b, list(m)) for b, m in fresh.alloc.blocks()]
        for name in ("total_power_dbm", "per_rb_power_dbm", "per_rb_power_mw", "capped"):
            assert np.array_equal(getattr(state, name), getattr(fresh, name))
        # the per-RB received power rows in the per-slot layout
        assert np.array_equal(state.rows, fresh.rows)
        # skipping an untouched user is exact: its metric vector is unchanged
        untouched = np.setdiff1d(users, touched)
        assert np.array_equal(_metric_rows(untouched, state), before[untouched])
    assert np.array_equal(unscored.rows, fresh.rows)


# ---- the batched kernel and the per-slot decomposition ------------------------


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 5),
    slots=st.integers(1, 12),
    n_users=st.integers(1, 60),
    data=st.data(),
)
def test_metric_rows_batch_equals_single_calls(seed, n_cells, slots, n_users, data):
    # one row per user, bit for bit the row of a call on that user alone,
    # whatever else is in the batch and in whatever order: a search step
    # (distinct slots, ascending), an arbitrary subset, or one slot repeated
    rng = np.random.default_rng(seed)
    gains = random_gm(rng, n_cells, n_users)
    power = PowerConfig(-90.0, float(rng.choice([0.4, 0.6, 0.8, 1.0])))
    state = NetworkState.build(gains, rng.integers(0, n_cells, n_users), power, NOISE_MW, 4 * slots)
    for _ in range(int(rng.integers(0, 4))):
        state.move_user(int(rng.integers(0, n_users)), int(rng.integers(0, n_cells)))
    kind = data.draw(st.sampled_from(["step", "subset"]))
    if kind == "step":
        start = slots * data.draw(st.integers(0, (n_users - 1) // slots))
        chosen = data.draw(st.lists(st.integers(0, slots - 1), min_size=1, max_size=12, unique=True))
        users = sorted(start + s for s in chosen if start + s < n_users) or [start]
    else:
        users = data.draw(
            st.lists(st.integers(0, n_users - 1), min_size=1, max_size=min(12, n_users), unique=True)
        )
    batch = _metric_rows(np.array(users), state)
    single = np.vstack([_metric_rows(np.array([u]), state) for u in users])
    assert batch.shape == (len(users), n_cells)
    assert np.array_equal(batch, single)


def acceptance_drop_gains(drop, picos_per_sector=2, users_per_sector=12, master_seed=1):
    """Gain matrix of one drop of the 2-pico acceptance campaign, drawn as run_drop draws it."""
    from hetsim.harness import Scenario
    from hetsim.radio import compute_gain_matrix
    from hetsim.topology import build_layout, place_picos, place_users

    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(drop,)))
    layout = build_layout(500.0)
    picos, pico_sector = place_picos(layout, picos_per_sector, rng)
    nodes = place_users(layout, picos, pico_sector, users_per_sector, rng)
    return compute_gain_matrix(layout, nodes, rng, Scenario().radio_params())


@pytest.mark.parametrize("alpha", [0.4, 0.6, 0.8, 1.0])
def test_metric_rows_match_scalar_metric_at_acceptance_points(alpha):
    # P0 by the common-Pmax-crossing rule, as in the acceptance campaigns.
    # The kernel sums the co-block users' received powers (all terms
    # nonnegative), so it stays within rounding of the scalar metric even
    # where a user's own power dominates its block. A block total minus the
    # user's own term loses precision there: at alpha = 0.4 its relative
    # error in the rsrp state reaches 8.7e-12 for user 172 and 3.5e-12 for
    # user 441.
    p0 = alpha * -90.0 + (1.0 - alpha) * (23.0 - 10.0 * np.log10(4))
    power = PowerConfig(p0, alpha)
    gains = acceptance_drop_gains(2)
    result = select_interference_based(gains, power, NOISE_MW, StrategyConfig(kind="interference"))
    for serving in (select_rsrp(gains).c, result.c):
        state = NetworkState.build(gains, serving.copy(), power, NOISE_MW)
        users = np.arange(gains.n_users)
        kernel = _metric_rows(users, state)
        # the users whose own received power most dominates their block's
        # interference plus noise, kernel / (rbs_per_user / gain)
        slots = state.alloc.slots
        own = state.rows[users % slots, users // slots]
        dominance = (own / (kernel / 4 * gains.g_linear.T)).max(axis=1)
        picked = sorted(set(np.argsort(dominance)[-6:].tolist()) | {172, 441})
        for k in picked:
            scalar = [interference_metric(k, cell, state) for cell in range(gains.n_cells)]
            np.testing.assert_allclose(kernel[k], scalar, rtol=1e-12, atol=0)


def compose_slot_searches(gains, power, cfg, slots):
    """The search as one independent search per RB slot, composed: passes are
    the maximum over slots, moves are summed pass by pass (a slot that
    stopped adds none), and the search converged only if every slot did."""
    c = np.empty(gains.n_users, dtype=int)
    per_slot = []
    for s in range(min(slots, gains.n_users)):
        sub = GainMatrix(g=gains.g[:, s::slots], cell_tier=gains.cell_tier, rs_power_dbm=gains.rs_power_dbm)
        result = select_interference_based(sub, power, NOISE_MW, cfg, total_rbs=power.rbs_per_user)
        c[s::slots] = result.c
        per_slot.append(result)
    passes = max(r.passes_used for r in per_slot)
    moves = [sum(r.moves_per_pass[i] for r in per_slot if i < r.passes_used) for i in range(passes)]
    return c, all(r.converged for r in per_slot), passes, moves


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(2, 5),
    slots=st.integers(2, 6),
    n_users=st.integers(2, 40),
    alpha=st.sampled_from([0.4, 0.6, 0.8, 1.0]),
    max_passes=st.integers(1, 25),
)
def test_search_equals_composed_slot_searches(seed, n_cells, slots, n_users, alpha, max_passes):
    gains = random_gm(np.random.default_rng(seed), n_cells, n_users)
    power = PowerConfig(-90.0, alpha)
    cfg = StrategyConfig(kind="interference", max_passes=max_passes)
    result = select_interference_based(gains, power, NOISE_MW, cfg, total_rbs=4 * slots)
    c, converged, passes, moves = compose_slot_searches(gains, power, cfg, slots)
    assert np.array_equal(result.c, c)
    assert result.converged == converged
    assert result.passes_used == passes
    assert result.moves_per_pass == moves


def test_acceptance_drop_equals_composed_slot_searches():
    # drop 0 at alpha = 0.8 and P0 = -90 dBm: 12 slots of 57 users, and the
    # search ends in a 2-cycle (user 194 flips between cells 15 and 16)
    gains = acceptance_drop_gains(0)
    power = PowerConfig(-90.0, 0.8)
    cfg = StrategyConfig(kind="interference")
    result = select_interference_based(gains, power, NOISE_MW, cfg)
    c, converged, passes, moves = compose_slot_searches(gains, power, cfg, 12)
    assert (result.cycle_period, result.cycle_detected_at) == (2, 5)
    assert np.array_equal(result.c, c)
    assert (result.converged, result.passes_used, result.moves_per_pass) == (converged, passes, moves)
