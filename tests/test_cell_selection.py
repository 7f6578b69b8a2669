import gc
import itertools
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from hetsim import cell_selection
from hetsim.cell_selection import (
    MOVE_REL_THRESHOLD,
    NetworkState,
    OracleResult,
    StrategyConfig,
    brute_force_oracle,
    select_cre,
    select_interference_based,
    select_pl,
    select_rsrp,
    _assignment_metrics,
    _assignment_tables,
    _position_metrics,
)
from hetsim.metrics import NoiseModel
from hetsim.radio import GainMatrix
from hetsim.scheduler import allocate
from hetsim.uplink_power import PowerConfig, open_loop_power, per_rb_mw
from reference import (
    adaptive_bias,
    allocation_move,
    blocks,
    former_oracle_mask,
    former_search,
    interference_metric,
    metric_rows,
    subframes_per_epoch,
    user_blocks,
)

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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 6),
    n_users=st.integers(0, 30),
    bias=st.sampled_from([0.0, 3.0, 6.0, 16.0]),
)
def test_rsrp_and_cre_equal_the_argmax_over_cells(seed, n_cells, n_users, bias):
    # whole-dB gains make ties, which go to the lowest cell
    rng = np.random.default_rng(seed)
    gains = random_gm(rng, n_cells, n_users)
    gains = gm(np.round(gains.g / 8.0), gains.cell_tier)
    rs, g = gains.rs_power_dbm[:, None], gains.g
    offset = np.where(gains.cell_tier == "pico", bias, 0.0)[:, None]
    assert select_rsrp(gains).c.tolist() == np.argmax(rs + g, axis=0).tolist()
    cre = select_cre(gains, StrategyConfig(kind="cre", cre_bias_db=bias))
    assert cre.c.tolist() == np.argmax(rs + g + offset, axis=0).tolist()


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
        p_mw = 10 ** (open_loop_power(PowerConfig(-90.0, 0.8), -gains.g[serving, np.arange(n_users)]).per_rb_dbm / 10.0)
        kernel = metric_rows(np.arange(n_users), state)
        user_sf = user_blocks(state.subframe, n_users)[0]
        for k in range(n_users):
            co = [
                u
                for u in range(n_users)
                if u != k and user_sf[u] == user_sf[k] and serving[u] != serving[k]
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
    p1 = 10 ** (open_loop_power(PowerConfig(-90.0, 1.0), -gains.g[1, 1]).per_rb_dbm / 10.0)
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
    for k, metrics in enumerate(metric_rows(np.arange(2), state)):
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
        for k, metrics in enumerate(metric_rows(np.arange(5), state)):
            own = metrics[result.c[k]]
            assert metrics.min() >= own * (1.0 - MOVE_REL_THRESHOLD)
    assert checked >= 15  # the dynamics should converge on most small instances


def test_custom_initial_assignment():
    # the search starts from the rsrp assignment, the macro, and its first
    # pass moves the user to the pico's better gain
    gains = gm([[-100.0], [-90.0]], ["macro", "pico"])
    assert select_rsrp(gains).c[0] == 0
    result = select_interference_based(
        gains, PowerConfig(-90.0, 0.8), NOISE_MW, StrategyConfig(kind="interference")
    )
    assert result.c[0] == 1
    assert result.moves_per_pass == [1, 0]


# ---- brute-force oracle -----------------------------------------------------


def test_oracle_single_cell():
    gains = gm([[-100.0, -95.0, -90.0]], ["macro"])
    res = brute_force_oracle(gains, PowerConfig(-90.0, 0.8), NOISE_MW, total_rbs=4)
    assert res.stable == [(0, 0, 0)]


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 4),
    n_users=st.integers(1, 6),
    alpha=st.sampled_from([0.4, 0.6, 0.8, 1.0]),
    total_rbs=st.sampled_from([4, 8, 12]),
)
def test_oracle_containment_property(seed, n_cells, n_users, alpha, total_rbs):
    # a converged search ends in an assignment the oracle finds stable
    gains = random_gm(np.random.default_rng(seed), n_cells, n_users)
    power = PowerConfig(-90.0, alpha)
    result = select_interference_based(gains, power, NOISE_MW, StrategyConfig(kind="interference"), total_rbs)
    if result.converged:
        oracle = brute_force_oracle(gains, power, NOISE_MW, total_rbs)
        assert tuple(result.c) in oracle.stable


def reference_brute_force_oracle(gains, power_cfg, noise_rb_mw, total_rbs=48):
    """The oracle as first written: a NetworkState built from scratch for each
    assignment, scored by the search's kernel. Also returns the (A, K, cells)
    metric arrays of the assignments in enumeration order."""
    stable = []
    users = np.arange(gains.n_users)
    arrays = []
    for combo in itertools.product(range(gains.n_cells), repeat=gains.n_users):
        serving = np.array(combo, dtype=int)
        state = NetworkState.build(gains, serving, power_cfg, noise_rb_mw, total_rbs)
        arrays.append(metric_rows(users, state))
        metrics = arrays[-1]
        own = metrics[users, serving]
        if not (metrics.min(axis=1) < own * (1.0 - MOVE_REL_THRESHOLD)).any():
            stable.append(combo)
    return OracleResult(stable=stable), np.array(arrays)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 4),
    n_users=st.integers(1, 6),
    alpha=st.sampled_from([0.4, 0.6, 0.8, 1.0]),
    total_rbs=st.sampled_from([4, 8, 12]),
    twin=st.sampled_from([None, 0.0, 1e-10]),
)
def test_oracle_equals_per_assignment_reference(seed, n_cells, n_users, alpha, total_rbs, twin):
    # twin: the last cell repeats cell 0's gains exactly (a move between the
    # twins ties) or to within 1e-10 dB (deviations within the move margin)
    rng = np.random.default_rng(seed)
    gains = random_gm(rng, n_cells, n_users)
    if twin is not None and n_cells > 1:
        gains.g[-1] = gains.g[0] + twin * rng.uniform(-1.0, 1.0, n_users)
    power = PowerConfig(-90.0, alpha)
    expected, arrays = reference_brute_force_oracle(gains, power, NOISE_MW, total_rbs)
    result = brute_force_oracle(gains, power, NOISE_MW, total_rbs)
    assert result.stable == expected.stable
    grid, _, metrics = _assignment_metrics(gains, power, NOISE_MW, total_rbs)
    assert [tuple(row) for row in grid.tolist()] == list(itertools.product(range(n_cells), repeat=n_users))
    assert metrics.shape == arrays.shape
    assert metrics.tobytes() == arrays.tobytes()


def test_oracle_tables_equal_the_former_padded_mask():
    for n_cells, n_users, total_rbs in itertools.product(range(1, 5), range(1, 7), (4, 8, 12)):
        slots = total_rbs // PowerConfig.rbs_per_user
        _, _, mask, gather = _assignment_tables(n_cells, n_users, slots)
        former = former_oracle_mask(n_cells, n_users, slots)
        assert mask.shape == former.shape == gather.shape and mask.dtype == former.dtype
        assert mask.tobytes() == former.tobytes()


def test_oracle_tables_are_shared_and_read_only():
    rng = np.random.default_rng(11)
    power = PowerConfig(-90.0, 0.8)
    tables = _assignment_tables(3, 5, 1)
    first = _assignment_metrics(random_gm(rng, 3, 5), power, NOISE_MW, 4)
    second = _assignment_metrics(random_gm(rng, 3, 5), power, NOISE_MW, 4)
    assert first[0] is second[0] is tables[0] and first[1] is second[1] is tables[1]
    assert all(a is b for a, b in zip(_assignment_tables(3, 5, 1), tables))
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0
    # the cache is bounded, and holds the oracle suite's six shapes
    assert 6 <= _assignment_tables.cache_parameters()["maxsize"] < 64


def assert_own_index_takes_own_metrics(gains, power, total_rbs):
    grid, own, metrics = _assignment_metrics(gains, power, NOISE_MW, total_rbs)
    along = np.take_along_axis(metrics, grid[:, :, None], axis=2)[:, :, 0]
    assert own.shape == grid.shape and not own.flags.writeable
    assert metrics.reshape(-1).take(own).tobytes() == along.tobytes()


def test_own_index_takes_each_users_own_metric_on_the_suite_shapes():
    rng = np.random.default_rng(13)
    for n_cells, n_users in itertools.product((2, 3), (3, 4, 5)):
        assert_own_index_takes_own_metrics(random_gm(rng, n_cells, n_users), PowerConfig(-90.0, 0.8), 4)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 4),
    n_users=st.integers(1, 6),
    slots=st.integers(1, 3),
    alpha=st.sampled_from([0.4, 0.6, 0.8, 1.0]),
)
def test_own_index_takes_each_users_own_metric(seed, n_cells, n_users, slots, alpha):
    gains = random_gm(np.random.default_rng(seed), n_cells, n_users)
    assert_own_index_takes_own_metrics(gains, PowerConfig(-90.0, alpha), 4 * slots)


@pytest.mark.parametrize("total_rbs", [0, -4])
def test_a_band_that_is_not_positive_is_refused(total_rbs):
    # before, 0 died in per_slot with ZeroDivisionError and -4 in the
    # oracle with numpy's reshape error
    gains = random_gm(np.random.default_rng(12), 2, 3)
    power = PowerConfig(-90.0, 0.8)
    refused = pytest.raises(ValueError, match=f"total_rbs must be positive, got {total_rbs}")
    with refused:
        allocate(np.zeros(3, dtype=int), 2, total_rbs)
    with refused:
        select_interference_based(gains, power, NOISE_MW, StrategyConfig(kind="interference"), total_rbs)
    with refused:
        brute_force_oracle(gains, power, NOISE_MW, total_rbs)


@pytest.mark.parametrize("total_rbs", [6, 2])
def test_oracle_rejects_a_band_the_blocks_do_not_tile(total_rbs):
    # 4-RB blocks: the search's allocate refuses these bands, and so does
    # the oracle, before it builds any table
    gains = random_gm(np.random.default_rng(12), 2, 3)
    power = PowerConfig(-90.0, 0.8)
    built = _assignment_tables.cache_info().misses
    with pytest.raises(ValueError, match="total_rbs must be a multiple of rbs_per_user"):
        brute_force_oracle(gains, power, NOISE_MW, total_rbs)
    assert _assignment_tables.cache_info().misses == built
    with pytest.raises(ValueError, match="total_rbs must be a multiple of rbs_per_user"):
        select_interference_based(gains, power, NOISE_MW, StrategyConfig(kind="interference"), total_rbs)


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
            metrics = metric_rows([k], state)[0]
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
            metrics = metric_rows([k], state)[0]
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
    gains = compute_gain_matrix(layout, nodes, rng, scenario)
    result = assert_matches_reference(gains, scenario.power_config(1.0), 48, max_passes)
    assert (result.cycle_period, result.cycle_detected_at) == (2, 4)


def other_slot_rows(state, slot):
    """Bytes of the _position_metrics row of every user outside the slot, by user.

    Each position is scored over all its slots. The search scores a
    clean row of another slot, trusting it to have the bits its user
    stayed with, so these rows must not change when a user of the slot
    moves.
    """
    slots, n_users = state.slots, len(state.serving)
    rows = {}
    for j, start in enumerate(range(0, n_users, slots)):
        metrics = _position_metrics(state, j, 0, min(slots, n_users - start))
        rows.update((start + s, r.tobytes()) for s, r in enumerate(metrics) if s != slot)
    return rows


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
        user, cell = int(rng.integers(0, n_users)), int(rng.integers(0, n_cells))
        before = other_slot_rows(state, user % state.slots)
        state.move_user(user, cell)
        unscored.move_user(user, cell)
        fresh = NetworkState.build(gains, state.serving.copy(), power, NOISE_MW, total_rbs)
        assert np.array_equal(state.subframe, fresh.subframe)
        assert subframes_per_epoch(state.subframe) == subframes_per_epoch(fresh.subframe)
        occupied = [(b, list(m)) for b, m in blocks(state.subframe, n_users)]
        assert occupied == [(b, list(m)) for b, m in blocks(fresh.subframe, n_users)]
        for name in ("per_rb_power_mw", "capped"):
            assert np.array_equal(getattr(state, name), getattr(fresh, name))
        # each user's power follows the open-loop law on its serving link
        served = open_loop_power(power, -gains.g[state.serving, users])
        assert np.array_equal(state.per_rb_power_mw, 10.0 ** (served.per_rb_dbm / 10.0))
        assert np.array_equal(state.capped, served.capped)
        # the per-RB received power rows in the per-slot layout
        assert np.array_equal(state.rows, fresh.rows)
        # a move leaves the metric rows of every other slot's users bitwise unchanged
        assert other_slot_rows(state, user % state.slots) == before
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
    batch = metric_rows(np.array(users), state)
    single = np.vstack([metric_rows(np.array([u]), state) for u in users])
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
    return compute_gain_matrix(layout, nodes, rng, Scenario())


@pytest.mark.parametrize("alpha", [0.4, 0.6, 0.8, 1.0])
def test_metric_rows_match_scalar_metric_at_acceptance_points(alpha):
    # P0 by the common-Pmax-crossing rule, as in the acceptance campaigns.
    # The kernel sums the co-block users' received powers (all terms
    # nonnegative), so it stays within rounding of the scalar metric even
    # where a user's own power dominates its block. A block total minus the
    # user's own term loses precision there: at alpha = 0.4 its relative
    # error in the rsrp state reaches 8.7e-12 for user 172 and 3.5e-12 for
    # user 441. Both the reference rows and the search's position kernel,
    # each position scored over all its slots, are held to the scalar metric.
    p0 = alpha * -90.0 + (1.0 - alpha) * (23.0 - 10.0 * np.log10(4))
    power = PowerConfig(p0, alpha)
    gains = acceptance_drop_gains(2)
    result = select_interference_based(gains, power, NOISE_MW, StrategyConfig(kind="interference"))
    for serving in (select_rsrp(gains).c, result.c):
        state = NetworkState.build(gains, serving.copy(), power, NOISE_MW)
        users = np.arange(gains.n_users)
        kernel = metric_rows(users, state)
        slots = state.slots
        program = np.vstack([
            _position_metrics(state, j, 0, min(slots, gains.n_users - start))
            for j, start in enumerate(range(0, gains.n_users, slots))
        ])
        # the users whose own received power most dominates their block's
        # interference plus noise, kernel / (rbs_per_user / gain)
        own = state.rows[users % slots, users // slots]
        dominance = (own / (kernel / 4 * gains.g_linear.T)).max(axis=1)
        picked = sorted(set(np.argsort(dominance)[-6:].tolist()) | {172, 441})
        for k in picked:
            scalar = [interference_metric(k, cell, state) for cell in range(gains.n_cells)]
            np.testing.assert_allclose(kernel[k], scalar, rtol=1e-12, atol=0)
            np.testing.assert_allclose(program[k], scalar, rtol=1e-12, atol=0)


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


# ---- the search by pass position against the former search --------------------


SEARCH_INSTANCES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 5),
    slots=st.integers(1, 12),
    depth=st.integers(0, 4),
    alpha=st.sampled_from([0.4, 0.6, 0.8, 1.0]),
    max_passes=st.integers(1, 25),
    twin=st.booleans(),
    data=st.data(),
)


def search_instance(seed, n_cells, slots, depth, alpha, twin, data):
    """Gains and power of a random search instance drawn from SEARCH_INSTANCES.

    Users fill depth positions and part of one more, so with two or more
    slots some slots are short. twin: the last cell repeats cell 0's gains
    exactly, so their metrics tie.
    """
    n_users = slots * depth + data.draw(st.integers(1, max(1, slots - 1)))
    gains = random_gm(np.random.default_rng(seed), n_cells, n_users)
    if twin and n_cells > 1:
        gains.g[-1] = gains.g[0]
    return gains, PowerConfig(-90.0, alpha)


@settings(max_examples=80, deadline=None)
@given(**SEARCH_INSTANCES)
def test_search_equals_former_search(seed, n_cells, slots, depth, alpha, max_passes, twin, data):
    gains, power = search_instance(seed, n_cells, slots, depth, alpha, twin, data)
    cfg = StrategyConfig(kind="interference", max_passes=max_passes)
    result = select_interference_based(gains, power, NOISE_MW, cfg, 4 * slots)
    former = former_search(gains, power, NOISE_MW, cfg, 4 * slots)
    assert result.c.tobytes() == former.c.tobytes()
    for name in ("converged", "passes_used", "moves_per_pass", "cycle_period", "cycle_detected_at"):
        assert getattr(result, name) == getattr(former, name)


def test_acceptance_drop_equals_former_search():
    # drop 3 of the 2-pico acceptance campaign at alpha = 1 and its
    # acceptance P0: 684 users in 12 slots, ending in a 2-cycle found at pass 6
    gains = acceptance_drop_gains(3)
    power = PowerConfig(-90.0, 1.0)
    cfg = StrategyConfig(kind="interference")
    result = select_interference_based(gains, power, NOISE_MW, cfg)
    former = former_search(gains, power, NOISE_MW, cfg)
    assert not result.converged and (result.cycle_period, result.cycle_detected_at) == (2, 6)
    assert result.c.tobytes() == former.c.tobytes()
    for name in ("converged", "passes_used", "moves_per_pass", "cycle_period", "cycle_detected_at"):
        assert getattr(result, name) == getattr(former, name)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 5),
    slots=st.integers(1, 12),
    n_users=st.integers(1, 60),
    alpha=st.sampled_from([0.4, 0.6, 0.8, 1.0]),
    max_passes=st.integers(1, 25),
)
def test_skipping_clean_users_equals_rescoring_every_user(seed, n_cells, slots, n_users, alpha, max_passes):
    # the search skips a position until a move lands in one of its slots,
    # and a clean row it scores inside a span stays; a search that
    # re-scores every user on every pass makes the same moves
    gains = random_gm(np.random.default_rng(seed), n_cells, n_users)
    power = PowerConfig(-90.0, alpha)
    cfg = StrategyConfig(kind="interference", max_passes=max_passes)
    result = select_interference_based(gains, power, NOISE_MW, cfg, 4 * slots)
    every = former_search(gains, power, NOISE_MW, cfg, 4 * slots, skip=False)
    assert result.c.tobytes() == every.c.tobytes()
    for name in ("converged", "passes_used", "moves_per_pass", "cycle_period", "cycle_detected_at"):
        assert getattr(result, name) == getattr(every, name)


@settings(max_examples=80, deadline=None)
@given(**SEARCH_INSTANCES)
def test_move_stamps_score_the_span_of_the_dirty_users(seed, n_cells, slots, depth, alpha, max_passes, twin, data):
    # the per-slot move stamps pick the positions the former per-user dirty
    # flags scored, and at each one the span from its first to its last
    # dirty user; a position the dirty rule skips is not scored
    gains, power = search_instance(seed, n_cells, slots, depth, alpha, twin, data)
    cfg = StrategyConfig(kind="interference", max_passes=max_passes)
    with mock.patch.object(reference, "metric_rows", wraps=reference.metric_rows) as former:
        former_search(gains, power, NOISE_MW, cfg, 4 * slots)
    with mock.patch.object(cell_selection, "_position_metrics", wraps=_position_metrics) as search:
        select_interference_based(gains, power, NOISE_MW, cfg, 4 * slots)
    dirty = [c.args[0] for c in former.call_args_list]
    expected = [(int(u[0]) // slots, int(u[0]) % slots, int(u[-1]) % slots + 1) for u in dirty]
    assert [tuple(int(a) for a in c.args[1:]) for c in search.call_args_list] == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 5),
    slots=st.integers(1, 12),
    n_users=st.integers(1, 60),
    n_moves=st.integers(0, 12),
)
def test_position_metrics_equal_metric_rows(seed, n_cells, slots, n_users, n_moves):
    # every position of the per-slot layout, short slots included, scored
    # over a random span of its slots: every row of the span, bit for bit
    # the former per-user row, since every span row feeds a decision
    rng = np.random.default_rng(seed)
    gains = random_gm(rng, n_cells, n_users)
    power = PowerConfig(-90.0, float(rng.choice([0.4, 0.6, 0.8, 1.0])))
    state = NetworkState.build(gains, rng.integers(0, n_cells, n_users), power, NOISE_MW, 4 * slots)
    for _ in range(n_moves):
        state.move_user(int(rng.integers(0, n_users)), int(rng.integers(0, n_cells)))
    for j, start in enumerate(range(0, n_users, slots)):
        lo, hi = np.sort(rng.choice(min(slots, n_users - start) + 1, size=2, replace=False))
        metrics = _position_metrics(state, j, lo, hi)
        assert metrics.tobytes() == metric_rows(start + np.arange(lo, hi), state).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 5),
    slots=st.integers(1, 12),
    n_users=st.integers(1, 40),
    n_moves=st.integers(1, 12),
)
def test_in_place_move_equals_copying_move(seed, n_cells, slots, n_users, n_moves):
    # the in-place re-rank gives the subframes of the former move, which
    # copied the allocation, and leaves the other slots' metric rows alone
    rng = np.random.default_rng(seed)
    gains = random_gm(rng, n_cells, n_users)
    state = NetworkState.build(gains, rng.integers(0, n_cells, n_users), PowerConfig(-90.0, 0.8), NOISE_MW, 4 * slots)
    for _ in range(n_moves):
        user, cell = int(rng.integers(0, n_users)), int(rng.integers(0, n_cells))
        old_cell = int(state.serving[user])
        serving = state.serving.copy()
        serving[user] = cell
        expected = allocation_move(state.subframe, serving, user, old_cell)
        before = other_slot_rows(state, user % slots)
        state.move_user(user, cell)
        assert np.array_equal(state.subframe, expected)
        assert other_slot_rows(state, user % slots) == before
        occupied = [(b, list(m)) for b, m in blocks(state.subframe, n_users)]
        assert occupied == [(b, list(m)) for b, m in blocks(expected, n_users)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(1, 5),
    slots=st.integers(1, 12),
    n_users=st.integers(1, 40),
    n_moves=st.integers(0, 6),
)
def test_move_to_current_cell_changes_nothing(seed, n_cells, slots, n_users, n_moves):
    rng = np.random.default_rng(seed)
    gains = random_gm(rng, n_cells, n_users)
    state = NetworkState.build(gains, rng.integers(0, n_cells, n_users), PowerConfig(-90.0, 0.8), NOISE_MW, 4 * slots)
    for _ in range(n_moves):
        state.move_user(int(rng.integers(0, n_users)), int(rng.integers(0, n_cells)))
    user = int(rng.integers(0, n_users))
    before = [a.copy() for a in (state.serving, state.subframe, state.rows, state.per_rb_power_mw)]
    state.move_user(user, int(state.serving[user]))
    after = (state.serving, state.subframe, state.rows, state.per_rb_power_mw)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


# ---- the open-loop power table -------------------------------------------------


@pytest.mark.parametrize("alpha", [0.4, 0.6, 0.8, 1.0])
def test_power_table_equals_per_user_calls(alpha):
    # 10 ** x on an array and Python's float power differ in the last bit
    # for a few percent of exponents, so each entry's mW is computed on a
    # one-entry array, the form a state's powers take. P0 by the
    # common-Pmax-crossing rule caps the users beyond about 107 dB
    rng = np.random.default_rng(11)
    g = rng.uniform(-160.0, -60.0, size=(7, 40))
    cfg = PowerConfig(alpha * -90.0 + (1.0 - alpha) * (23.0 - 10.0 * np.log10(4)), alpha)
    gains = GainMatrix(g=g, cell_tier=np.array(["macro"] * 7), rs_power_dbm=np.full(7, 46.0))
    serving = rng.integers(0, 7, 40)
    # without a held table, a state's powers are the law on its served links
    unheld = NetworkState.build(gains, serving.copy(), cfg, NOISE_MW).per_rb_power_mw
    mw = cell_selection._power_table(gains, cfg)
    state = NetworkState.build(gains, serving.copy(), cfg, NOISE_MW)
    assert state.power_table is mw
    # the table the oracle reads, on a gains object of oracle size
    small = GainMatrix(g=g[:3, :5].copy(), cell_tier=gains.cell_tier[:3], rs_power_dbm=gains.rs_power_dbm[:3])
    read = []
    power_table = cell_selection._power_table

    def record(*args):
        read.append(power_table(*args))
        return read[-1]

    with mock.patch.object(cell_selection, "_power_table", side_effect=record):
        _assignment_metrics(small, cfg, NOISE_MW, 4)
    assert len(read) == 1
    capped = open_loop_power(cfg, -g).capped
    assert capped.any() and not capped.all()
    for cell, user in itertools.product(range(7), range(40)):
        one = open_loop_power(cfg, -g[cell, user])
        assert mw[cell, user].tobytes() == (10.0 ** (np.array([one.per_rb_dbm]) / 10.0)).tobytes()
        sliced_mw = per_rb_mw(cfg, -g[cell, user:user + 1])
        assert sliced_mw.tobytes() == mw[cell, user:user + 1].tobytes()
        if serving[user] == cell:
            assert state.per_rb_power_mw[user:user + 1].tobytes() == sliced_mw.tobytes()
            assert unheld[user:user + 1].tobytes() == sliced_mw.tobytes()
        if cell < 3 and user < 5:
            assert read[0][cell, user:user + 1].tobytes() == sliced_mw.tobytes()


def test_gains_hold_one_power_table_at_a_time():
    gains = random_gm(np.random.default_rng(14), 3, 5)
    first, second = PowerConfig(-90.0, 0.8), PowerConfig(-90.0, 1.0)
    table = cell_selection._power_table(gains, first)
    assert cell_selection._power_table(gains, PowerConfig(-90.0, 0.8)) is table
    # the search, its moves and the oracle of one operating point read the held table
    with mock.patch.object(cell_selection.uplink_power, "per_rb_mw", wraps=per_rb_mw) as law:
        select_interference_based(gains, first, NOISE_MW, StrategyConfig(kind="interference"), 4)
        brute_force_oracle(gains, first, NOISE_MW, 4)
    assert law.call_count == 0
    # another operating point replaces the table, dropping the old one first
    held_while_building = []

    def build(cfg, pl):
        held_while_building.append(gains.__dict__.get("_power_table"))
        return per_rb_mw(cfg, pl)

    old = weakref.ref(table)
    del table
    with mock.patch.object(cell_selection.uplink_power, "per_rb_mw", side_effect=build):
        replaced = cell_selection._power_table(gains, second)
    assert held_while_building == [None]
    gc.collect()
    assert old() is None
    assert gains.__dict__["_power_table"][0] == second and gains.__dict__["_power_table"][1] is replaced
