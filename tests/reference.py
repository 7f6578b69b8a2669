"""Scalar reference forms of the interference metric, the SINR and the
block lookups, one user and one RB at a time, and the former forms of
the search path.

No simulator path calls these. The search, the brute-force oracle and
the drop runner use the batched kernels; the tests check those kernels
against these forms, and the acceptance suite builds its independent
checks on them. The search as it was before it scored by pass position
(metric_rows, allocation_move, former_search) is kept for the tests
that compare the search and its in-place moves against it; former_search
is the reference of the search's move stamps, and without skipping the
reference of the skip rule. former_oracle_mask is the co-block mask
that the brute-force oracle built per instance over padded subframes,
before its shape tables took coblock_mask's, and former_oracle_gather
the (A, K, U) row index it gathered every user's slot rows by, before
it gathered each slot's rows once. former_oracle_instances and
former_random_small_gains draw the oracle suite's instances as harness
did before it drew the tiers in one call and alpha by index; the tests
require the same instances and the same generator state from both.
"""

import itertools
import math

import numpy as np

from hetsim.cell_selection import MOVE_REL_THRESHOLD, Assignment, NetworkState, _block_metric
from hetsim.metrics import SUBCARRIERS_PER_RB, wideband_sinr
from hetsim.radio import MACRO, PICO, GainMatrix, RadioParams
from hetsim.scheduler import per_slot
from hetsim.uplink_power import PowerConfig

_EMPTY = np.array([], dtype=int)


RBS = PowerConfig.rbs_per_user


# ---- block lookups of a per-slot subframe array ----------------------------------


def subframes_per_epoch(subframe) -> int:
    return int(subframe.max(initial=0)) + 1


def user_blocks(subframe, n_users: int, rbs_per_user: int = RBS) -> tuple[np.ndarray, np.ndarray]:
    """(K,) subframe and (K,) first RB of each user's block.

    User k sits at [k % slots, k // slots] of the per-slot array and
    transmits on the RBs of slot k % slots.
    """
    slots = len(subframe)
    slot, pos = np.arange(n_users) % slots, np.arange(n_users) // slots
    return subframe[slot, pos], slot * rbs_per_user


def rb_range(subframe, user: int, rbs_per_user: int = RBS) -> range:
    start = user % len(subframe) * rbs_per_user
    return range(start, start + rbs_per_user)


def block_members(subframe, n_users: int, sf: int, rb_start: int, rbs_per_user: int = RBS) -> np.ndarray:
    """Users whose block is exactly (sf, rb_start), ascending."""
    user_sf, user_start = user_blocks(subframe, n_users, rbs_per_user)
    return np.flatnonzero((user_sf == sf) & (user_start == rb_start))


def blocks(subframe, n_users: int, rbs_per_user: int = RBS):
    """Iterate ((subframe, rb_start), member users) over occupied blocks.

    Blocks come in ascending (subframe, rb_start) order; members in
    ascending user order.
    """
    user_sf, user_start = user_blocks(subframe, n_users, rbs_per_user)
    for block in sorted(set(zip(user_sf.tolist(), user_start.tolist()))):
        yield block, np.flatnonzero((user_sf == block[0]) & (user_start == block[1]))


def cochannel_interferers(subframe, serving: np.ndarray, user: int, rb: int, rbs_per_user: int = RBS) -> np.ndarray:
    """Users of other cells transmitting on rb in the user's subframe.

    Blocks are aligned multiples of rbs_per_user, so a block covers rb
    iff it starts at the containing aligned boundary. Same-cell users
    never appear (intra-cell allocations are disjoint by construction,
    and they are filtered regardless).
    """
    serving = np.asarray(serving, dtype=int)
    if user < 0 or user >= len(serving):
        raise IndexError(f"user {user} out of range")
    total_rbs = len(subframe) * rbs_per_user
    if not 0 <= rb < total_rbs:
        raise ValueError(f"rb {rb} outside [0, {total_rbs})")
    sf = int(subframe[user % len(subframe), user // len(subframe)])
    block_start = (rb // rbs_per_user) * rbs_per_user
    members = block_members(subframe, len(serving), sf, block_start, rbs_per_user)
    if len(members) == 0:
        return _EMPTY
    keep = (members != user) & (serving[members] != serving[user])
    return members[keep]


# ---- link measurements and the interference metric ------------------------------


def rsrp_dbm(gains, cell: int, user: int) -> float:
    """Downlink reference-signal received power of one link."""
    return float(gains.rs_power_dbm[cell] + gains.g[cell, user])


def interference_metric(user: int, cell: int, state) -> float:
    """Uplink interference-plus-noise per gain, summed over the user's RBs.

    Excludes the user's own transmission; all quantities linear (mW).
    """
    rbs = state.power_cfg.rbs_per_user
    g_lin = state.gains.g_linear
    total = 0.0
    for rb in rb_range(state.subframe, user, rbs):
        others = cochannel_interferers(state.subframe, state.serving, user, rb, rbs)
        i_mw = float(g_lin[cell, others] @ state.per_rb_power_mw[others]) if len(others) else 0.0
        total += (i_mw + state.noise_rb_mw) / g_lin[cell, user]
    return total


def adaptive_bias(user: int, serving: int, candidate: int, state) -> float:
    """Equivalent range-expansion offset of the interference comparison.

    Linear ratio (p_cand/p_serv) * (I_cand - own contribution) / I_serv;
    values below 1 favor the candidate. Diagnostic companion of the
    argmin rule: candidate wins iff RSRP_cand > RSRP_serv * bias.
    """
    g_lin = state.gains.g_linear
    num = interference_metric(user, candidate, state) * g_lin[candidate, user]
    den = interference_metric(user, serving, state) * g_lin[serving, user]
    p_ratio = 10.0 ** ((state.gains.rs_power_dbm[candidate] - state.gains.rs_power_dbm[serving]) / 10.0)
    return float(p_ratio * num / den)


# ---- SINR --------------------------------------------------------------------------


def per_rb_sinr(user: int, rb: int, state) -> float:
    """Linear SINR of one user on one of its own resource blocks."""
    rbs = state.power_cfg.rbs_per_user
    if rb not in rb_range(state.subframe, user, rbs):
        raise ValueError(f"user {user} is not scheduled on rb {rb}")
    g_lin = state.gains.g_linear
    cell = int(state.serving[user])
    signal = state.per_rb_power_mw[user] * g_lin[cell, user]
    others = cochannel_interferers(state.subframe, state.serving, user, rb, rbs)
    interference = float(g_lin[cell, others] @ state.per_rb_power_mw[others]) if len(others) else 0.0
    return float(signal / (interference + state.noise_rb_mw))


def user_wideband_sinr_db(user: int, state) -> float:
    """Wideband SINR (dB) over the user's blocks in its scheduled subframe."""
    per_rb = [per_rb_sinr(user, rb, state) for rb in rb_range(state.subframe, user, state.power_cfg.rbs_per_user)]
    per_sc = np.repeat(per_rb, SUBCARRIERS_PER_RB)
    return 10.0 * math.log10(wideband_sinr(per_sc))


# ---- the search path before it scored by pass position -----------------------------


def metric_rows(users: np.ndarray, state: NetworkState) -> np.ndarray:
    """(len(users), cells) interference metric of each user against every cell.

    Blocks are aligned, so the co-scheduled set is identical on each of
    a user's RBs and the per-block sum is rbs_per_user times the
    single-RB term. Same-cell co-channel users cannot exist (orthogonal
    intra-cell allocation), so user k's co-set is every other user of
    its slot in its subframe: a 0/1 mask over the slot that is zero at
    k, and its interference is a sum of nonnegative terms.
    """
    users = np.asarray(users)
    pos, slot = np.divmod(users, state.slots)
    subframe = state.subframe[slot]
    batch = np.arange(len(users))
    mask = subframe == subframe[batch, pos][:, None]
    mask[batch, pos] = False
    gain = state.gains.g_linear[:, users].T
    rbs, noise = state.power_cfg.rbs_per_user, state.noise_rb_mw
    if len(users) > 1 and (slot[1:] > slot[:-1]).all():
        # ascending slots (a search step): multiply the slot range in place
        # instead of copying each user's slot, zero masks and unit gains on
        # the gaps, whose rows are dropped
        offset = slot - slot[0]
        stacked = np.zeros((offset[-1] + 1, mask.shape[1]))
        stacked[offset] = mask
        spanned = np.ones((offset[-1] + 1, gain.shape[1]))
        spanned[offset] = gain
        return _block_metric(stacked, state.rows[slot[0]:slot[-1] + 1], spanned, rbs, noise)[offset]
    return _block_metric(mask.astype(float), state.rows[slot], gain, rbs, noise)


def allocation_move(subframe, serving: np.ndarray, user: int, old_cell: int) -> np.ndarray:
    """Subframes after `user` moved from old_cell to serving[user].

    Equal to allocate(serving, ...): only the ranks of the user's slot
    inside its old and new cell can change, so only that slot is
    re-ranked, in a copy.
    """
    slots = len(subframe)
    slot, pos = user % slots, user // slots
    cells = serving[slot::slots]
    moved = subframe.copy()
    for cell in (old_cell, cells[pos]):
        group = np.flatnonzero(cells == cell)
        moved[slot, group] = np.arange(len(group))
    return moved


def former_search(gains, power_cfg, noise_rb_mw, cfg, total_rbs=48, skip=True, steps=None) -> Assignment:
    """select_interference_based as it was before it scored by pass position.

    A pass walks in steps of one user per slot and scores each step's
    dirty users through metric_rows; a move marks every user of the
    mover's slot dirty, the per-user rule that the search's per-slot move
    stamps reproduce. The moves, the cycle fast-forward and the
    bookkeeping are those of the search. With skip=False every user is
    re-scored on every pass. Its rsrp start is computed afresh. A list
    steps receives, for each scored step, its users, a copy of the dirty
    flags left once they are cleared, and the users that move.
    """
    rsrp = np.argmax(gains.rs_power_dbm[:, None] + gains.g, axis=0)
    state = NetworkState.build(gains, rsrp, power_cfg, noise_rb_mw, total_rbs)
    slots = state.slots
    dirty = np.ones(gains.n_users, dtype=bool)
    pass_ends = [state.serving.copy()]       # assignment after pass 0, 1, ...
    seen = {state.serving.tobytes(): 0}
    moves_per_pass: list[int] = []
    converged = False
    cycle_start = period = None
    while len(moves_per_pass) < cfg.max_passes:
        moves = 0
        if not skip:
            dirty[:] = True
        for start in range(0, gains.n_users, slots):
            step = start + np.flatnonzero(dirty[start:start + slots])
            if not len(step):
                continue
            dirty[step] = False
            metrics = metric_rows(step, state)
            batch = np.arange(len(step))
            best = metrics.argmin(axis=1)
            current = state.serving[step]
            own = metrics[batch, current]
            moving = (best != current) & (metrics[batch, best] < own * (1.0 - MOVE_REL_THRESHOLD))
            if steps is not None:
                steps.append((step, dirty.copy(), step[moving]))
            for k, cell in zip(step[moving].tolist(), best[moving].tolist()):
                state.move_user(k, cell)
                dirty[k % slots::slots] = True
                moves += 1
        moves_per_pass.append(moves)
        if moves == 0:
            converged = True
            break
        end = state.serving.tobytes()
        if end in seen:
            cycle_start = seen[end]
            period = len(moves_per_pass) - cycle_start
            break
        seen[end] = len(moves_per_pass)
        pass_ends.append(state.serving.copy())

    c = state.serving.copy()
    detected = None
    if period:
        detected = len(moves_per_pass)
        c = pass_ends[cycle_start + (cfg.max_passes - cycle_start) % period]
        while len(moves_per_pass) < cfg.max_passes:
            moves_per_pass.append(moves_per_pass[-period])
    return Assignment(
        c=c,
        converged=converged,
        passes_used=len(moves_per_pass),
        moves_per_pass=moves_per_pass,
        cycle_period=period,
        cycle_detected_at=detected,
    )


# ---- the brute-force oracle's mask as it was built per instance -------------------


def former_oracle_mask(n_cells: int, n_users: int, slots: int) -> np.ndarray:
    """(A, K, U) 0/1 float co-block mask of every user of every assignment.

    Assignments come in itertools.product order, and U is the users of a
    slot. A user's subframe is the number of lower-index users of its
    slot and cell; a user n_users in subframe -1 pads short slots, and
    each user's own entry is cleared.
    """
    grid = np.array(list(itertools.product(range(n_cells), repeat=n_users)), dtype=int).reshape(-1, n_users)
    users = np.arange(n_users)
    slot = users % slots
    earlier = np.tril(slot[:, None] == slot[None, :], -1)
    subframe = ((grid[:, :, None] == grid[:, None, :]) & earlier).sum(axis=2)
    members = per_slot(users, slots, fill=n_users)[slot]
    padded = np.pad(subframe, ((0, 0), (0, 1)), constant_values=-1)
    mask = padded[:, members] == subframe[:, :, None]
    mask[:, users, users // slots] = False
    return mask.astype(float)


def former_oracle_gather(n_cells: int, n_users: int, slots: int) -> np.ndarray:
    """(A, K, U) row of each of a user's slot users in a flat (user, serving cell) table.

    Assignments come in itertools.product order, and U is the users of a
    slot: entry [a, k, u] is member u of user k's slot, times n_cells,
    plus its serving cell in assignment a. A padding member reads row
    n_users * n_cells, a zero row of received power.
    """
    grid = np.array(list(itertools.product(range(n_cells), repeat=n_users)), dtype=int).reshape(-1, n_users)
    users = np.arange(n_users)
    slot = users % slots
    members = per_slot(users, slots, fill=n_users)[slot]
    return members * n_cells + per_slot(grid.T, slots).transpose(2, 0, 1)[:, slot]


# ---- the oracle suite's instances, as first drawn ----------------------------------


def former_random_small_gains(rng: np.random.Generator, n_cells: int, n_users: int) -> GainMatrix:
    """harness.random_small_gains with one uniform draw per pico-or-macro tier."""
    g = rng.uniform(-130.0, -80.0, size=(n_cells, n_users))
    tier = np.array([MACRO] + [MACRO if rng.uniform() < 0.5 else PICO for _ in range(n_cells - 1)])
    rs = np.where(tier == MACRO, RadioParams.macro_rs_power_dbm, RadioParams.pico_rs_power_dbm)
    return GainMatrix(g=g, cell_tier=tier, rs_power_dbm=rs)


def former_oracle_instances(count: int, seed: int = 0):
    """harness.oracle_instances with alpha drawn by rng.choice."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_cells = int(rng.integers(2, 4))
        n_users = int(rng.integers(3, 6))
        gains = former_random_small_gains(rng, n_cells, n_users)
        alpha = float(rng.choice([0.4, 0.6, 0.8, 1.0]))
        yield gains, PowerConfig(p0_dbm=-90.0, alpha=alpha)
