"""Scalar reference forms of the interference metric, the SINR and the
block lookups, one user and one RB at a time.

No simulator path calls these. The search, the brute-force oracle and
the drop runner use the batched kernels; the tests check those kernels
against these forms, and the acceptance suite builds its independent
checks on them.
"""

import math

import numpy as np

from hetsim.metrics import SUBCARRIERS_PER_RB, wideband_sinr

_EMPTY = np.array([], dtype=int)


# ---- block lookups of an Allocation --------------------------------------------


def subframes_per_epoch(alloc) -> int:
    return int(alloc.subframe.max(initial=0)) + 1


def rb_range(alloc, user: int) -> range:
    start = int(alloc.user_rb_start[user])
    return range(start, start + alloc.rbs_per_user)


def block_members(alloc, subframe: int, rb_start: int) -> np.ndarray:
    """Users whose block is exactly (subframe, rb_start), ascending."""
    return np.flatnonzero(alloc.block_key == subframe * alloc.total_rbs + rb_start)


def blocks(alloc):
    """Iterate ((subframe, rb_start), member users) over occupied blocks.

    Blocks come in ascending id order; members in ascending user order.
    """
    key = alloc.block_key
    for block in np.unique(key):
        yield divmod(int(block), alloc.total_rbs), np.flatnonzero(key == block)


def cochannel_interferers(alloc, serving: np.ndarray, user: int, rb: int) -> np.ndarray:
    """Users of other cells transmitting on rb in the user's subframe.

    Blocks are aligned multiples of rbs_per_user, so a block covers rb
    iff it starts at the containing aligned boundary. Same-cell users
    never appear (intra-cell allocations are disjoint by construction,
    and they are filtered regardless).
    """
    serving = np.asarray(serving, dtype=int)
    if user < 0 or user >= len(serving):
        raise IndexError(f"user {user} out of range")
    if not 0 <= rb < alloc.total_rbs:
        raise ValueError(f"rb {rb} outside [0, {alloc.total_rbs})")
    sf = int(alloc.user_subframe[user])
    block_start = (rb // alloc.rbs_per_user) * alloc.rbs_per_user
    members = block_members(alloc, sf, block_start)
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
    alloc = state.alloc
    g_lin = state.gains.g_linear
    total = 0.0
    for rb in rb_range(alloc, user):
        others = cochannel_interferers(alloc, state.serving, user, rb)
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
    alloc = state.alloc
    start = int(alloc.user_rb_start[user])
    if not start <= rb < start + alloc.rbs_per_user:
        raise ValueError(f"user {user} is not scheduled on rb {rb}")
    g_lin = state.gains.g_linear
    cell = int(state.serving[user])
    signal = state.per_rb_power_mw[user] * g_lin[cell, user]
    others = cochannel_interferers(alloc, state.serving, user, rb)
    interference = float(g_lin[cell, others] @ state.per_rb_power_mw[others]) if len(others) else 0.0
    return float(signal / (interference + state.noise_rb_mw))


def user_wideband_sinr_db(user: int, state) -> float:
    """Wideband SINR (dB) over the user's blocks in its scheduled subframe."""
    per_rb = [per_rb_sinr(user, rb, state) for rb in rb_range(state.alloc, user)]
    per_sc = np.repeat(per_rb, SUBCARRIERS_PER_RB)
    return 10.0 * math.log10(wideband_sinr(per_sc))
