"""Cell selection strategies and the interference-aware assignment search.

Four ways to pick a serving cell per user:

  * rsrp          argmax of downlink reference-signal received power;
  * pl            argmax of composite channel gain;
  * cre           argmax of RSRP plus a fixed pico offset;
  * interference  argmin of uplink interference-plus-noise over the
                  user's blocks normalized by the link gain, found by
                  asynchronous best-response passes from the rsrp start.

All interference arithmetic runs in linear milliwatts. A user's own
transmit power never enters its own metric, so candidate evaluation can
keep every other power fixed. A user's RB slot (index mod slots) never
changes, and only users of one slot share blocks, so the search is one
independent game per slot. The allocation and NetworkState's received
powers therefore keep their users in scheduler's per-slot layout, and
one kernel, _metric_rows, scores any batch of users with one stacked
product. The search walks each pass in steps of one user per slot,
scores a step's users together and commits its moves in index order. A move re-ranks only the mover's slot inside its old and new cell
and marks for re-evaluation only the users whose block it touched; a
search that returns to an earlier pass-end assignment is fast-forwarded
along its cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from hetsim import uplink_power
from hetsim.radio import GainMatrix, PICO
from hetsim.scheduler import Allocation, allocate, cochannel_interferers, per_slot
from hetsim.uplink_power import PowerConfig

VALID_KINDS = ("rsrp", "pl", "cre", "interference")

# relative improvement a move must achieve, guards against float churn
MOVE_REL_THRESHOLD = 1e-9

ORACLE_MAX_CELLS = 4
ORACLE_MAX_USERS = 6


@dataclass(frozen=True)
class StrategyConfig:
    kind: str
    cre_bias_db: float = 0.0       # applied to pico cells only
    max_passes: int = 20
    search_space: tuple[int, ...] | None = None  # None = every cell

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "cre":
            return f"cre{self.cre_bias_db:g}"
        return self.kind


@dataclass
class Assignment:
    """Serving-cell vector c plus bookkeeping of the iterative search."""

    c: np.ndarray
    converged: bool = True
    passes_used: int = 0
    moves_per_pass: list[int] = field(default_factory=list)
    cycle_period: int | None = None    # passes per cycle of a search that cycled
    cycle_detected_at: int | None = None  # pass whose end state repeated


@dataclass
class NetworkState:
    """Everything the interference metric needs about the current network.

    The allocation keeps its users in the per-slot layout of
    scheduler.per_slot, and rows[s, j] is the per-RB received power at
    every cell of the user at alloc.subframe[s, j] (zero rows pad short
    slots). The rows are built on first use: a state built only for SINR
    never needs them.
    """

    gains: GainMatrix
    serving: np.ndarray
    alloc: Allocation
    power_cfg: PowerConfig
    noise_rb_mw: float
    total_rbs: int
    total_power_dbm: np.ndarray
    per_rb_power_dbm: np.ndarray
    per_rb_power_mw: np.ndarray
    capped: np.ndarray

    @classmethod
    def build(
        cls,
        gains: GainMatrix,
        serving: np.ndarray,
        power_cfg: PowerConfig,
        noise_rb_mw: float,
        total_rbs: int = 48,
    ) -> "NetworkState":
        """State of an assignment. Coupling loss to the serving cell (the
        negative composite gain, shadowing included) is what the open-loop
        law compensates."""
        serving = np.asarray(serving, dtype=int)
        power = uplink_power.open_loop_power(power_cfg, -gains.g[serving, np.arange(len(serving))])
        return cls(
            gains=gains,
            serving=serving,
            alloc=allocate(serving, gains.n_cells, total_rbs, power_cfg.rbs_per_user),
            power_cfg=power_cfg,
            noise_rb_mw=noise_rb_mw,
            total_rbs=total_rbs,
            total_power_dbm=power.total_dbm,
            per_rb_power_dbm=power.per_rb_dbm,
            per_rb_power_mw=10.0 ** (power.per_rb_dbm / 10.0),
            capped=power.capped,
        )

    @cached_property
    def rows(self) -> np.ndarray:
        """(slots, users_per_slot, cells) per-RB received power of every user at every cell."""
        return per_slot(self.gains.g_linear.T * self.per_rb_power_mw[:, None], self.alloc.slots)

    def move_user(self, user: int, cell: int) -> np.ndarray:
        """Commit a serving-cell change; return the users whose metric it can change.

        A user's metric reads only who shares its block and their powers,
        and only the mover's power changes, so the users the allocation's
        move touches are all that can change. The mover's power and row
        are refreshed.
        """
        old_cell = int(self.serving[user])
        self.serving[user] = cell
        self.alloc, touched = self.alloc.move(self.serving, user, old_cell)

        one = slice(user, user + 1)
        power = uplink_power.open_loop_power(self.power_cfg, -self.gains.g[cell, one])
        mw = 10.0 ** (power.per_rb_dbm / 10.0)
        self.total_power_dbm[one] = power.total_dbm
        self.per_rb_power_dbm[one] = power.per_rb_dbm
        self.capped[one] = power.capped
        self.per_rb_power_mw[one] = mw
        pos, slot = divmod(user, self.alloc.slots)
        self.rows[slot, pos] = self.gains.g_linear[:, user] * mw
        return touched


def _argbest(values: np.ndarray, space: tuple[int, ...] | None, maximize: bool) -> np.ndarray:
    """Per-user argmax/argmin over the search space, lowest index on ties."""
    cells = np.arange(values.shape[0]) if space is None else np.asarray(space, dtype=int)
    sub = values[cells]
    pick = np.argmax(sub, axis=0) if maximize else np.argmin(sub, axis=0)
    return cells[pick]


def select_rsrp(gains: GainMatrix, search_space: tuple[int, ...] | None = None) -> Assignment:
    """Attach every user to the strongest downlink reference signal."""
    rsrp = gains.rs_power_dbm[:, None] + gains.g
    return Assignment(c=_argbest(rsrp, search_space, maximize=True))


def select_pl(gains: GainMatrix, search_space: tuple[int, ...] | None = None) -> Assignment:
    """Attach every user to the cell with the largest channel gain."""
    return Assignment(c=_argbest(gains.g, search_space, maximize=True))


def select_cre(gains: GainMatrix, cfg: StrategyConfig) -> Assignment:
    """RSRP selection with a constant range-expansion offset on picos."""
    bias = np.where(gains.cell_tier == PICO, cfg.cre_bias_db, 0.0)
    biased = gains.rs_power_dbm[:, None] + gains.g + bias[:, None]
    return Assignment(c=_argbest(biased, cfg.search_space, maximize=True))


def _metric_rows(users: np.ndarray, state: NetworkState) -> np.ndarray:
    """(len(users), cells) interference metric of each user against every cell.

    Blocks are aligned, so the co-scheduled set is identical on each of
    a user's RBs and the per-block sum is rbs_per_user times the
    single-RB term. Same-cell co-channel users cannot exist (orthogonal
    intra-cell allocation), so user k's co-set is every other user of
    its slot in its subframe. Its interference is mask_k @ rows[slot_k]
    with a 0/1 mask that is zero at k: one stacked product for the whole
    batch, a sum of nonnegative terms, and each row the same whatever
    else is in the batch.
    """
    users = np.asarray(users)
    pos, slot = np.divmod(users, state.alloc.slots)
    subframe = state.alloc.subframe[slot]
    batch = np.arange(len(users))
    mask = subframe == subframe[batch, pos][:, None]
    mask[batch, pos] = False
    if len(users) and (slot[1:] > slot[:-1]).all():
        # ascending slots (a search step): multiply the slot range in place
        # instead of copying each user's slot, zero masks on the gaps
        offset = slot - slot[0]
        stacked = np.zeros((offset[-1] + 1, 1, mask.shape[1]))
        stacked[offset, 0] = mask
        interference = np.matmul(stacked, state.rows[slot[0]:slot[-1] + 1])[offset, 0]
    else:
        interference = np.matmul(mask[:, None, :].astype(float), state.rows[slot])[:, 0]
    g_lin = state.gains.g_linear
    return state.power_cfg.rbs_per_user * (interference + state.noise_rb_mw) / g_lin[:, users].T


def interference_metric(user: int, cell: int, state: NetworkState) -> float:
    """Uplink interference-plus-noise per gain, summed over the user's RBs.

    Excludes the user's own transmission; all quantities linear (mW).
    """
    alloc = state.alloc
    g_lin = state.gains.g_linear
    total = 0.0
    for rb in alloc.rb_range(user):
        others = cochannel_interferers(alloc, state.serving, user, rb)
        i_mw = float(g_lin[cell, others] @ state.per_rb_power_mw[others]) if len(others) else 0.0
        total += (i_mw + state.noise_rb_mw) / g_lin[cell, user]
    return total


def adaptive_bias(user: int, serving: int, candidate: int, state: NetworkState) -> float:
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


def select_interference_based(
    gains: GainMatrix,
    power_cfg: PowerConfig,
    noise_rb_mw: float,
    cfg: StrategyConfig,
    total_rbs: int = 48,
    initial: np.ndarray | None = None,
) -> Assignment:
    """Asynchronous best-response search for the interference-based rule.

    Starts from the rsrp assignment (the standards-default incumbent).
    Users are visited in fixed index order; each moves to the cell
    minimizing its metric given the current state, and the move commits
    immediately (power and the slot's allocation refresh). A full pass
    without moves means convergence; ties prefer the incumbent cell.

    Users in different RB slots never affect each other, so a pass walks
    in steps of one user per slot (users slots*j .. slots*j + slots - 1),
    scores the step's users in one batched call and commits its movers in
    index order: the same moves, in the same per-slot order, as a visit
    of one user at a time.

    A user whose block no move has touched since it last stayed put is
    skipped: its metric vector, and so its choice, would be the same. The
    state after a pass is a pure function of the serving vector, so when
    a pass ends in the assignment an earlier pass j ended in, every later
    pass repeats with period p. The search then returns what a run of
    max_passes passes would: the assignment after pass
    j + (max_passes - j) % p, not converged, all passes used, and the
    moves of each pass extended periodically.
    """
    if initial is None:
        serving = select_rsrp(gains, cfg.search_space).c.copy()
    else:
        serving = np.asarray(initial, dtype=int).copy()
    state = NetworkState.build(gains, serving, power_cfg, noise_rb_mw, total_rbs)

    space = np.arange(gains.n_cells) if cfg.search_space is None else np.asarray(cfg.search_space, dtype=int)
    position = np.full(gains.n_cells, -1)   # cell -> its column in space
    position[space] = np.arange(len(space))
    if (position[state.serving] < 0).any():
        raise ValueError("initial assignment uses cells outside the search space")
    slots = state.alloc.slots
    dirty = np.ones(gains.n_users, dtype=bool)
    pass_ends = [state.serving.copy()]       # assignment after pass 0, 1, ...
    seen = {state.serving.tobytes(): 0}
    moves_per_pass: list[int] = []
    converged = False
    cycle_start = period = None
    while len(moves_per_pass) < cfg.max_passes:
        moves = 0
        for start in range(0, gains.n_users, slots):
            step = start + np.flatnonzero(dirty[start:start + slots])
            if not len(step):
                continue
            dirty[step] = False
            metrics = _metric_rows(step, state)[:, space]
            batch = np.arange(len(step))
            best = metrics.argmin(axis=1)
            current = state.serving[step]
            own = metrics[batch, position[current]]
            moving = (space[best] != current) & (metrics[batch, best] < own * (1.0 - MOVE_REL_THRESHOLD))
            for k, cell in zip(step[moving].tolist(), space[best[moving]].tolist()):
                dirty[state.move_user(k, cell)] = True
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


@dataclass(frozen=True)
class OracleResult:
    stable: list[tuple[int, ...]]          # all unilaterally stable assignments
    min_total: tuple[int, ...]             # assignment minimizing the metric sum
    min_total_value: float


def brute_force_oracle(
    gains: GainMatrix,
    power_cfg: PowerConfig,
    noise_rb_mw: float,
    total_rbs: int = 48,
    search_space: tuple[int, ...] | None = None,
) -> OracleResult:
    """Exhaustive stability check over every possible assignment.

    Independent of the best-response path: re-derives powers, blocks and
    metrics from scratch for each of the |cells|^K assignments. Stability
    uses the same strict-improvement margin as the iterative search.
    """
    cells = tuple(range(gains.n_cells)) if search_space is None else tuple(search_space)
    n_users = gains.n_users
    if len(cells) > ORACLE_MAX_CELLS or n_users > ORACLE_MAX_USERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_CELLS} cells x {ORACLE_MAX_USERS} users, "
            f"got {len(cells)} x {n_users}"
        )

    stable: list[tuple[int, ...]] = []
    best_combo: tuple[int, ...] | None = None
    best_total = np.inf
    cell_arr = np.asarray(cells, dtype=int)
    users = np.arange(n_users)
    for combo in itertools.product(cells, repeat=n_users):
        serving = np.array(combo, dtype=int)
        state = NetworkState.build(gains, serving, power_cfg, noise_rb_mw, total_rbs)
        metrics = _metric_rows(users, state)[:, cell_arr]
        own = metrics[users, [cells.index(c) for c in combo]]
        total = own.sum()
        if not (metrics.min(axis=1) < own * (1.0 - MOVE_REL_THRESHOLD)).any():
            stable.append(combo)
        if total < best_total:
            best_total = total
            best_combo = combo

    return OracleResult(stable=stable, min_total=best_combo, min_total_value=float(best_total))
