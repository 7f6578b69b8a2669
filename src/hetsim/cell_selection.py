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
independent game per slot. NetworkState therefore keeps the
allocation, each user's subframe, the received powers and the link
gains in scheduler's per-slot layout, and one kernel, _block_metric,
scores any batch of users with one stacked product: the search feeds it
a span of slots at one position, and the brute-force oracle every user
of every assignment at once. Its co-block sum, coblock_interference,
is also the interference of the SINR that harness reports. The search
walks each pass position by position. A slot is live at a position if
one of its users moved since the slot's user there was last scored, and
every slot is live in the first pass; per-slot move stamps tell which.
The slots between the first and the last live one are scored together,
and the movers commit in index order. Scoring a clean slot in the span is harmless: its row
has the bits it had when its user last stayed, so the user stays again.
A move re-ranks only the mover's slot, in place, reads the mover's power
from a per-(cell, user) open-loop table and stamps its slot; a search
that returns to an earlier pass-end assignment is fast-forwarded along
its cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from hetsim import uplink_power
from hetsim.radio import GainMatrix, PICO
from hetsim.scheduler import DATA_RBS, allocate, per_slot, slot_count
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


def _strongest(gains: GainMatrix, bias: np.ndarray | None = None) -> np.ndarray:
    """Each user's cell of largest rs_power_dbm + g (+ bias), lowest cell on ties.

    The sums are taken into a (K, C) array, so the argmax runs along its
    rows and needs no transposed copy.
    """
    received = np.add(gains.g.T, gains.rs_power_dbm, order="C")
    if bias is not None:
        received += bias
    return received.argmax(axis=1)


def _rsrp_cells(gains: GainMatrix) -> np.ndarray:
    """Each user's strongest-RSRP cell, lowest cell on ties.

    Computed once and kept on the gains object, as _g_slot is, so the
    rsrp baseline and every search start of a drop share it. Callers
    that may write into it take a copy.
    """
    cells = gains.__dict__.get("_rsrp_cells")
    if cells is None:
        cells = gains.__dict__["_rsrp_cells"] = _strongest(gains)
    return cells


def _g_slot(gains: GainMatrix, slots: int) -> np.ndarray:
    """gains.g_linear.T in the per-slot layout, (slots, users per slot, C).

    Built once per slot count and kept on the gains object, so the
    searches of a drop share it. Padding rows hold 1.0, finite gains that
    no live user reads.
    """
    layouts = gains.__dict__.setdefault("_g_slot", {})
    if slots not in layouts:
        layouts[slots] = per_slot(gains.g_linear.T, slots, fill=1.0)
    return layouts[slots]


def _power_table(gains: GainMatrix, power_cfg: PowerConfig) -> np.ndarray:
    """(C, K) per-RB open-loop power in mW of every user at every cell.

    Kept on the gains object for one operating point at a time, as
    _rsrp_cells is: a search, its moves and the oracle of the same
    instance share it. The table of another operating point is dropped
    before the next is built, so a drop never holds two.
    """
    table = _held_table(gains, power_cfg)
    if table is None:
        gains.__dict__.pop("_power_table", None)
        table = uplink_power.per_rb_mw(power_cfg, -gains.g)
        gains.__dict__["_power_table"] = (power_cfg, table)
    return table


def _held_table(gains: GainMatrix, power_cfg: PowerConfig) -> np.ndarray | None:
    """The _power_table that gains holds if it is of power_cfg, else None."""
    held = gains.__dict__.get("_power_table")
    return held[1] if held is not None and held[0] == power_cfg else None


def _served_mw(gains: GainMatrix, serving: np.ndarray, power_cfg: PowerConfig) -> np.ndarray:
    """Per-RB power in mW of each user on its link to its serving cell.

    Gathered from the held _power_table when it is of power_cfg, and
    otherwise the law on the served links alone; the entries have the
    same bits either way.
    """
    users = np.arange(len(serving))
    table = _held_table(gains, power_cfg)
    if table is not None:
        return table[serving, users]
    return uplink_power.per_rb_mw(power_cfg, -gains.g[serving, users])


@dataclass
class NetworkState:
    """Everything the interference metric needs about the current network.

    subframe is the allocation, in the per-slot layout of scheduler.allocate,
    and rows[s, j] is the per-RB received power at every cell of the user at
    subframe[s, j] (zero rows pad short slots). The rows are built on first
    use, and power_table is fetched on the first move: a state built only
    for SINR never needs them.
    """

    gains: GainMatrix
    serving: np.ndarray
    subframe: np.ndarray
    power_cfg: PowerConfig
    noise_rb_mw: float
    per_rb_power_mw: np.ndarray

    @classmethod
    def build(
        cls,
        gains: GainMatrix,
        serving: np.ndarray,
        power_cfg: PowerConfig,
        noise_rb_mw: float,
        total_rbs: int = DATA_RBS,
    ) -> "NetworkState":
        """State of an assignment; each user's power follows its link to its serving cell."""
        serving = np.asarray(serving, dtype=int)
        return cls(
            gains=gains,
            serving=serving,
            subframe=allocate(serving, gains.n_cells, total_rbs, power_cfg.rbs_per_user),
            power_cfg=power_cfg,
            noise_rb_mw=noise_rb_mw,
            per_rb_power_mw=_served_mw(gains, serving, power_cfg),
        )

    def with_power(self, power_cfg: PowerConfig) -> "NetworkState":
        """The same assignment and allocation at another operating point.

        The allocation does not depend on P0 or alpha, only on the block
        size, so power_cfg must have this state's rbs_per_user; run_drop's
        operating points all share the scenario's. The serving and
        subframe arrays are shared, not copied.
        """
        mw = _served_mw(self.gains, self.serving, power_cfg)
        return NetworkState(self.gains, self.serving, self.subframe, power_cfg, self.noise_rb_mw, mw)

    @property
    def slots(self) -> int:
        return len(self.subframe)

    @property
    def capped(self) -> np.ndarray:
        """Whether the power cap holds each user on its link to its serving cell."""
        served = self.gains.g[self.serving, np.arange(len(self.serving))]
        return uplink_power.open_loop_power(self.power_cfg, -served).capped

    @cached_property
    def g_slot(self) -> np.ndarray:
        """(slots, users_per_slot, cells) link gain of every user at every cell, shared per drop."""
        return _g_slot(self.gains, self.slots)

    @cached_property
    def rows(self) -> np.ndarray:
        """(slots, users_per_slot, cells) per-RB received power of every user at every cell."""
        mw = per_slot(self.per_rb_power_mw, self.slots)
        return self.g_slot * mw[:, :, None]

    @cached_property
    def power_table(self) -> np.ndarray:
        """(cells, K) per-RB open-loop power in mW of every user at every cell, the held _power_table."""
        return _power_table(self.gains, self.power_cfg)

    def move_user(self, user: int, cell: int) -> None:
        """Commit a serving-cell change; a move to the current cell changes nothing.

        Only the mover's slot is re-ranked, in place: its later users of the
        old cell move one subframe earlier, those of the new cell one later,
        and the mover takes its rank in the new cell. When neither cell
        serves a later user of the slot, no later rank changes and the loop
        is skipped. Only the mover's power and row change; the power is read
        from power_table and the row written in place.
        """
        slots = self.slots
        pos, slot = divmod(user, slots)
        old_cell = int(self.serving[user])
        if cell == old_cell:
            return
        self.serving[user] = cell
        cells = self.serving[slot::slots].tolist()
        row = self.subframe[slot]
        later = cells[pos + 1:]
        if old_cell in later or cell in later:
            for rank, later_cell in enumerate(later, pos + 1):
                if later_cell == old_cell:
                    row[rank] -= 1
                elif later_cell == cell:
                    row[rank] += 1
        row[pos] = cells[:pos].count(cell)

        mw = self.power_table[cell, user]
        self.per_rb_power_mw[user] = mw
        np.multiply(self.g_slot[slot, pos], mw, out=self.rows[slot, pos])


def select_rsrp(gains: GainMatrix) -> Assignment:
    """Attach every user to the strongest downlink reference signal, lowest cell on ties."""
    return Assignment(c=_rsrp_cells(gains).copy())


def select_pl(gains: GainMatrix) -> Assignment:
    """Attach every user to the cell with the largest channel gain, lowest cell on ties."""
    return Assignment(c=np.argmax(gains.g, axis=0))


def select_cre(gains: GainMatrix, cfg: StrategyConfig) -> Assignment:
    """RSRP selection with a constant range-expansion offset on picos."""
    return Assignment(c=_strongest(gains, np.where(gains.cell_tier == PICO, cfg.cre_bias_db, 0.0)))


def coblock_mask(subframe, j=None):
    """0/1 float co-block masks of a slot-major subframe layout (S, D).

    Blocks are aligned and same-cell users never share one, so the co-set
    of the user at [s, j] on each of its RBs is every other user of slot s
    in its subframe. With j, the (S, D) mask of the user at position j of
    every slot, zero at column j; without, the (S, D, D) masks of every
    position, mask[s, j] zero at [s, j, j]. Padding sits in subframe -1,
    so no user's mask reaches it.
    """
    slots, depth = subframe.shape
    if j is not None:
        mask = np.empty((slots, depth))
        np.equal(subframe, subframe[:, j:j + 1], out=mask)
        mask[:, j] = 0.0
        return mask
    mask = np.empty((slots, depth, depth))
    np.equal(subframe[:, :, None], subframe[:, None, :], out=mask)
    mask[:, np.arange(depth), np.arange(depth)] = 0.0
    return mask


def coblock_interference(mask, rows):
    """(..., C) per-RB interference on each user's block, mask @ rows in one stacked product.

    mask is (..., U) 0/1 floats over a slot's U users, one where a user
    shares the block, zero at the user itself, and rows is (..., U, C),
    those users' per-RB received power at C cells. Each item is a
    (1, U) @ (U, C) product, so a user's row has the same bits in any batch.
    """
    return np.matmul(mask[..., None, :], rows)[..., 0, :]


def _block_metric(mask, rows, gain, rbs_per_user, noise_rb_mw):
    """rbs_per_user * (I + noise) / gain, the metric of users against every cell.

    I is coblock_interference(mask, rows). The arithmetic runs in place
    on the product, in the order of the formula.
    """
    metric = coblock_interference(mask, rows)
    metric += noise_rb_mw
    metric *= rbs_per_user
    metric /= gain
    return metric


def _position_metrics(state: NetworkState, j: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, cells) metric of the user at position j of each slot lo .. hi - 1.

    Every slot of the span must have a user at j. The product runs over
    the span as views, with the coblock_mask of position j.
    """
    return _block_metric(
        coblock_mask(state.subframe[lo:hi], j), state.rows[lo:hi], state.g_slot[lo:hi, j],
        state.power_cfg.rbs_per_user, state.noise_rb_mw,
    )


def select_interference_based(
    gains: GainMatrix,
    power_cfg: PowerConfig,
    noise_rb_mw: float,
    cfg: StrategyConfig,
    total_rbs: int = DATA_RBS,
) -> Assignment:
    """Asynchronous best-response search for the interference-based rule.

    Starts from the rsrp assignment (the standards-default incumbent), a
    copy of the rsrp cells kept on the gains, so the searches of a drop
    compute that start once and never write into it. The power table of
    power_cfg is taken first and held on the gains (_power_table), so
    the start state, the moves and an oracle of the same instance
    evaluate the power law once.
    Users are visited in fixed index order; each moves to the cell
    minimizing its metric given the current state, and the move commits
    immediately (power and the slot's allocation refresh). A full pass
    without moves means convergence; ties prefer the incumbent cell.

    Users in different RB slots never affect each other, so a pass walks
    the positions j of the per-slot layout, one user per slot (users
    slots*j .. slots*j + slots - 1), scores a span of a position's users
    in one batched call and commits its movers in index order: the same
    moves, in the same per-slot order, as a visit of one user at a time.

    Every position of every pass gets a stamp, one more than the last,
    and a move stamps its slot with the position's stamp. A slot is live
    at a position when its last move came at or after its visit to that
    position in the previous pass, and every slot is live in the first
    pass: a slot that is not live has had no move since its user there
    stayed put. A position with no live slot is skipped, and otherwise
    the span from its first to its last live slot is scored. A clean slot
    inside the span is scored too, harmlessly: users of other slots never
    enter its metric, and a row has the same bits in any batch, so its
    metric vector is the one its user stayed with, and it stays again.
    A move needs a strict relative gain, so the incumbent cell never
    passes the test, and no row moves to the cell it is in.

    The state after a pass is a pure function of the serving vector, so
    when a pass ends in the assignment an earlier pass j ended in, every
    later pass repeats with period p. The search then returns what a run
    of max_passes passes would: the assignment after pass
    j + (max_passes - j) % p, not converged, all passes used, and the
    moves of each pass extended periodically.
    """
    # the start state gathers its powers from the held table, and the moves read it
    _power_table(gains, power_cfg)
    # a copy: the search moves users in its state's serving vector
    state = NetworkState.build(gains, _rsrp_cells(gains).copy(), power_cfg, noise_rb_mw, total_rbs)
    slots, n_users = state.slots, gains.n_users
    positions = -(-n_users // slots)         # per pass
    batch = np.arange(slots)
    last = np.full(slots, -1)                # stamp of each slot's last move
    pass_ends = [state.serving.copy()]       # assignment after pass 0, 1, ...
    seen = {state.serving.tobytes(): 0}
    moves_per_pass: list[int] = []
    converged = False
    cycle_start = period = None
    while len(moves_per_pass) < cfg.max_passes:
        moves = 0
        stamp = len(moves_per_pass) * positions
        for j, start in enumerate(range(0, n_users, slots)):
            live = (last[:n_users - start] >= stamp + j - positions).nonzero()[0]
            if not len(live):
                continue
            lo, hi = int(live[0]), int(live[-1]) + 1
            metrics = _position_metrics(state, j, lo, hi)
            index = batch[:hi - lo]
            best = metrics.argmin(axis=1)
            own = metrics[index, state.serving[start + lo:start + hi]]
            moving = (metrics[index, best] < own * (1.0 - MOVE_REL_THRESHOLD)).nonzero()[0]
            if not len(moving):
                continue
            for i in moving.tolist():
                state.move_user(start + lo + i, int(best[i]))
            last[lo + moving] = stamp + j
            moves += len(moving)
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


@lru_cache(maxsize=8)
def _assignment_tables(n_cells: int, n_users: int, slots: int) -> tuple[np.ndarray, ...]:
    """The read-only tables of every assignment of one instance shape.

    Returns grid, (A, K) the serving cells of each assignment in
    itertools.product order; own, (A, K) the flat index
    (a * K + k) * n_cells + grid[a, k] of each user's own-cell entry in
    an (A, K, n_cells) metric array; mask, (A, K, U) the coblock_mask of
    every user of every assignment over the U users of its slot; and
    gather, (A, K, U) the row of each of those users in a flat (user,
    serving cell) table of received power, where padding reads row
    n_users * n_cells. A user's subframe is the number of lower-index
    users of its slot and cell. The tables depend on the shape alone, so
    they are built once per shape and shared; the cache holds the oracle
    suite's six shapes.
    """
    grid = np.array(list(itertools.product(range(n_cells), repeat=n_users)), dtype=int).reshape(-1, n_users)
    users = np.arange(n_users)
    slot, pos = users % slots, users // slots
    earlier = np.tril(slot[:, None] == slot[None, :], -1)
    subframe = ((grid[:, :, None] == grid[:, None, :]) & earlier).sum(axis=2)          # (A, K)
    # every assignment in the per-slot layout, (A, slots, depth), padding in subframe -1
    layout = per_slot(subframe.T, slots, fill=-1).transpose(2, 0, 1)
    depth = layout.shape[2]
    mask = coblock_mask(layout.reshape(-1, depth)).reshape(layout.shape + (depth,))[:, slot, pos]
    members = per_slot(users, slots, fill=n_users)[slot]                                # (K, U)
    gather = members * n_cells + per_slot(grid.T, slots).transpose(2, 0, 1)[:, slot]
    own = np.arange(grid.size).reshape(grid.shape) * n_cells + grid
    for table in (grid, own, mask, gather):
        table.flags.writeable = False
    return grid, own, mask, gather


def _assignment_metrics(
    gains: GainMatrix,
    power_cfg: PowerConfig,
    noise_rb_mw: float,
    total_rbs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every assignment of the users to cells and its metric array.

    Returns grid, (A, K) the serving cells of each assignment in
    itertools.product order; own, (A, K) the flat index of each user's
    own-cell entry in metrics; and metrics, (A, K, n_cells) the metric
    of every user of every assignment against every cell. The grid, the
    own-index and the masks come from _assignment_tables, shared by
    every instance of the shape, and the powers from the held
    _power_table, shared with the search of the instance; only the
    received powers, their gather and the kernel run per instance. A
    band that the blocks do not tile raises allocate's ValueError.
    """
    n_users, n_cells = gains.n_users, gains.n_cells
    grid, own, mask, gather = _assignment_tables(n_cells, n_users, slot_count(total_rbs, power_cfg.rbs_per_user))
    # per-RB received power of user j at every cell when served by cell i,
    # at flat row j * n_cells + i; the last n_cells rows are zero
    mw = _power_table(gains, power_cfg)                                        # (C, K)
    g_lin_t = gains.g_linear.T
    received = np.zeros((n_users + 1, n_cells, n_cells))
    received[:n_users] = g_lin_t[:, None, :] * mw.T[:, :, None]
    rows = received.reshape(-1, n_cells)[gather]                               # (A, K, U, C)
    metrics = _block_metric(mask, rows, g_lin_t, power_cfg.rbs_per_user, noise_rb_mw)
    return grid, own, metrics


def brute_force_oracle(
    gains: GainMatrix,
    power_cfg: PowerConfig,
    noise_rb_mw: float,
    total_rbs: int = DATA_RBS,
) -> OracleResult:
    """Exhaustive stability check over every possible assignment.

    All n_cells^K assignments are scored at once, and each is derived
    from the model's rules, not from the search's allocation path
    (allocate, NetworkState.build and move_user): a user's power follows
    from its own coupling loss to its cell alone, and its subframe is the
    number of lower-index users of its slot in its cell. The assignments
    and their co-block masks (coblock_mask, the search's and the SINR's
    rule) depend only on (cells, users, slots) and are built once per
    shape (_assignment_tables), with the flat index of each user's
    own-cell metric, so the stability step is one take. The powers are
    read from the held _power_table, which a search of the instance at
    the same operating point has already built. The metric is the kernel
    the search uses, so each assignment's metric array has the bits of
    the search's on a state of that assignment. Stability uses the same
    strict-improvement margin as the iterative search. A total_rbs that
    is not a multiple of the block size raises ValueError, as the
    search does.
    """
    if gains.n_cells > ORACLE_MAX_CELLS or gains.n_users > ORACLE_MAX_USERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_CELLS} cells x {ORACLE_MAX_USERS} users, "
            f"got {gains.n_cells} x {gains.n_users}"
        )

    grid, own_index, metrics = _assignment_metrics(gains, power_cfg, noise_rb_mw, total_rbs)
    own = metrics.reshape(-1).take(own_index)
    unstable = (metrics.min(axis=2) < own * (1.0 - MOVE_REL_THRESHOLD)).any(axis=1)
    return OracleResult(stable=[tuple(row) for row in grid[~unstable].tolist()])
