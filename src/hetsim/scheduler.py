"""Localized resource-block allocation and co-channel interferer lookup.

Every user gets one contiguous, aligned block of rbs_per_user RBs. The
block column is keyed to the user index (slot = index mod slots), so a
user keeps the same RBs no matter which cell serves it; the selection
procedures rely on that stability when they compare candidate cells on
the user's own blocks. Two users of one cell that share a slot are
separated in time (consecutive subframes, ordered by user index), so a
cell's transmissions are always orthogonal and co-channel interference
comes only from other cells' users on the same subframe and RBs.

For the canonical case of one cell holding users 0..L-1 this reproduces
plain left-to-right packing: blocks [0-3], [4-7], ... in subframe 0,
with user 12 spilling to subframe 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Allocation:
    user_subframe: np.ndarray  # (K,) subframe carrying the user's block
    user_rb_start: np.ndarray  # (K,) first RB of the user's block
    rbs_per_user: int
    total_rbs: int
    subframes_per_epoch: int

    def rb_range(self, user: int) -> range:
        start = int(self.user_rb_start[user])
        return range(start, start + self.rbs_per_user)

    @cached_property
    def block_key(self) -> np.ndarray:
        """(K,) block id subframe * total_rbs + rb_start of every user."""
        return self.user_subframe * self.total_rbs + self.user_rb_start

    def block_members(self, subframe: int, rb_start: int) -> np.ndarray:
        """Users whose block is exactly (subframe, rb_start), ascending."""
        return np.flatnonzero(self.block_key == subframe * self.total_rbs + rb_start)

    def blocks(self):
        """Iterate ((subframe, rb_start), member users) over occupied blocks.

        Blocks come in ascending id order; members in ascending user order.
        """
        key = self.block_key
        for block in np.unique(key):
            yield divmod(int(block), self.total_rbs), np.flatnonzero(key == block)

    def move(self, serving: np.ndarray, user: int, old_cell: int) -> tuple["Allocation", np.ndarray]:
        """Allocation after `user` moved from old_cell to serving[user].

        Equal to allocate(serving, ...): only the ranks of the user's slot
        inside its old and new cell can change, so only those two groups
        are re-ranked. Also returns the users whose subframe changed.
        """
        slots = self.total_rbs // self.rbs_per_user
        same_slot = np.arange(user % slots, len(serving), slots)
        subframe = self.user_subframe.copy()
        for cell in (old_cell, serving[user]):
            group = same_slot[serving[same_slot] == cell]
            subframe[group] = np.arange(len(group))
        changed = same_slot[subframe[same_slot] != self.user_subframe[same_slot]]
        moved = replace(self, user_subframe=subframe, subframes_per_epoch=int(subframe.max()) + 1)
        return moved, changed


_EMPTY = np.array([], dtype=int)


def allocate(serving: np.ndarray, n_cells: int, total_rbs: int = 48, rbs_per_user: int = 4) -> Allocation:
    """Index-keyed block allocation; a pure function of the assignment.

    serving maps user index -> cell index. Slot collisions within a cell
    spill to later subframes in ascending user-index order; the epoch is
    as long as the deepest collision.
    """
    serving = np.asarray(serving, dtype=int)
    if serving.size and (serving.min() < 0 or serving.max() >= n_cells):
        raise ValueError("serving contains cell indices outside [0, n_cells)")
    if total_rbs % rbs_per_user != 0:
        raise ValueError("total_rbs must be a multiple of rbs_per_user")
    slots = total_rbs // rbs_per_user

    n_users = len(serving)
    slot = np.arange(n_users) % slots
    user_subframe = np.zeros(n_users, dtype=int)
    n_subframes = 1
    if n_users:
        # rank users inside each (cell, slot) group in ascending index order
        order = np.lexsort((np.arange(n_users), slot, serving))
        cell_sorted = serving[order]
        slot_sorted = slot[order]
        new_group = np.r_[True, (cell_sorted[1:] != cell_sorted[:-1]) | (slot_sorted[1:] != slot_sorted[:-1])]
        group_start = np.maximum.accumulate(np.where(new_group, np.arange(n_users), 0))
        rank = np.arange(n_users) - group_start
        user_subframe[order] = rank
        n_subframes = int(rank.max()) + 1

    return Allocation(
        user_subframe=user_subframe,
        user_rb_start=slot * rbs_per_user,
        rbs_per_user=rbs_per_user,
        total_rbs=total_rbs,
        subframes_per_epoch=n_subframes,
    )


def cochannel_interferers(alloc: Allocation, serving: np.ndarray, user: int, rb: int) -> np.ndarray:
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
    members = alloc.block_members(sf, block_start)
    if len(members) == 0:
        return _EMPTY
    keep = (members != user) & (serving[members] != serving[user])
    return members[keep]
