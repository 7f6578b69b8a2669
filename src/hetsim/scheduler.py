"""Localized resource-block allocation.

Every user gets one contiguous, aligned block of rbs_per_user RBs. The
block column is keyed to the user index (slot = index mod slots), so a
user keeps the same RBs no matter which cell serves it; the selection
procedures rely on that stability when they compare candidate cells on
the user's own blocks. Two users of one cell that share a slot are
separated in time (consecutive subframes, ordered by user index), so a
cell's transmissions are always orthogonal and co-channel interference
comes only from other cells' users on the same subframe and RBs.

Only users of one slot ever share a block, so the allocation is the
subframe of each user in the per-slot layout (see per_slot), and a
change of one user's cell re-ranks that user's slot alone.

For the canonical case of one cell holding users 0..L-1 this reproduces
plain left-to-right packing: blocks [0-3], [4-7], ... in subframe 0,
with user 12 spilling to subframe 1.
"""

from __future__ import annotations

import numpy as np

from hetsim.uplink_power import PowerConfig

# default size of the uplink data band, in RBs
DATA_RBS = 48


def per_slot(values: np.ndarray, slots: int, fill=0) -> np.ndarray:
    """A (K, ...) per-user array in the per-slot layout, (slots, ceil(K / slots), ...).

    User k sits at [k % slots, k // slots]; slots shorter than the
    longest are padded with fill.
    """
    values = np.asarray(values)
    n_users = len(values)
    depth = -(-n_users // slots)
    out = np.full((depth * slots,) + values.shape[1:], fill, dtype=values.dtype)
    out[:n_users] = values
    return np.ascontiguousarray(out.reshape((depth, slots) + values.shape[1:]).swapaxes(0, 1))


def slot_count(total_rbs: int, rbs_per_user: int) -> int:
    """Number of RB slots, the blocks of rbs_per_user RBs that fit the band side by side.

    Raises ValueError unless the band is positive and the blocks tile it exactly.
    """
    if total_rbs <= 0:
        raise ValueError(f"total_rbs must be positive, got {total_rbs}")
    if total_rbs % rbs_per_user != 0:
        raise ValueError("total_rbs must be a multiple of rbs_per_user")
    return total_rbs // rbs_per_user


def allocate(serving: np.ndarray, n_cells: int, total_rbs: int = DATA_RBS, rbs_per_user: int = PowerConfig.rbs_per_user) -> np.ndarray:
    """Index-keyed block allocation; a pure function of the assignment.

    serving maps user index -> cell index. Returns each user's subframe
    in the per-slot layout (see per_slot), -1 for padding. Slot collisions
    within a cell spill to later subframes in ascending user-index order;
    the epoch is as long as the deepest collision.
    """
    serving = np.asarray(serving, dtype=int)
    if serving.size and (serving.min() < 0 or serving.max() >= n_cells):
        raise ValueError("serving contains cell indices outside [0, n_cells)")
    slots = slot_count(total_rbs, rbs_per_user)

    n_users = len(serving)
    slot = np.arange(n_users) % slots
    user_subframe = np.zeros(n_users, dtype=int)
    if n_users:
        # rank users inside each (cell, slot) group in ascending index order:
        # a stable sort of the group key keeps a group's users in index order
        key = serving * slots + slot
        order = np.argsort(key, kind="stable")
        key = key[order]
        index = np.arange(n_users)
        starts = np.zeros(n_users, dtype=int)
        np.multiply(key[1:] != key[:-1], index[1:], out=starts[1:])
        user_subframe[order] = index - np.maximum.accumulate(starts)

    return per_slot(user_subframe, slots, fill=-1)
