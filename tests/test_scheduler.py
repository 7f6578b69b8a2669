import numpy as np
import pytest

from hetsim.scheduler import Allocation, allocate, cochannel_interferers, per_slot


def test_three_users_pack_left_to_right():
    serving = np.array([0, 0, 0])
    alloc = allocate(serving, n_cells=1)
    assert list(alloc.user_rb_start) == [0, 4, 8]
    assert list(alloc.user_subframe) == [0, 0, 0]
    assert alloc.subframes_per_epoch == 1


def test_thirteen_users_spill_to_second_subframe():
    serving = np.zeros(13, dtype=int)
    alloc = allocate(serving, n_cells=1)
    assert (alloc.user_subframe == 0).sum() == 12
    assert (alloc.user_subframe == 1).sum() == 1
    assert alloc.subframes_per_epoch == 2
    # the spilled user shares RBs with user 0 but in a different subframe
    assert alloc.user_rb_start[12] == alloc.user_rb_start[0]
    assert alloc.user_subframe[12] != alloc.user_subframe[0]


def test_empty_cell_and_empty_network():
    alloc = allocate(np.array([1, 1]), n_cells=3)
    assert len(alloc.block_members(0, 0)) == 1
    empty = allocate(np.array([], dtype=int), n_cells=3)
    assert empty.subframes_per_epoch == 1
    assert list(empty.blocks()) == []


def test_block_is_stable_under_membership_changes():
    # a user keeps its RBs when its own or another user's cell changes
    a = allocate(np.array([0, 0, 1, 0]), n_cells=2)
    b = allocate(np.array([0, 1, 1, 0]), n_cells=2)
    assert np.array_equal(a.user_rb_start, b.user_rb_start)


def test_intra_cell_orthogonality_random_assignments():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_cells = int(rng.integers(1, 8))
        serving = rng.integers(0, n_cells, size=int(rng.integers(1, 60)))
        alloc = allocate(serving, n_cells)
        seen = {}
        for u in range(len(serving)):
            for rb in alloc.rb_range(u):
                key = (serving[u], int(alloc.user_subframe[u]), rb)
                assert key not in seen, "intra-cell RB collision"
                seen[key] = u
        # conservation: every user occupies exactly rbs_per_user entries
        assert len(seen) == 4 * len(serving)


def test_per_cell_subframe_capacity():
    rng = np.random.default_rng(1)
    serving = rng.integers(0, 3, size=100)
    alloc = allocate(serving, 3)
    for cell in range(3):
        for sf in range(alloc.subframes_per_epoch):
            used = sum(
                4
                for u in np.flatnonzero(serving == cell)
                if alloc.user_subframe[u] == sf
            )
            assert used <= 48


def test_allocation_deterministic():
    serving = np.array([2, 0, 1, 1, 2, 0, 0])
    a = allocate(serving, 3)
    b = allocate(serving, 3)
    assert np.array_equal(a.user_subframe, b.user_subframe)
    assert np.array_equal(a.user_rb_start, b.user_rb_start)


def test_allocate_input_validation():
    with pytest.raises(ValueError):
        allocate(np.array([0, 3]), n_cells=3)
    with pytest.raises(ValueError):
        allocate(np.array([0]), n_cells=1, total_rbs=48, rbs_per_user=5)


def test_interferers_single_cell_empty():
    serving = np.array([0, 0, 0])
    alloc = allocate(serving, 1)
    for rb in range(48):
        assert len(cochannel_interferers(alloc, serving, 0, rb)) == 0


def test_interferers_direct_overlap():
    # two cells, one user each, both on the single block [0-3]
    serving = np.array([0, 1])
    alloc = allocate(serving, 2, total_rbs=4)
    assert list(cochannel_interferers(alloc, serving, 0, 0)) == [1]
    assert list(cochannel_interferers(alloc, serving, 1, 0)) == [0]


def test_interferers_disjoint_blocks():
    # users 0 and 1 sit on [0-3] and [4-7]; no overlap on either side
    serving = np.array([0, 1])
    alloc = allocate(serving, 2)
    for rb in alloc.rb_range(0):
        assert len(cochannel_interferers(alloc, serving, 0, rb)) == 0
    for rb in alloc.rb_range(1):
        assert len(cochannel_interferers(alloc, serving, 1, rb)) == 0


def test_interferers_never_same_cell():
    rng = np.random.default_rng(2)
    serving = rng.integers(0, 4, size=40)
    alloc = allocate(serving, 4, total_rbs=8)
    for u in range(40):
        for rb in alloc.rb_range(u):
            others = cochannel_interferers(alloc, serving, u, rb)
            assert u not in others
            assert np.all(serving[others] != serving[u])


def test_interferers_errors():
    serving = np.array([0, 1])
    alloc = allocate(serving, 2)
    with pytest.raises(IndexError):
        cochannel_interferers(alloc, serving, 5, 0)
    with pytest.raises(ValueError):
        cochannel_interferers(alloc, serving, 0, 48)


def test_rb_range():
    alloc = Allocation(subframe=np.array([[-1], [-1], [0]]), n_users=3, rbs_per_user=4, total_rbs=12)
    assert list(alloc.rb_range(2)) == [8, 9, 10, 11]


def test_per_slot_layout():
    # user k at [k % slots, k // slots]; the short slot is padded
    assert per_slot(np.arange(5), 2, fill=-1).tolist() == [[0, 2, 4], [1, 3, -1]]
    rows = per_slot(np.arange(10).reshape(5, 2), 2)
    assert rows.shape == (2, 3, 2)
    assert rows[1, 1].tolist() == [6, 7] and rows[1, 2].tolist() == [0, 0]
    alloc = allocate(np.array([0, 0, 0, 1, 0]), n_cells=2, total_rbs=8)
    assert alloc.subframe.tolist() == [[0, 1, 2], [0, 0, -1]]
    assert alloc.user_subframe.tolist() == [0, 0, 1, 0, 2]
