import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsim.scheduler import allocate, per_slot
from reference import block_members, blocks, cochannel_interferers, rb_range, subframes_per_epoch, user_blocks


def test_three_users_pack_left_to_right():
    serving = np.array([0, 0, 0])
    subframe = allocate(serving, n_cells=1)
    user_sf, rb_start = user_blocks(subframe, 3)
    assert list(rb_start) == [0, 4, 8]
    assert list(user_sf) == [0, 0, 0]
    assert subframes_per_epoch(subframe) == 1


def test_thirteen_users_spill_to_second_subframe():
    serving = np.zeros(13, dtype=int)
    subframe = allocate(serving, n_cells=1)
    user_sf, rb_start = user_blocks(subframe, 13)
    assert (user_sf == 0).sum() == 12
    assert (user_sf == 1).sum() == 1
    assert subframes_per_epoch(subframe) == 2
    # the spilled user shares RBs with user 0 but in a different subframe
    assert rb_start[12] == rb_start[0]
    assert user_sf[12] != user_sf[0]


def test_empty_cell_and_empty_network():
    subframe = allocate(np.array([1, 1]), n_cells=3)
    assert len(block_members(subframe, 2, 0, 0)) == 1
    empty = allocate(np.array([], dtype=int), n_cells=3)
    assert empty.shape == (12, 0)
    assert subframes_per_epoch(empty) == 1
    assert list(blocks(empty, 0)) == []


def test_block_is_stable_under_membership_changes():
    # a user keeps its RBs when its own or another user's cell changes
    a = allocate(np.array([0, 0, 1, 0]), n_cells=2)
    b = allocate(np.array([0, 1, 1, 0]), n_cells=2)
    assert np.array_equal(user_blocks(a, 4)[1], user_blocks(b, 4)[1])


def test_intra_cell_orthogonality_random_assignments():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_cells = int(rng.integers(1, 8))
        serving = rng.integers(0, n_cells, size=int(rng.integers(1, 60)))
        subframe = allocate(serving, n_cells)
        user_sf = user_blocks(subframe, len(serving))[0]
        seen = {}
        for u in range(len(serving)):
            for rb in rb_range(subframe, u):
                key = (serving[u], int(user_sf[u]), rb)
                assert key not in seen, "intra-cell RB collision"
                seen[key] = u
        # conservation: every user occupies exactly rbs_per_user entries
        assert len(seen) == 4 * len(serving)


def test_per_cell_subframe_capacity():
    rng = np.random.default_rng(1)
    serving = rng.integers(0, 3, size=100)
    subframe = allocate(serving, 3)
    user_sf = user_blocks(subframe, 100)[0]
    for cell in range(3):
        for sf in range(subframes_per_epoch(subframe)):
            used = sum(
                4
                for u in np.flatnonzero(serving == cell)
                if user_sf[u] == sf
            )
            assert used <= 48


def test_allocation_deterministic():
    serving = np.array([2, 0, 1, 1, 2, 0, 0])
    a = allocate(serving, 3)
    b = allocate(serving, 3)
    assert np.array_equal(a, b)


def test_allocate_input_validation():
    with pytest.raises(ValueError):
        allocate(np.array([0, 3]), n_cells=3)
    with pytest.raises(ValueError):
        allocate(np.array([0]), n_cells=1, total_rbs=48, rbs_per_user=5)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n_users=st.integers(0, 60),
    slots=st.integers(1, 12),
    n_cells=st.integers(1, 20),
)
def test_allocate_equals_the_rank_rule(data, n_users, slots, n_cells):
    # the oracle's rule: a user's subframe is the number of lower-index
    # users of its slot in its cell; padding reads -1
    serving = data.draw(st.lists(st.integers(0, n_cells - 1), min_size=n_users, max_size=n_users))
    expected = np.full((slots, -(-n_users // slots)), -1)
    for k, cell in enumerate(serving):
        expected[k % slots, k // slots] = sum(
            serving[j] == cell for j in range(k % slots, k, slots)
        )
    subframe = allocate(np.array(serving, dtype=int), n_cells, total_rbs=4 * slots, rbs_per_user=4)
    assert subframe.shape == expected.shape and subframe.dtype == expected.dtype
    assert subframe.tolist() == expected.tolist()


def test_interferers_single_cell_empty():
    serving = np.array([0, 0, 0])
    subframe = allocate(serving, 1)
    for rb in range(48):
        assert len(cochannel_interferers(subframe, serving, 0, rb)) == 0


def test_interferers_direct_overlap():
    # two cells, one user each, both on the single block [0-3]
    serving = np.array([0, 1])
    subframe = allocate(serving, 2, total_rbs=4)
    assert list(cochannel_interferers(subframe, serving, 0, 0)) == [1]
    assert list(cochannel_interferers(subframe, serving, 1, 0)) == [0]


def test_interferers_disjoint_blocks():
    # users 0 and 1 sit on [0-3] and [4-7]; no overlap on either side
    serving = np.array([0, 1])
    subframe = allocate(serving, 2)
    for rb in rb_range(subframe, 0):
        assert len(cochannel_interferers(subframe, serving, 0, rb)) == 0
    for rb in rb_range(subframe, 1):
        assert len(cochannel_interferers(subframe, serving, 1, rb)) == 0


def test_interferers_never_same_cell():
    rng = np.random.default_rng(2)
    serving = rng.integers(0, 4, size=40)
    subframe = allocate(serving, 4, total_rbs=8)
    for u in range(40):
        for rb in rb_range(subframe, u):
            others = cochannel_interferers(subframe, serving, u, rb)
            assert u not in others
            assert np.all(serving[others] != serving[u])


def test_interferers_errors():
    serving = np.array([0, 1])
    subframe = allocate(serving, 2)
    with pytest.raises(IndexError):
        cochannel_interferers(subframe, serving, 5, 0)
    with pytest.raises(ValueError):
        cochannel_interferers(subframe, serving, 0, 48)


def test_rb_range():
    assert list(rb_range(np.array([[-1], [-1], [0]]), 2)) == [8, 9, 10, 11]


def test_per_slot_layout():
    # user k at [k % slots, k // slots]; the short slot is padded
    assert per_slot(np.arange(5), 2, fill=-1).tolist() == [[0, 2, 4], [1, 3, -1]]
    rows = per_slot(np.arange(10).reshape(5, 2), 2)
    assert rows.shape == (2, 3, 2)
    assert rows[1, 1].tolist() == [6, 7] and rows[1, 2].tolist() == [0, 0]
    subframe = allocate(np.array([0, 0, 0, 1, 0]), n_cells=2, total_rbs=8)
    assert subframe.tolist() == [[0, 1, 2], [0, 0, -1]]
    assert user_blocks(subframe, 5)[0].tolist() == [0, 0, 1, 0, 2]


@pytest.mark.parametrize("shape, slots, order", [
    ((5,), 1, "C"),          # one slot
    ((4, 3), 1, "C"),        # one slot: the layout of a C-ordered input is contiguous already
    ((4, 3), 1, "F"),
    ((3, 7), 7, "C"),        # one user per slot
    ((6, 3), 2, "F"),        # full slots
    ((7, 3), 3, "F"),        # short slots, padded
    ((7, 3), 3, "C"),
    ((0, 3), 4, "C"),        # no users
])
def test_per_slot_returns_a_new_c_contiguous_array(shape, slots, order):
    values = np.asarray(np.arange(np.prod(shape), dtype=float).reshape(shape), order=order)
    before = values.copy()
    out = per_slot(values, slots, fill=-1.0)
    assert out.flags.c_contiguous and not np.shares_memory(out, values)
    depth = -(-shape[0] // slots)
    assert out.shape == (slots, depth) + shape[1:]
    for k in range(shape[0]):
        assert np.array_equal(out[k % slots, k // slots], values[k])
    padded = [(s, depth - 1) for s in range(shape[0] - (depth - 1) * slots, slots)] if depth else []
    assert all((out[pos] == -1.0).all() for pos in padded)
    out += 1.0  # writing into the result leaves the input as it was
    assert np.array_equal(values, before)
