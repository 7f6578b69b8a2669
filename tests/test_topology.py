import numpy as np
import pytest

from hetsim.topology import (
    PLACEMENT_RETRY_BUDGET,
    Layout,
    NodeSet,
    PlacementError,
    build_layout,
    place_picos,
    place_users,
    sector_of,
    wrap_distance,
)


@pytest.fixture(scope="module")
def layout():
    return build_layout(500.0)


def test_layout_counts(layout):
    assert layout.sites.shape == (19, 2)
    assert layout.n_sectors == 57
    assert np.allclose(layout.sites[0], [0.0, 0.0])


def test_layout_nearest_neighbor_is_isd(layout):
    d = np.linalg.norm(layout.sites[None, :, :] - layout.sites[:, None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() == pytest.approx(500.0, rel=1e-12)


def test_layout_boresights(layout):
    assert set(np.unique(layout.sector_boresight_deg)) == {30.0, 150.0, 270.0}
    # three sectors per site, site-major ordering
    assert np.all(layout.sector_site == np.repeat(np.arange(19), 3))


def test_layout_rejects_bad_isd():
    with pytest.raises(ValueError):
        build_layout(0.0)


def test_wrap_group_shape(layout):
    assert layout.wrap_vectors.shape == (7, 2)
    norms = np.linalg.norm(layout.wrap_vectors, axis=1)
    assert norms[0] == 0.0
    assert np.allclose(norms[1:], np.sqrt(19.0) * 500.0, rtol=1e-12)
    # closed under negation
    vecs = {tuple(np.round(v, 6)) for v in layout.wrap_vectors}
    for v in layout.wrap_vectors:
        assert tuple(np.round(-v, 6)) in vecs


def test_wrap_distance_identity(layout):
    p = np.array([123.0, -77.0])
    assert wrap_distance(p, p, layout) == 0.0


def test_wrap_distance_symmetry_and_upper_bound(layout):
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(-1200, 1200, size=2)
        b = rng.uniform(-1200, 1200, size=2)
        d_ab = wrap_distance(a, b, layout)
        d_ba = wrap_distance(b, a, layout)
        assert d_ab == pytest.approx(d_ba, rel=1e-12)
        assert d_ab <= np.linalg.norm(a - b) + 1e-9


def test_wrap_distance_matches_mirror_scan(layout):
    # independent oracle: literal scan over the seven images
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.uniform(-1200, 1200, size=2)
        b = rng.uniform(-1200, 1200, size=2)
        best = min(np.linalg.norm(a - (b + v)) for v in layout.wrap_vectors)
        assert wrap_distance(a, b, layout) == pytest.approx(best, rel=1e-12)


def test_wrap_shrinks_edge_to_edge_distance(layout):
    # points near opposite outer sites: the mirror image is closer than direct
    a = layout.sites[np.argmax(layout.sites[:, 0])] + np.array([200.0, 0.0])
    b = layout.sites[np.argmin(layout.sites[:, 0])] - np.array([200.0, 0.0])
    assert wrap_distance(a, b, layout) < np.linalg.norm(a - b)


def test_wrap_displacement_consistent_with_distance(layout):
    # the gain matrix measures each link along the displacement to the
    # nearest wraparound image: its pico path loss is that of wrap_distance
    from hetsim.radio import RadioParams, compute_gain_matrix, path_loss_db

    no_shadow = RadioParams(macro_shadow_sigma_db=0.0, pico_shadow_sigma_db=0.0)
    rng = np.random.default_rng(5)
    picos = rng.uniform(-1000, 1000, size=(20, 2))
    users = rng.uniform(-1000, 1000, size=(20, 2))
    nodes = NodeSet(
        picos=picos,
        pico_sector=np.zeros(20, dtype=int),
        users=users,
        user_sector=np.zeros(20, dtype=int),
        user_seed_pico=np.full(20, -1),
    )
    gains = compute_gain_matrix(layout, nodes, rng, no_shadow)
    for i, p in enumerate(picos):
        for u, a in enumerate(users):
            pl = path_loss_db("pico", wrap_distance(a, p, layout), no_shadow)
            expected = -pl + no_shadow.pico_rx_gain_db - no_shadow.penetration_loss_db
            assert gains.g[layout.n_sectors + i, u] == pytest.approx(expected, rel=1e-12)


def test_place_picos_zero(layout):
    picos, sectors = place_picos(layout, 0, np.random.default_rng(0))
    assert picos.shape == (0, 2)
    assert len(sectors) == 0


@pytest.mark.parametrize("per_sector,expected", [(2, 114), (6, 342)])
def test_place_picos_constraints(layout, per_sector, expected):
    picos, sectors = place_picos(layout, per_sector, np.random.default_rng(11))
    assert picos.shape == (expected, 2)
    assert np.all(np.bincount(sectors, minlength=57) == per_sector)
    for p in picos:
        for s in layout.sites:
            assert wrap_distance(p, s, layout) >= 75.0
    for i in range(len(picos)):
        for j in range(i + 1, len(picos)):
            assert wrap_distance(picos[i], picos[j], layout) >= 35.0


def test_place_picos_deterministic(layout):
    a, _ = place_picos(layout, 2, np.random.default_rng(42))
    b, _ = place_picos(layout, 2, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_placement_error_when_infeasible(layout):
    # a sector cannot hold this many picos 35 m apart
    with pytest.raises(PlacementError):
        place_picos(layout, 80, np.random.default_rng(0))


def test_place_users_counts_and_seeding(layout):
    rng = np.random.default_rng(1)
    picos, psec = place_picos(layout, 2, rng)
    nodes = place_users(layout, picos, psec, 12, rng)
    assert nodes.users.shape == (684, 2)
    seeded = nodes.user_seed_pico >= 0
    assert seeded.sum() == 114
    for u in np.flatnonzero(seeded):
        pid = nodes.user_seed_pico[u]
        assert wrap_distance(nodes.users[u], picos[pid], layout) <= 50.0
    assert np.all(np.bincount(nodes.user_sector, minlength=57) == 12)


def test_place_users_no_picos(layout):
    nodes = place_users(layout, np.zeros((0, 2)), np.array([], dtype=int), 12, np.random.default_rng(2))
    assert nodes.users.shape == (684, 2)
    assert np.all(nodes.user_seed_pico == -1)


def test_place_users_mixed_seeded_uniform(layout):
    rng = np.random.default_rng(3)
    picos, psec = place_picos(layout, 6, rng)
    nodes = place_users(layout, picos, psec, 12, rng)
    assert (nodes.user_seed_pico >= 0).sum() == 342
    assert (nodes.user_seed_pico == -1).sum() == 342


def test_place_users_requires_enough_users(layout):
    rng = np.random.default_rng(4)
    picos, psec = place_picos(layout, 2, rng)
    with pytest.raises(ValueError):
        place_users(layout, picos, psec, 1, rng)


def test_users_live_in_their_home_sector(layout):
    rng = np.random.default_rng(5)
    picos, psec = place_picos(layout, 2, rng)
    nodes = place_users(layout, picos, psec, 12, rng)
    for u in range(nodes.n_users):
        assert sector_of(nodes.users[u], layout) == nodes.user_sector[u]


def test_picos_live_in_their_host_sector(layout):
    rng = np.random.default_rng(6)
    picos, psec = place_picos(layout, 2, rng)
    for p in range(len(picos)):
        assert sector_of(picos[p], layout) == psec[p]


def test_users_clear_of_station_positions(layout):
    rng = np.random.default_rng(7)
    picos, psec = place_picos(layout, 2, rng)
    nodes = place_users(layout, picos, psec, 12, rng)
    stations = np.concatenate([layout.sites, picos])
    d2 = np.min(
        np.sum((nodes.users[:, None, :] - stations[None, :, :]) ** 2, axis=2), axis=1
    )
    assert np.all(d2 > 0.0)
