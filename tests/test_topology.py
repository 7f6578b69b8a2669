import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsim import topology
from hetsim.topology import (
    N_SITES,
    PLACEMENT_RETRY_BUDGET,
    SECTOR_BORESIGHTS_DEG,
    SECTORS_PER_SITE,
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


def seed_users(pico_sector, users_per_sector):
    """(user, pico) of every seed user, from placement order: sector by
    sector, users_per_sector users each, the seed users first in pico order."""
    return [
        (sector * users_per_sector + i, pico)
        for sector in range(57)
        for i, pico in enumerate(np.flatnonzero(pico_sector == sector))
    ]


def assert_seeded(layout, per_sector, seed):
    rng = np.random.default_rng(seed)
    picos, psec = place_picos(layout, per_sector, rng)
    nodes = place_users(layout, picos, psec, 12, rng)
    assert nodes.users.shape == (684, 2)
    seeded = seed_users(psec, 12)
    assert len(seeded) == 57 * per_sector
    for u, pid in seeded:
        assert wrap_distance(nodes.users[u], picos[pid], layout) <= 50.0


def test_place_users_counts_and_seeding(layout):
    assert_seeded(layout, 2, 1)


def test_place_users_no_picos(layout):
    nodes = place_users(layout, np.zeros((0, 2)), np.array([], dtype=int), 12, np.random.default_rng(2))
    assert nodes.users.shape == (684, 2)
    assert all(sector_of(nodes.users[u], layout) == u // 12 for u in range(684))


def test_place_users_mixed_seeded_uniform(layout):
    assert_seeded(layout, 6, 3)


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
        assert sector_of(nodes.users[u], layout) == u // 12


def test_picos_live_in_their_host_sector(layout):
    rng = np.random.default_rng(6)
    picos, psec = place_picos(layout, 2, rng)
    for p in range(len(picos)):
        assert sector_of(picos[p], layout) == psec[p]


# ---- scalar placement reference ----------------------------------------------
#
# The placement loops as they were before the candidate checks were
# vectorized: one wrap_distance call per (candidate, station) pair, the
# hexagon normals rebuilt on every draw, the hexagon tested before the
# wedge. The retry budget is read from the module at call time, so a
# patched budget applies to the reference and the library alike.


def _ref_wrap_distance(a, b, layout):
    diffs = (np.asarray(b) + layout.wrap_vectors) - np.asarray(a)
    return float(np.sqrt(np.min(np.einsum("ij,ij->i", diffs, diffs))))


def _ref_wrap180(angle_deg):
    return (np.asarray(angle_deg) + 180.0) % 360.0 - 180.0


def _ref_in_hexagon(point, center, isd):
    rel = point - center
    angles = np.deg2rad(np.arange(0.0, 360.0, 60.0))
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return bool(np.all(normals @ rel <= isd / 2.0 + 1e-9))


def _ref_sector_of(point, layout):
    d2 = np.sum((layout.sites - point) ** 2, axis=1)
    site = int(np.argmin(d2))
    rel = point - layout.sites[site]
    theta = np.rad2deg(np.arctan2(rel[1], rel[0]))
    offsets = np.abs(_ref_wrap180(theta - np.array(SECTOR_BORESIGHTS_DEG)))
    return site * SECTORS_PER_SITE + int(np.argmin(offsets))


def _ref_sample_in_sector(layout, sector, rng):
    site = layout.sector_site[sector]
    center = layout.sites[site]
    boresight = layout.sector_boresight_deg[sector]
    radius = layout.isd / np.sqrt(3.0)
    for _ in range(topology.PLACEMENT_RETRY_BUDGET):
        r = radius * np.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 360.0)
        point = center + r * np.array([np.cos(np.deg2rad(phi)), np.sin(np.deg2rad(phi))])
        if not _ref_in_hexagon(point, center, layout.isd):
            continue
        if abs(_ref_wrap180(phi - boresight)) >= 60.0:
            continue
        return point
    raise PlacementError(f"could not draw a point in sector {sector}")


def _ref_place_picos(layout, per_sector, rng, min_to_site_m=75.0, min_to_pico_m=35.0):
    positions = []
    sectors = []
    for sector in range(layout.n_sectors):
        for _ in range(per_sector):
            placed = False
            for _ in range(topology.PLACEMENT_RETRY_BUDGET):
                cand = _ref_sample_in_sector(layout, sector, rng)
                if any(_ref_wrap_distance(cand, s, layout) < min_to_site_m for s in layout.sites):
                    continue
                if any(_ref_wrap_distance(cand, p, layout) < min_to_pico_m for p in positions):
                    continue
                positions.append(cand)
                sectors.append(sector)
                placed = True
                break
            if not placed:
                raise PlacementError(f"pico placement in sector {sector} exhausted retries")
    picos = np.array(positions) if positions else np.zeros((0, 2))
    return picos, np.array(sectors, dtype=int)


def _ref_place_users(layout, picos, pico_sector, users_per_sector, rng, seed_radius_m=50.0):
    user_pos = []
    for sector in range(layout.n_sectors):
        pico_ids = np.flatnonzero(pico_sector == sector) if len(pico_sector) else np.array([], dtype=int)
        for pid in pico_ids:
            center = picos[pid]
            for _ in range(topology.PLACEMENT_RETRY_BUDGET):
                r = seed_radius_m * np.sqrt(rng.uniform())
                phi = rng.uniform(0.0, 2 * np.pi)
                point = center + r * np.array([np.cos(phi), np.sin(phi)])
                if _ref_sector_of(point, layout) == sector:
                    break
            else:
                raise PlacementError(f"seed user for pico {pid} exhausted retries")
            user_pos.append(point)
        for _ in range(users_per_sector - len(pico_ids)):
            user_pos.append(_ref_sample_in_sector(layout, sector, rng))
    return NodeSet(
        picos=picos,
        pico_sector=np.asarray(pico_sector, dtype=int),
        users=np.array(user_pos) if user_pos else np.zeros((0, 2)),
    )


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _placement(place_picos_fn, place_users_fn, params, seed):
    """(outcome, generator state after it): NodeSet fields or the PlacementError."""
    rng = np.random.default_rng(seed)
    layout = build_layout(params["isd"])
    try:
        picos, psec = place_picos_fn(
            layout, params["picos"], rng, params["min_to_site_m"], params["min_to_pico_m"]
        )
        nodes = place_users_fn(layout, picos, psec, params["users"], rng, params["seed_radius_m"])
    except PlacementError:
        return PlacementError, rng.bit_generator.state
    fields = (nodes.picos, nodes.pico_sector, nodes.users)
    return fields, rng.bit_generator.state


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    picos=st.integers(0, 8),
    extra_users=st.integers(0, 3),
    isd=st.floats(300.0, 800.0),
    site_frac=st.floats(0.0, 0.25),
    pico_frac=st.floats(0.0, 0.12),
    seed_frac=st.floats(0.02, 0.2),
)
def test_placement_matches_scalar_reference(seed, picos, extra_users, isd, site_frac, pico_frac, seed_frac):
    # positions, sectors, seed-pico ids and the generator state afterwards
    # (which keeps the shadowing draws aligned) are equal bit for bit
    params = {
        "isd": isd,
        "picos": picos,
        "users": picos + extra_users,
        "min_to_site_m": site_frac * isd,
        "min_to_pico_m": pico_frac * isd,
        "seed_radius_m": seed_frac * isd,
    }
    with mock.patch.object(topology, "PLACEMENT_RETRY_BUDGET", 2000):
        ref, ref_state = _placement(_ref_place_picos, _ref_place_users, params, seed)
        new, new_state = _placement(place_picos, place_users, params, seed)
    if ref is PlacementError:
        assert new is PlacementError
    else:
        assert new is not PlacementError
        assert all(_same_bits(a, b) for a, b in zip(ref, new))
    assert new_state == ref_state


@pytest.mark.parametrize(
    "min_to_site_m,min_to_pico_m",
    [(500.0, 35.0), (75.0, 5000.0)],
    ids=["sites-exclude-sector", "second-pico-too-close"],
)
def test_infeasible_placement_raises_like_reference(min_to_site_m, min_to_pico_m):
    params = {
        "isd": 500.0,
        "picos": 2,
        "users": 2,
        "min_to_site_m": min_to_site_m,
        "min_to_pico_m": min_to_pico_m,
        "seed_radius_m": 50.0,
    }
    with mock.patch.object(topology, "PLACEMENT_RETRY_BUDGET", 200):
        ref, ref_state = _placement(_ref_place_picos, _ref_place_users, params, 9)
        new, new_state = _placement(place_picos, place_users, params, 9)
    assert ref is PlacementError and new is PlacementError
    assert new_state == ref_state


def _seam_points(layout, rng, n):
    """Points within a metre of the midpoints of the wrap translations."""
    halves = layout.wrap_vectors[rng.integers(1, 7, size=n)] / 2.0
    return halves + rng.uniform(-1.0, 1.0, size=(n, 2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 30), isd=st.floats(100.0, 2000.0))
def test_wrap_distance_rows_equal_scalar_calls(seed, n, isd):
    layout = build_layout(isd)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0 * isd, 3.0 * isd, size=2)
    b = np.concatenate([
        rng.uniform(-3.0 * isd, 3.0 * isd, size=(n, 2)),
        _seam_points(layout, rng, n),
        layout.sites,
    ])
    rows = wrap_distance(a, b, layout)
    assert rows.shape == (len(b),)
    scalar = np.array([wrap_distance(a, p, layout) for p in b])
    assert _same_bits(rows, scalar)
    assert _same_bits(scalar, [_ref_wrap_distance(a, p, layout) for p in b])
    assert isinstance(wrap_distance(a, b[0], layout), float)
    assert wrap_distance(a, b[:0], layout).shape == (0,)


def _edge_points(layout, rng, n):
    """Points on the decision edges of sector_of and of the sector regions.

    Per site: on both wedge edges (60 degrees off each boresight), on the
    hexagon edges (which hold the points equidistant from two sites), and
    at the midpoint between the site and a random other site.
    """
    site = layout.sites[rng.integers(0, N_SITES, size=n)]
    rho = rng.uniform(0.0, layout.isd / np.sqrt(3.0), size=n)
    wedge = np.deg2rad(rng.choice(SECTOR_BORESIGHTS_DEG, size=n) + rng.choice([-60.0, 60.0], size=n))
    on_wedge = site + rho[:, None] * np.stack([np.cos(wedge), np.sin(wedge)], axis=1)
    normal = np.deg2rad(60.0 * rng.integers(0, 6, size=n))
    along = rng.uniform(-0.5, 0.5, size=n) * layout.isd / np.sqrt(3.0)
    on_hexagon = (
        site
        + layout.isd / 2.0 * np.stack([np.cos(normal), np.sin(normal)], axis=1)
        + along[:, None] * np.stack([-np.sin(normal), np.cos(normal)], axis=1)
    )
    midway = (site + layout.sites[rng.integers(0, N_SITES, size=n)]) / 2.0
    return np.concatenate([on_wedge, on_hexagon, midway, layout.sites])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 30), isd=st.floats(100.0, 2000.0))
def test_sector_of_rows_equal_scalar_calls(seed, n, isd):
    layout = build_layout(isd)
    rng = np.random.default_rng(seed)
    points = np.concatenate([rng.uniform(-3.0 * isd, 3.0 * isd, size=(n, 2)), _edge_points(layout, rng, n)])
    rows = sector_of(points, layout)
    assert rows.shape == (len(points),)
    scalar = [sector_of(p, layout) for p in points]
    assert all(type(s) is int for s in scalar)
    assert rows.tolist() == scalar == [_ref_sector_of(p, layout) for p in points]
    assert sector_of(points[:0], layout).shape == (0,)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12), m=st.integers(0, 12), isd=st.floats(100.0, 2000.0))
def test_wrap_distance_grid_equals_scalar_calls(seed, n, m, isd):
    layout = build_layout(isd)
    rng = np.random.default_rng(seed)
    a = np.concatenate([rng.uniform(-3.0 * isd, 3.0 * isd, size=(n, 2)), _edge_points(layout, rng, 2)])
    b = np.concatenate([rng.uniform(-3.0 * isd, 3.0 * isd, size=(m, 2)), _seam_points(layout, rng, m)])
    grid = wrap_distance(a, b, layout)
    assert grid.shape == (len(a), len(b))
    scalar = np.array([[wrap_distance(p, q, layout) for q in b] for p in a]).reshape(len(a), len(b))
    assert _same_bits(grid, scalar)
    assert _same_bits(scalar, np.array([[_ref_wrap_distance(p, q, layout) for q in b] for p in a]).reshape(grid.shape))
    one = rng.uniform(-3.0 * isd, 3.0 * isd, size=2)
    assert _same_bits(wrap_distance(a, one, layout), np.array([wrap_distance(p, one, layout) for p in a]))
    assert wrap_distance(a[:0], b, layout).shape == (0, len(b))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), isd=st.floats(100.0, 2000.0), sector=st.integers(0, 56))
def test_sector_window_classes_equal_scalar_rule(seed, isd, sector):
    # a window's candidates and region flags equal the scalar loop's, also
    # for pairs that land on the hexagon test's threshold (an edge pushed out
    # by the 1e-9 m tolerance) and on the wedge edges, where one rounding
    # apart would flip the flag
    layout = build_layout(isd)
    rng = np.random.default_rng(seed)
    n = 40
    center = layout.sites[layout.sector_site[sector]]
    boresight = layout.sector_boresight_deg[sector]
    radius = isd / np.sqrt(3.0)
    normal = np.deg2rad(60.0 * rng.integers(0, 6, size=n))
    along = rng.uniform(-0.5, 0.5, size=n) * radius
    ex = (isd / 2.0 + 1e-9) * np.cos(normal) - along * np.sin(normal)
    ey = (isd / 2.0 + 1e-9) * np.sin(normal) + along * np.cos(normal)
    on_hexagon = np.stack([np.minimum((np.hypot(ex, ey) / radius) ** 2, 1.0 - 2**-53),
                           np.rad2deg(np.arctan2(ey, ex)) % 360.0 / 360.0], axis=1)
    on_wedge = np.stack([rng.random(n),
                         (boresight + rng.choice([-60.0, 60.0], size=n)) % 360.0 / 360.0], axis=1)
    pairs = np.concatenate([on_hexagon, on_wedge, rng.random((n, 2))])
    points, inside = topology._sector_candidates(layout, sector, pairs)
    for (u, v), point, flag in zip(pairs, points, inside):
        r = radius * np.sqrt(u)
        phi = 360.0 * v
        ref = center + r * np.array([np.cos(np.deg2rad(phi)), np.sin(np.deg2rad(phi))])
        assert _same_bits(point, ref)
        assert flag == (_ref_in_hexagon(ref, center, isd) and abs(_ref_wrap180(phi - boresight)) < 60.0)


# ---- retry budgets below the draw-ahead window ------------------------------


def _outcome(place_picos_fn, place_users_fn, params, seed):
    """(outcome, generator state): the NodeSet fields, or what ran out.

    A PlacementError is told by which budget ran out, inner ("could not
    draw" / "drew no point": misses of the sector region in a row) or
    outer, and by the sector or pico it names first.
    """
    rng = np.random.default_rng(seed)
    layout = build_layout(params["isd"])
    try:
        picos, psec = place_picos_fn(
            layout, params["picos"], rng, params["min_to_site_m"], params["min_to_pico_m"]
        )
        nodes = place_users_fn(layout, picos, psec, params["users"], rng, params["seed_radius_m"])
    except PlacementError as exc:
        msg = str(exc)
        budget = "inner" if ("could not draw" in msg or "drew no point" in msg) else "outer"
        return (budget, int(re.search(r"\d+", msg).group())), rng.bit_generator.state
    fields = (nodes.picos, nodes.pico_sector, nodes.users)
    return fields, rng.bit_generator.state


_ACC = {"isd": 500.0, "picos": 2, "users": 12, "min_to_site_m": 75.0, "min_to_pico_m": 35.0, "seed_radius_m": 50.0}

# case: (params, {budget: draw seed}, how the reference run ends); each
# seed is one whose reference run ends that way at that budget
_BUDGET_CASES = {
    # a pico's attempt misses the sector region budget times in a row
    "pico-inner": ({**_ACC}, {1: 0, 3: 0, 7: 0}, "inner"),
    # every in-region candidate lies within 500 m of a site
    "pico-outer-sites": ({**_ACC, "min_to_site_m": 500.0}, {1: 1, 3: 0, 7: 1}, "outer"),
    # the second pico of a sector can never keep 5 km from the first
    "pico-outer-picos": ({**_ACC, "min_to_pico_m": 5000.0}, {1: 1, 3: 3, 7: 1}, "outer"),
    # sector 0's first pico lies in the last sector: every seed try fails
    "seed-user": ({**_ACC}, {1: 0, 3: 0, 7: 0}, "outer"),
    # no picos: a uniform user's attempt misses the region budget times in a row
    "uniform-user": ({**_ACC, "picos": 0}, {1: 0, 3: 0, 7: 0}, "inner"),
    # budgets above every run of failures but below both first windows
    # (24 pairs for the picos of a sector, 28 for its users); the picos lie
    # on an edge of their sector, so about half of the seed draws miss it
    # and are drawn again
    "success": ({**_ACC, "users": 3}, {20: 0, 21: 0, 23: 0}, "placed"),
}


def _on_sector_edge(layout, picos, psec):
    """The picos turned about their site onto the counterclockwise edge of their sector's wedge."""
    site = layout.sites[layout.sector_site[psec]]
    r = np.hypot(*(picos - site).T)
    edge = np.deg2rad(layout.sector_boresight_deg[psec] + 60.0)
    return site + r[:, None] * np.stack([np.cos(edge), np.sin(edge)], axis=1), psec


@pytest.mark.parametrize("case,budget,seed", [
    (case, budget, seed) for case, (_, seeds, _) in _BUDGET_CASES.items() for budget, seed in seeds.items()
])
def test_budget_below_window_matches_reference(case, budget, seed):
    # a budget can run out inside the first window: the walk counts each
    # object's failures pair by pair, so the outcome, the budget that ran
    # out, the object it names and the generator state afterwards equal the
    # scalar loops'
    params, _, ends = _BUDGET_CASES[case]
    place_picos_fns = (_ref_place_picos, place_picos)
    if case == "seed-user":
        # the picos placed at the real budget, so that the seed users run
        # out; sector 0's first pico moved onto the last sector's last pico
        picos, psec = place_picos(build_layout(params["isd"]), params["picos"], np.random.default_rng(seed))
        picos = np.concatenate([picos[-1:], picos[1:]])
        place_picos_fns = (lambda *args: (picos, psec),) * 2
    if case == "success":
        place_picos_fns = tuple(lambda *args, fn=fn: _on_sector_edge(args[0], *fn(*args)) for fn in place_picos_fns)
    with mock.patch.object(topology, "PLACEMENT_RETRY_BUDGET", budget):
        ref_out, ref_state = _outcome(place_picos_fns[0], _ref_place_users, params, seed)
        new_out, new_state = _outcome(place_picos_fns[1], place_users, params, seed)
    if ends == "placed":
        assert isinstance(ref_out[0], np.ndarray)
        assert all(_same_bits(a, b) for a, b in zip(ref_out, new_out))
    else:
        assert ref_out[0] == ends
        assert new_out == ref_out
    assert new_state == ref_state


def _past_sector_edge(layout, picos, psec, gap=40.0):
    """The picos of _on_sector_edge moved gap metres out of their sector, square to the edge."""
    on_edge, psec = _on_sector_edge(layout, picos, psec)
    out = np.deg2rad(layout.sector_boresight_deg[psec] + 150.0)
    return on_edge + gap * np.stack([np.cos(out), np.sin(out)], axis=1), psec


@pytest.mark.parametrize("users", [2, 5])
def test_seeds_past_their_first_window_match_reference(users):
    # a pico 40 m outside its host sector keeps about 5% of its 50 m disc
    # in the sector, so the seeds of a sector run out of their own first
    # window and walk on in later ones, carrying their failures over; the
    # uniform users then start from the pair after the last seed's pass
    seeds_out = []
    walk = topology._Draws.walk

    def recorded(draws, kinds, name):
        i = walk(draws, kinds, name)
        seeds_out.append(name.startswith("seed user") and i is None)
        return i

    params = {**_ACC, "users": users}
    fns = tuple(lambda *args, fn=fn: _past_sector_edge(args[0], *fn(*args)) for fn in (_ref_place_picos, place_picos))
    ref_out, ref_state = _outcome(fns[0], _ref_place_users, params, 4)
    with mock.patch.object(topology._Draws, "walk", recorded):
        new_out, new_state = _outcome(fns[1], place_users, params, 4)
    assert isinstance(ref_out[0], np.ndarray)
    assert all(_same_bits(a, b) for a, b in zip(ref_out, new_out))
    assert new_state == ref_state
    # the seed walks that ran out of their window
    assert sum(seeds_out) > 10


def test_acc2_drop0_placement_and_gains_match_scalar_reference():
    # the production shape at the real budget: acc2 (seed 1), drop 0
    from hetsim.radio import RadioParams, compute_gain_matrix

    layout = build_layout(500.0)
    results = []
    for place_picos_fn, place_users_fn in ((_ref_place_picos, _ref_place_users), (place_picos, place_users)):
        rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(0,)))
        picos, psec = place_picos_fn(layout, 2, rng, 75.0, 35.0)
        nodes = place_users_fn(layout, picos, psec, 12, rng, 50.0)
        state = rng.bit_generator.state
        gains = compute_gain_matrix(layout, nodes, rng, RadioParams())
        results.append((nodes, state, gains))
    (ref, ref_state, ref_gains), (new, new_state, new_gains) = results
    assert topology.PLACEMENT_RETRY_BUDGET == 10_000
    assert new.users.shape == (684, 2) and len(seed_users(new.pico_sector, 12)) == 114
    for field in ("picos", "pico_sector", "users"):
        assert _same_bits(getattr(ref, field), getattr(new, field)), field
    assert new_state == ref_state
    assert _same_bits(ref_gains.g, new_gains.g)
    assert _same_bits(ref_gains.cell_tier, new_gains.cell_tier)


def test_placement_keeps_a_buffered_32_bit_draw():
    # a generator that holds half of a 64-bit output from a 32-bit draw keeps
    # it through placement, as drawing one double at a time does
    layout = build_layout(500.0)
    states = []
    for place_picos_fn, place_users_fn in ((_ref_place_picos, _ref_place_users), (place_picos, place_users)):
        rng = np.random.default_rng(3)
        rng.integers(0, 2**32, dtype=np.uint32)
        picos, psec = place_picos_fn(layout, 1, rng)
        place_users_fn(layout, picos, psec, 3, rng)
        states.append((rng.bit_generator.state, rng.integers(0, 2**32, dtype=np.uint32)))
    assert states[0][0]["has_uint32"] == 1
    assert states[1] == states[0]
