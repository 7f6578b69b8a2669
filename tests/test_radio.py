import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsim.radio import (
    DEFAULT_RADIO,
    MACRO,
    MIN_LINK_DISTANCE_M,
    PICO,
    GainMatrix,
    RadioParams,
    antenna_pattern_db,
    compute_gain_matrix,
    path_loss_db,
)
from hetsim.topology import NodeSet, build_layout, wrap_distance
from reference import rsrp_dbm

NO_SHADOW = RadioParams(macro_shadow_sigma_db=0.0, pico_shadow_sigma_db=0.0)


def test_path_loss_reference_points():
    assert path_loss_db("macro", 1000.0) == pytest.approx(128.1, abs=1e-9)
    assert path_loss_db("pico", 1000.0) == pytest.approx(140.7, abs=1e-9)
    assert path_loss_db("macro", 100.0) == pytest.approx(90.5, abs=1e-9)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_db("macro", 0.0)
    with pytest.raises(ValueError):
        path_loss_db("pico", -5.0)


def test_path_loss_rejects_unknown_tier():
    with pytest.raises(ValueError):
        path_loss_db("femto", 100.0)


def test_antenna_pattern_points():
    assert antenna_pattern_db(0.0) == 0.0
    assert antenna_pattern_db(70.0) == pytest.approx(-12.0, abs=1e-12)
    assert antenna_pattern_db(180.0) == pytest.approx(-20.0, abs=1e-12)


def test_antenna_pattern_symmetric_and_clipped():
    theta = np.linspace(-180.0, 180.0, 73)
    vals = antenna_pattern_db(theta)
    assert np.allclose(vals, antenna_pattern_db(-theta))
    assert np.all(vals <= 0.0)
    assert np.all(vals >= -20.0)


def _shadowing_db(params, n_users=2000, seed=1):
    """Shadowing of every link of one gain matrix: g without it minus g with it."""
    rng = np.random.default_rng(seed)
    layout = build_layout(500.0)
    nodes = NodeSet(
        picos=rng.uniform(-800, 800, size=(20, 2)),
        pico_sector=np.zeros(20, dtype=int),
        users=rng.uniform(-800, 800, size=(n_users, 2)),
    )
    shadowed = compute_gain_matrix(layout, nodes, rng, params)
    plain = compute_gain_matrix(layout, nodes, rng, NO_SHADOW)
    return plain.g - shadowed.g, shadowed.cell_tier


def test_shadowing_sigma_zero_override():
    # a zero sigma removes shadowing from that tier's links only
    params = RadioParams(macro_shadow_sigma_db=0.0)
    shadow, tier = _shadowing_db(params, n_users=50)
    assert np.all(shadow[tier == "macro"] == 0.0)
    assert np.all(shadow[tier == "pico"] != 0.0)


@pytest.mark.parametrize("tier,sigma,tol", [("macro", 8.0, 0.2), ("pico", 10.0, 0.25)])
def test_shadowing_sample_sigma(tier, sigma, tol):
    shadow, tiers = _shadowing_db(DEFAULT_RADIO)
    draws = shadow[tiers == tier]
    assert draws.size >= 40_000
    assert abs(draws.mean()) < tol
    assert draws.std() == pytest.approx(sigma, abs=tol)


def _single_user_nodes(pos, picos=None, pico_sector=None):
    picos = np.zeros((0, 2)) if picos is None else np.asarray(picos, dtype=float)
    pico_sector = np.array([], dtype=int) if pico_sector is None else np.asarray(pico_sector)
    return NodeSet(
        picos=picos,
        pico_sector=pico_sector,
        users=np.asarray([pos], dtype=float),
    )


def test_gain_macro_boresight_hand_value():
    # user 1000 m from site 0 along the 30-degree boresight of sector 0
    layout = build_layout(500.0)
    direction = np.array([np.cos(np.deg2rad(30.0)), np.sin(np.deg2rad(30.0))])
    nodes = _single_user_nodes(1000.0 * direction)
    gains = compute_gain_matrix(layout, nodes, np.random.default_rng(0), NO_SHADOW)
    # -128.1 (path loss) + 0 (pattern) + 15 (rx gain) - 20 (penetration)
    assert gains.g[0, 0] == pytest.approx(-133.1, abs=1e-9)


def test_gain_pico_hand_value():
    layout = build_layout(500.0)
    pico_pos = np.array([150.0, 180.0])
    user_pos = pico_pos + np.array([50.0, 0.0])
    nodes = _single_user_nodes(user_pos, picos=[pico_pos], pico_sector=[0])
    gains = compute_gain_matrix(layout, nodes, np.random.default_rng(0), NO_SHADOW)
    g = gains.g[57, 0]  # pico row follows the 57 sectors
    expected = -(140.7 + 36.7 * np.log10(0.05)) + 5.0 - 20.0
    assert g == pytest.approx(expected, abs=1e-9)
    assert round(float(g), 1) == -108.0


def test_gain_deterministic_without_shadowing():
    layout = build_layout(500.0)
    nodes = _single_user_nodes([300.0, 100.0])
    a = compute_gain_matrix(layout, nodes, np.random.default_rng(1), NO_SHADOW)
    b = compute_gain_matrix(layout, nodes, np.random.default_rng(999), NO_SHADOW)
    assert np.array_equal(a.g, b.g)


def test_gain_matrix_shapes_and_tier_fields():
    layout = build_layout(500.0)
    rng = np.random.default_rng(2)
    from hetsim.topology import place_picos, place_users

    picos, psec = place_picos(layout, 2, rng)
    nodes = place_users(layout, picos, psec, 3, rng)
    gains = compute_gain_matrix(layout, nodes, rng)
    assert gains.g.shape == (57 + 114, 171)
    assert np.all(gains.rs_power_dbm[:57] == 46.0)
    assert np.all(gains.rs_power_dbm[57:] == 30.0)
    assert np.all(np.isfinite(gains.g))
    # standing assumption: macro reference power above pico everywhere
    assert gains.rs_power_dbm[:57].min() > gains.rs_power_dbm[57:].max()


def test_gain_reproducible_per_seed():
    layout = build_layout(500.0)
    from hetsim.topology import place_picos, place_users

    def build(seed):
        rng = np.random.default_rng(seed)
        picos, psec = place_picos(layout, 1, rng)
        nodes = place_users(layout, picos, psec, 2, rng)
        return compute_gain_matrix(layout, nodes, rng)

    assert np.array_equal(build(7).g, build(7).g)


def test_rsrp_values():
    g = np.array([[-133.1], [-108.0]])
    gm = GainMatrix(
        g=g, cell_tier=np.array(["macro", "pico"]), rs_power_dbm=np.array([46.0, 30.0])
    )
    assert rsrp_dbm(gm, 0, 0) == pytest.approx(-87.1)
    assert rsrp_dbm(gm, 1, 0) == pytest.approx(-78.0)


def test_rsrp_identity_gain():
    gm = GainMatrix(
        g=np.array([[0.0]]), cell_tier=np.array(["macro"]), rs_power_dbm=np.array([46.0])
    )
    assert rsrp_dbm(gm, 0, 0) == 46.0


def test_gain_linear_derived_from_single_storage():
    # the uplink math reads the same stored g the downlink RSRP uses
    gm_ = GainMatrix(
        g=np.array([[-100.0, -90.0]]),
        cell_tier=np.array(["macro"]),
        rs_power_dbm=np.array([46.0]),
    )
    assert np.allclose(gm_.g_linear, 10 ** (gm_.g / 10.0), rtol=1e-15)
    assert gm_.g_linear is gm_.g_linear  # cached, not recomputed


def test_gain_matrix_validation():
    with pytest.raises(ValueError):
        GainMatrix(
            g=np.array([[np.inf]]),
            cell_tier=np.array(["macro"]),
            rs_power_dbm=np.array([46.0]),
        )
    with pytest.raises(ValueError):
        GainMatrix(
            g=np.zeros((2, 1)),
            cell_tier=np.array(["macro"]),
            rs_power_dbm=np.array([46.0]),
        )


def _reference_gain_matrix(layout, nodes, rng, params=DEFAULT_RADIO):
    """The gain matrix built from the (C, 7, K, 2) displacement array to every
    wrap image and an argmin over the image axis (lowest image on ties);
    kept as the bitwise reference of compute_gain_matrix, which splits x and
    y and keeps a running minimum over the images instead."""
    n_sec = layout.n_sectors
    n_pico = nodes.n_picos
    n_cells = n_sec + n_pico
    users = nodes.users
    cell_pos = np.concatenate([layout.sites[layout.sector_site], nodes.picos]) if n_pico else layout.sites[layout.sector_site]
    tier = np.array([MACRO] * n_sec + [PICO] * n_pico)
    images = users[None, :, :] + layout.wrap_vectors[:, None, :]
    diff = images[None, :, :, :] - cell_pos[:, None, None, :]
    dist2 = np.sum(diff * diff, axis=3)
    pick = np.argmin(dist2, axis=1)
    cidx = np.arange(n_cells)[:, None]
    kidx = np.arange(len(users))[None, :]
    disp = diff[cidx, pick, kidx, :]
    dist = np.sqrt(dist2[cidx, pick, kidx])
    pl = np.empty_like(dist)
    pl[:n_sec] = path_loss_db(MACRO, dist[:n_sec], params)
    if n_pico:
        pl[n_sec:] = path_loss_db(PICO, dist[n_sec:], params)
    sigma = np.where(tier == MACRO, params.macro_shadow_sigma_db, params.pico_shadow_sigma_db)
    shadow = rng.standard_normal(dist.shape) * sigma[:, None]
    pattern = np.zeros_like(dist)
    theta = np.rad2deg(np.arctan2(disp[:n_sec, :, 1], disp[:n_sec, :, 0]))
    off = (theta - layout.sector_boresight_deg[:n_sec, None] + 180.0) % 360.0 - 180.0
    pattern[:n_sec] = antenna_pattern_db(off, params)
    rx_gain = np.where(tier == MACRO, params.macro_rx_gain_db, params.pico_rx_gain_db)
    g = -pl - shadow + pattern + rx_gain[:, None] - params.penetration_loss_db
    rs_power = np.where(tier == MACRO, params.macro_rs_power_dbm, params.pico_rs_power_dbm)
    return GainMatrix(g=g, cell_tier=tier, rs_power_dbm=rs_power)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_picos=st.integers(0, 12),
    n_uniform=st.integers(0, 40),
    n_seam=st.integers(0, 20),
    isd=st.sampled_from([200.0, 500.0, 1732.0]),
)
def test_gain_matrix_matches_reference(seed, n_picos, n_uniform, n_seam, isd):
    # users near the midpoints of the wrap translations sit where two
    # images of a user are (almost or exactly) equally far from a cell
    layout = build_layout(isd)
    rng = np.random.default_rng(seed)
    seam = layout.wrap_vectors[rng.integers(1, 7, size=n_seam)] / 2.0
    seam += rng.choice([0.0, 1e-9, 1.0], size=(n_seam, 1)) * rng.uniform(-1.0, 1.0, size=(n_seam, 2))
    users = np.concatenate([rng.uniform(-2.5 * isd, 2.5 * isd, size=(n_uniform, 2)), seam])
    nodes = NodeSet(
        picos=rng.uniform(-2.5 * isd, 2.5 * isd, size=(n_picos, 2)),
        pico_sector=np.zeros(n_picos, dtype=int),
        users=users,
    )
    ref_rng = np.random.default_rng(seed + 1)
    new_rng = np.random.default_rng(seed + 1)
    ref = _reference_gain_matrix(layout, nodes, ref_rng)
    new = compute_gain_matrix(layout, nodes, new_rng)
    assert new.g.shape == ref.g.shape
    assert new.g.tobytes() == ref.g.tobytes()
    assert np.array_equal(new.cell_tier, ref.cell_tier)
    assert np.array_equal(new.rs_power_dbm, ref.rs_power_dbm)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def test_users_on_stations_get_the_path_loss_of_min_link_distance():
    # with no shadowing, pattern, receive gain or penetration, g is the
    # negated path loss alone
    bare = RadioParams(macro_shadow_sigma_db=0.0, pico_shadow_sigma_db=0.0, antenna_max_atten_db=0.0,
                       macro_rx_gain_db=0.0, pico_rx_gain_db=0.0, penetration_loss_db=0.0)
    layout = build_layout(500.0)
    pico = np.array([150.0, 180.0])
    nodes = NodeSet(picos=pico[None], pico_sector=np.array([0]), users=np.array([layout.sites[3], pico]))
    assert MIN_LINK_DISTANCE_M == 1e-6
    for params in (DEFAULT_RADIO, bare):
        assert np.isfinite(compute_gain_matrix(layout, nodes, np.random.default_rng(0), params).g).all()
    g = compute_gain_matrix(layout, nodes, np.random.default_rng(0), bare).g
    assert (g[9:12, 0] == -path_loss_db(MACRO, 1e-6)).all()  # the sectors of site 3
    assert g[57, 1] == -path_loss_db(PICO, 1e-6)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_picos=st.integers(1, 8),
    n_uniform=st.integers(0, 20),
    n_near=st.integers(1, 20),
    isd=st.sampled_from([200.0, 500.0, 1732.0]),
)
def test_gains_beyond_min_link_distance_keep_the_law_without_it(seed, n_picos, n_uniform, n_near, isd):
    # users 1 um and 2 um from a station, in any direction, and uniform
    # users: those whose every link is at least 1 um long get the bits of the
    # reference, which evaluates the path loss at the distance itself
    layout = build_layout(isd)
    rng = np.random.default_rng(seed)
    picos = rng.uniform(-2.5 * isd, 2.5 * isd, size=(n_picos, 2))
    stations = np.concatenate([layout.sites, picos])
    angle = rng.uniform(0.0, 2 * np.pi, size=(n_near, 1))
    radius = rng.choice([1e-6, 2e-6], size=(n_near, 1))
    near = stations[rng.integers(0, len(stations), size=n_near)]
    near += radius * np.concatenate([np.cos(angle), np.sin(angle)], axis=1)
    users = np.concatenate([rng.uniform(-2.5 * isd, 2.5 * isd, size=(n_uniform, 2)), near])
    nodes = NodeSet(picos=picos, pico_sector=np.zeros(n_picos, dtype=int), users=users)
    # the link distances as the gain matrix computes them
    far = (wrap_distance(stations, users, layout) >= MIN_LINK_DISTANCE_M).all(axis=0)
    assert far[n_uniform:][radius[:, 0] == 2e-6].all()
    ref = _reference_gain_matrix(layout, nodes, np.random.default_rng(seed + 1))
    new = compute_gain_matrix(layout, nodes, np.random.default_rng(seed + 1))
    assert new.g[:, far].tobytes() == ref.g[:, far].tobytes()
