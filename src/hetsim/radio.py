"""Link gains and downlink reference-signal measurements.

The composite gain of a (cell, user) link stacks distance path loss,
log-normal shadowing, the horizontal sector antenna pattern (macro
sectors only; picos are omnidirectional), the receive antenna gain of
the cell tier, and a flat penetration loss. Distances and angles are
taken to the nearest wraparound image of the user.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hetsim.topology import Layout, NodeSet

MACRO = "macro"
PICO = "pico"

# the path-loss laws need a link distance above zero, so a user on a
# station is taken to lie this far from it
MIN_LINK_DISTANCE_M = 1e-6


@dataclass(frozen=True)
class RadioParams:
    """Channel-model constants (macro/pico distinguished per link end)."""

    macro_pl_const_db: float = 128.1
    macro_pl_slope: float = 37.6
    pico_pl_const_db: float = 140.7
    pico_pl_slope: float = 36.7
    macro_shadow_sigma_db: float = 8.0
    pico_shadow_sigma_db: float = 10.0
    antenna_max_atten_db: float = 20.0
    antenna_theta3db_deg: float = 70.0
    macro_rx_gain_db: float = 15.0
    pico_rx_gain_db: float = 5.0
    penetration_loss_db: float = 20.0
    macro_rs_power_dbm: float = 46.0
    pico_rs_power_dbm: float = 30.0


DEFAULT_RADIO = RadioParams()


@dataclass(frozen=True)
class GainMatrix:
    """Composite link gains in dB, cells on rows (57 sectors then picos)."""

    g: np.ndarray             # (C, K) composite gain, dB (negative)
    cell_tier: np.ndarray     # (C,) "macro" | "pico"
    rs_power_dbm: np.ndarray  # (C,) downlink reference-signal power

    def __post_init__(self):
        if self.g.shape[0] != len(self.cell_tier) or self.g.shape[0] != len(self.rs_power_dbm):
            raise ValueError("cell dimension mismatch between g, cell_tier, rs_power_dbm")
        if not np.all(np.isfinite(self.g)):
            raise ValueError("gain matrix contains non-finite entries")

    @property
    def n_cells(self) -> int:
        return self.g.shape[0]

    @property
    def n_users(self) -> int:
        return self.g.shape[1]

    @cached_property
    def g_linear(self) -> np.ndarray:
        """Linear-scale gains, cached after the first access."""
        return 10.0 ** (self.g / 10.0)


def path_loss_db(tier: str, d_m: float, params: RadioParams = DEFAULT_RADIO):
    """Distance path loss in dB; the model argument is in kilometers."""
    d_m = np.asarray(d_m, dtype=float)
    if np.any(d_m <= 0):
        raise ValueError("path loss undefined for non-positive distance")
    if tier == MACRO:
        const, slope = params.macro_pl_const_db, params.macro_pl_slope
    elif tier == PICO:
        const, slope = params.pico_pl_const_db, params.pico_pl_slope
    else:
        raise ValueError(f"unknown tier {tier!r}")
    pl = np.log10(d_m / 1000.0)  # const + slope * log10(d_km), in place
    pl *= slope
    pl += const
    return pl if pl.shape else float(pl)


def antenna_pattern_db(theta_deg, params: RadioParams = DEFAULT_RADIO):
    """Horizontal pattern -min(12*(theta/theta3dB)^2, Am) in dB."""
    theta = np.asarray(theta_deg, dtype=float)
    atten = np.minimum(
        12.0 * (theta / params.antenna_theta3db_deg) ** 2,
        params.antenna_max_atten_db,
    )
    return -atten if atten.shape else -float(atten)


def _nearest_image(cell_pos, users, wrap_vectors) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance from every cell to the nearest wraparound image of every user, and that image's index.

    A running minimum over the images that keeps the first on ties; the
    index is into wrap_vectors.
    """
    shape = (len(cell_pos), len(users))
    best2, dist2, dy = np.empty(shape), np.empty(shape), np.empty(shape)
    pick = np.zeros(shape, dtype=np.int8)
    for k, shift in enumerate(wrap_vectors):
        dx = dist2 if k else best2
        np.subtract((users[:, 0] + shift[0])[None, :], cell_pos[:, 0, None], out=dx)
        np.subtract((users[:, 1] + shift[1])[None, :], cell_pos[:, 1, None], out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        if k:
            closer = dist2 < best2
            np.copyto(best2, dist2, where=closer)
            pick[closer] = k
    return best2, pick


def compute_gain_matrix(
    layout: Layout,
    nodes: NodeSet,
    rng: np.random.Generator,
    params: RadioParams = DEFAULT_RADIO,
) -> GainMatrix:
    """Composite (cell, user) gain matrix for one drop.

    Shadowing is drawn i.i.d. per link (one standard-normal matrix scaled
    by the tier sigma), so the matrix is bit-reproducible per rng state.
    Path loss is evaluated at max(d, MIN_LINK_DISTANCE_M), so a user on a
    station gets finite gains.
    """
    n_sec = layout.n_sectors
    n_pico = nodes.n_picos
    users = nodes.users
    tier = np.array([MACRO] * n_sec + [PICO] * n_pico)

    # a site's sectors share its position, so the macro tier's image search,
    # path loss and angle run per site and are spread over its sectors
    site_dist2, pick = _nearest_image(layout.sites, users, layout.wrap_vectors)
    disp = layout.wrap_vectors[pick]
    disp += users
    disp -= layout.sites[:, None, :]
    off = np.rad2deg(np.arctan2(disp[..., 1], disp[..., 0]))[layout.sector_site]
    off -= layout.sector_boresight_deg[:n_sec, None]
    off += 180.0
    np.remainder(off, 360.0, out=off)
    off -= 180.0
    pattern = antenna_pattern_db(off, params)

    # g is assembled in place, in the order -pl - shadow + pattern + rx_gain -
    # penetration that fixes its bits
    g = np.empty((n_sec + n_pico, len(users)))
    site_d = np.sqrt(site_dist2, out=site_dist2)
    np.maximum(site_d, MIN_LINK_DISTANCE_M, out=site_d)
    site_pl = path_loss_db(MACRO, site_d, params)
    np.negative(site_pl[layout.sector_site], out=g[:n_sec])
    if n_pico:
        dist2, _ = _nearest_image(nodes.picos, users, layout.wrap_vectors)
        d = np.sqrt(dist2, out=dist2)
        np.maximum(d, MIN_LINK_DISTANCE_M, out=d)
        np.negative(path_loss_db(PICO, d, params), out=g[n_sec:])

    sigma = np.where(tier == MACRO, params.macro_shadow_sigma_db, params.pico_shadow_sigma_db)
    shadow = rng.standard_normal(g.shape)
    shadow *= sigma[:, None]
    g -= shadow
    g[:n_sec] += pattern
    g += np.where(tier == MACRO, params.macro_rx_gain_db, params.pico_rx_gain_db)[:, None]
    g -= params.penetration_loss_db

    rs_power = np.where(tier == MACRO, params.macro_rs_power_dbm, params.pico_rs_power_dbm)
    return GainMatrix(g=g, cell_tier=tier, rs_power_dbm=rs_power)
