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
    d_km = d_m / 1000.0
    if tier == MACRO:
        pl = params.macro_pl_const_db + params.macro_pl_slope * np.log10(d_km)
    elif tier == PICO:
        pl = params.pico_pl_const_db + params.pico_pl_slope * np.log10(d_km)
    else:
        raise ValueError(f"unknown tier {tier!r}")
    return pl if pl.shape else float(pl)


def antenna_pattern_db(theta_deg, params: RadioParams = DEFAULT_RADIO):
    """Horizontal pattern -min(12*(theta/theta3dB)^2, Am) in dB."""
    theta = np.asarray(theta_deg, dtype=float)
    atten = np.minimum(
        12.0 * (theta / params.antenna_theta3db_deg) ** 2,
        params.antenna_max_atten_db,
    )
    return -atten if atten.shape else -float(atten)


def compute_gain_matrix(
    layout: Layout,
    nodes: NodeSet,
    rng: np.random.Generator,
    params: RadioParams = DEFAULT_RADIO,
) -> GainMatrix:
    """Composite (cell, user) gain matrix for one drop.

    Shadowing is drawn i.i.d. per link (one standard-normal matrix scaled
    by the tier sigma), so the matrix is bit-reproducible per rng state.
    """
    n_sec = layout.n_sectors
    n_pico = nodes.n_picos
    users = nodes.users

    cell_pos = np.concatenate([layout.sites[layout.sector_site], nodes.picos]) if n_pico else layout.sites[layout.sector_site]
    tier = np.array([MACRO] * n_sec + [PICO] * n_pico)

    # nearest wraparound image of every user as seen from every cell: a
    # running minimum over the images that keeps the first on ties
    for k, shift in enumerate(layout.wrap_vectors):
        dx = (users[:, 0] + shift[0])[None, :] - cell_pos[:, 0, None]     # (C, K)
        dy = (users[:, 1] + shift[1])[None, :] - cell_pos[:, 1, None]
        dist2 = dx * dx + dy * dy
        if k == 0:
            best2, disp_x, disp_y = dist2, dx, dy
            continue
        closer = dist2 < best2
        np.copyto(best2, dist2, where=closer)
        np.copyto(disp_x, dx, where=closer)
        np.copyto(disp_y, dy, where=closer)
    dist = np.sqrt(best2)

    pl = np.empty_like(dist)
    pl[:n_sec] = path_loss_db(MACRO, dist[:n_sec], params)
    if n_pico:
        pl[n_sec:] = path_loss_db(PICO, dist[n_sec:], params)

    sigma = np.where(tier == MACRO, params.macro_shadow_sigma_db, params.pico_shadow_sigma_db)
    shadow = rng.standard_normal(dist.shape) * sigma[:, None]

    pattern = np.zeros_like(dist)
    theta = np.rad2deg(np.arctan2(disp_y[:n_sec], disp_x[:n_sec]))
    off = (theta - layout.sector_boresight_deg[:n_sec, None] + 180.0) % 360.0 - 180.0
    pattern[:n_sec] = antenna_pattern_db(off, params)

    rx_gain = np.where(tier == MACRO, params.macro_rx_gain_db, params.pico_rx_gain_db)
    g = -pl - shadow + pattern + rx_gain[:, None] - params.penetration_loss_db

    rs_power = np.where(tier == MACRO, params.macro_rs_power_dbm, params.pico_rs_power_dbm)
    return GainMatrix(g=g, cell_tier=tier, rs_power_dbm=rs_power)
