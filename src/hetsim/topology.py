"""Hexagonal multi-tier layout generation with toroidal wraparound.

Geometry conventions used throughout:
  * positions are 2-D numpy arrays in meters, site 0 at the origin;
  * angles are degrees counterclockwise from the +x axis;
  * each site carries 3 sectors with boresights at 30/150/270 degrees,
    a sector region being the 120-degree wedge of the site's hexagonal
    cell centered on the boresight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_SITES = 19
SECTORS_PER_SITE = 3
SECTOR_BORESIGHTS_DEG = (30.0, 150.0, 270.0)

# retry budget for every rejection-sampled object (pico, user)
PLACEMENT_RETRY_BUDGET = 10_000

# any draw closer than this to a base station is re-sampled
_MIN_BS_SEPARATION_M = 1e-6


class PlacementError(RuntimeError):
    """Raised when constrained placement exhausts its retry budget."""


@dataclass(frozen=True)
class Layout:
    """19-site tri-sector grid plus the 7-image wraparound group."""

    sites: np.ndarray           # (19, 2) site positions, m
    sector_site: np.ndarray     # (57,) site index of each sector
    sector_boresight_deg: np.ndarray  # (57,) boresight azimuths
    isd: float
    wrap_vectors: np.ndarray    # (7, 2) translations, first is (0, 0)

    @property
    def n_sectors(self) -> int:
        return len(self.sector_site)


@dataclass(frozen=True)
class NodeSet:
    """Placed picocells and users for one drop."""

    picos: np.ndarray           # (P, 2) positions, m
    pico_sector: np.ndarray     # (P,) host sector index
    users: np.ndarray           # (K, 2) positions, m
    user_sector: np.ndarray     # (K,) home sector index
    user_seed_pico: np.ndarray  # (K,) pico index the user was seeded on, -1 if none

    @property
    def n_picos(self) -> int:
        return len(self.picos)

    @property
    def n_users(self) -> int:
        return len(self.users)


def build_layout(isd: float) -> Layout:
    """Build the canonical 19-site hexagonal grid with inter-site distance isd.

    Sites are the hexagonal-lattice points within two rings of the origin,
    ordered by (ring, azimuth). The wraparound group is the identity plus
    the six shortest translations that map the 19-cell cluster onto its
    neighboring copies (cluster shift 3*b1 + 2*b2 and its 60-degree
    rotations, all of length sqrt(19)*isd).
    """
    if isd <= 0:
        raise ValueError(f"isd must be positive, got {isd}")

    b1 = np.array([isd, 0.0])
    b2 = np.array([isd / 2.0, isd * np.sqrt(3.0) / 2.0])

    coords = []
    for q in range(-2, 3):
        for r in range(-2, 3):
            if (abs(q) + abs(r) + abs(q + r)) // 2 <= 2:
                coords.append((q, r))
    positions = [q * b1 + r * b2 for q, r in coords]

    def ring_angle(pos_qr):
        (q, r), pos = pos_qr
        ring = (abs(q) + abs(r) + abs(q + r)) // 2
        ang = np.arctan2(pos[1], pos[0]) % (2 * np.pi)
        return (ring, ang)

    ordered = sorted(zip(coords, positions), key=ring_angle)
    sites = np.array([pos for _, pos in ordered])

    sector_site = np.repeat(np.arange(N_SITES), SECTORS_PER_SITE)
    sector_boresight = np.tile(np.array(SECTOR_BORESIGHTS_DEG), N_SITES)

    t1 = 3 * b1 + 2 * b2
    rot60 = np.array([[0.5, -np.sqrt(3.0) / 2.0], [np.sqrt(3.0) / 2.0, 0.5]])
    t2 = rot60 @ t1
    t3 = rot60 @ t2
    wrap = np.array([[0.0, 0.0], t1, t2, t3, -t1, -t2, -t3])

    return Layout(
        sites=sites,
        sector_site=sector_site,
        sector_boresight_deg=sector_boresight,
        isd=float(isd),
        wrap_vectors=wrap,
    )


def wrap_distance(a: np.ndarray, b: np.ndarray, layout: Layout) -> float | np.ndarray:
    """Minimum distance between a and b over the 7 mirror images.

    b may be one point (2,), giving a float, or N points (N, 2), giving
    the (N,) distances of N single-point calls bit for bit.
    """
    b = np.asarray(b)
    diffs = (b[..., None, :] + layout.wrap_vectors) - np.asarray(a)
    d = np.sqrt(np.min(np.einsum("...ij,...ij->...i", diffs, diffs), axis=-1))
    return d if b.ndim > 1 else float(d)


def _wrap180(angle_deg):
    """Wrap angle(s) to [-180, 180)."""
    return (angle_deg + 180.0) % 360.0 - 180.0


# outward normals of the six hexagon edges, at azimuths 0, 60, ..., 300 degrees
_HEX_ANGLES = np.deg2rad(np.arange(0.0, 360.0, 60.0))
_HEX_NORMALS = np.stack([np.cos(_HEX_ANGLES), np.sin(_HEX_ANGLES)], axis=1)


def _in_hexagon(point: np.ndarray, center: np.ndarray, isd: float) -> bool:
    """True if point lies in the hexagonal cell (Voronoi region) of center.

    The cell has flat edges facing the six lattice neighbors at azimuths
    0, 60, ..., 300 degrees, each at perpendicular distance isd/2.
    """
    return bool((_HEX_NORMALS @ (point - center) <= isd / 2.0 + 1e-9).all())


def sector_of(point: np.ndarray, layout: Layout) -> int:
    """Sector whose region contains the point (no wraparound mirroring).

    The containing site is the nearest one (its hexagon is its Voronoi
    cell); the sector within the site is the 120-degree wedge whose
    boresight is nearest in angle.
    """
    d2 = np.sum((layout.sites - point) ** 2, axis=1)
    site = int(np.argmin(d2))
    rel = point - layout.sites[site]
    theta = np.rad2deg(np.arctan2(rel[1], rel[0]))
    offsets = np.abs(_wrap180(theta - np.array(SECTOR_BORESIGHTS_DEG)))
    return site * SECTORS_PER_SITE + int(np.argmin(offsets))


def _sample_in_sector(layout: Layout, sector: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw inside a sector region (wedge of the site hexagon)."""
    site = layout.sector_site[sector]
    center = layout.sites[site]
    boresight = layout.sector_boresight_deg[sector]
    radius = layout.isd / np.sqrt(3.0)  # hexagon circumradius
    for _ in range(PLACEMENT_RETRY_BUDGET):
        # rng.uniform(0, s) returns 0 + s * rng.random(): same value, same
        # stream, and the plain call is cheaper
        u = rng.random()
        phi = 360.0 * rng.random()
        # both tests are pure, so the cheap wedge test goes first
        if abs(_wrap180(phi - boresight)) >= 60.0:
            continue
        r = radius * np.sqrt(u)
        rad = np.deg2rad(phi)
        point = center + r * np.array([np.cos(rad), np.sin(rad)])
        if not _in_hexagon(point, center, layout.isd):
            continue
        return point
    raise PlacementError(f"could not draw a point in sector {sector}")


def place_picos(
    layout: Layout,
    per_sector: int,
    rng: np.random.Generator,
    min_to_site_m: float = 75.0,
    min_to_pico_m: float = 35.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Place per_sector picocells uniformly in every sector region.

    Each pico keeps at least min_to_site_m (wraparound) to every macro
    site and min_to_pico_m to every previously placed pico. Returns
    (positions, host sector indices).
    """
    if per_sector < 0:
        raise ValueError("per_sector must be >= 0")
    picos = np.empty((layout.n_sectors * per_sector, 2))
    placed = 0
    for sector in range(layout.n_sectors):
        for _ in range(per_sector):
            for _ in range(PLACEMENT_RETRY_BUDGET):
                cand = _sample_in_sector(layout, sector, rng)
                # distances, not squared distances: the threshold test must
                # round exactly as the scalar check did
                if np.any(wrap_distance(cand, layout.sites, layout) < min_to_site_m):
                    continue
                if np.any(wrap_distance(cand, picos[:placed], layout) < min_to_pico_m):
                    continue
                picos[placed] = cand
                placed += 1
                break
            else:
                raise PlacementError(
                    f"pico placement in sector {sector} exhausted "
                    f"{PLACEMENT_RETRY_BUDGET} retries (constraints infeasible?)"
                )
    return picos, np.repeat(np.arange(layout.n_sectors), per_sector)


def place_users(
    layout: Layout,
    picos: np.ndarray,
    pico_sector: np.ndarray,
    users_per_sector: int,
    rng: np.random.Generator,
    seed_radius_m: float = 50.0,
) -> NodeSet:
    """Drop users: one per pico inside its coverage disc, rest uniform.

    Seeded users are drawn uniformly in the seed_radius_m disc around
    their pico, re-sampled until they also fall inside the pico's host
    sector region (keeps per-sector counts exact). Remaining users are
    uniform in the sector. Draws coinciding with a base station position
    are re-sampled.
    """
    per_sector_picos = np.bincount(pico_sector, minlength=layout.n_sectors) if len(pico_sector) else np.zeros(layout.n_sectors, dtype=int)
    if users_per_sector < per_sector_picos.max(initial=0):
        raise ValueError(
            f"users_per_sector={users_per_sector} is less than the pico count "
            f"in some sector ({per_sector_picos.max(initial=0)}); every pico needs a seed user"
        )

    bs_positions = np.concatenate([layout.sites, picos]) if len(picos) else layout.sites

    def clear_of_stations(point):
        return ((bs_positions - point) ** 2).sum(axis=1).min() > _MIN_BS_SEPARATION_M**2

    user_pos: list[np.ndarray] = []
    user_sector: list[int] = []
    user_seed: list[int] = []

    for sector in range(layout.n_sectors):
        pico_ids = np.flatnonzero(pico_sector == sector) if len(pico_sector) else np.array([], dtype=int)
        for pid in pico_ids:
            center = picos[pid]
            for _ in range(PLACEMENT_RETRY_BUDGET):
                r = seed_radius_m * np.sqrt(rng.random())
                phi = 2 * np.pi * rng.random()
                point = center + r * np.array([np.cos(phi), np.sin(phi)])
                if sector_of(point, layout) != sector:
                    continue
                if not clear_of_stations(point):
                    continue
                break
            else:
                raise PlacementError(f"seed user for pico {pid} exhausted retries")
            user_pos.append(point)
            user_sector.append(sector)
            user_seed.append(int(pid))
        for _ in range(users_per_sector - len(pico_ids)):
            for _ in range(PLACEMENT_RETRY_BUDGET):
                point = _sample_in_sector(layout, sector, rng)
                if clear_of_stations(point):
                    break
            else:
                raise PlacementError(f"user placement in sector {sector} exhausted retries")
            user_pos.append(point)
            user_sector.append(sector)
            user_seed.append(-1)

    return NodeSet(
        picos=picos,
        pico_sector=np.asarray(pico_sector, dtype=int),
        users=np.array(user_pos) if user_pos else np.zeros((0, 2)),
        user_sector=np.array(user_sector, dtype=int),
        user_seed_pico=np.array(user_seed, dtype=int),
    )
