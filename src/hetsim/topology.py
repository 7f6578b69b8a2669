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

    a and b are each one point (2,) or many points (N, 2) and (M, 2).
    Two single points give a float; otherwise the result has the shape
    (N,), (M,) or (N, M), each entry bit for bit the single-point call.
    """
    a, b = np.asarray(a), np.asarray(b)
    # axes: the images, a's points, b's points; x and y apart
    a_axes = a.shape[:-1] + (1,) * (b.ndim - 1)
    image_axes = (7,) + (1,) * (a.ndim + b.ndim - 2)
    dx = (b[..., 0] + layout.wrap_vectors[:, 0].reshape(image_axes)) - a[..., 0].reshape(a_axes)
    dy = (b[..., 1] + layout.wrap_vectors[:, 1].reshape(image_axes)) - a[..., 1].reshape(a_axes)
    d = np.sqrt(np.min(dx * dx + dy * dy, axis=0))
    return d if d.ndim else float(d)


def _wrap180(angle_deg):
    """Wrap angle(s) to [-180, 180)."""
    return (angle_deg + 180.0) % 360.0 - 180.0


_BORESIGHTS = np.array(SECTOR_BORESIGHTS_DEG)

# outward normals of the six hexagon edges, at azimuths 0, 60, ..., 300 degrees
_HEX_ANGLES = np.deg2rad(np.arange(0.0, 360.0, 60.0))
_HEX_NORMALS = np.stack([np.cos(_HEX_ANGLES), np.sin(_HEX_ANGLES)], axis=1)


def sector_of(point: np.ndarray, layout: Layout) -> int | np.ndarray:
    """Sector whose region contains the point (no wraparound mirroring).

    The containing site is the nearest one (its hexagon is its Voronoi
    cell); the sector within the site is the 120-degree wedge whose
    boresight is nearest in angle. Ties go to the lower index. point may
    be one point (2,), giving an int, or N points (N, 2), giving the (N,)
    sectors of N single calls.
    """
    point = np.asarray(point)
    x, y = point[..., 0], point[..., 1]
    # the candidates (sites, then boresights) on the first axis, the points after
    candidates = (1,) * x.ndim
    dx = layout.sites[:, 0].reshape((N_SITES,) + candidates) - x
    dy = layout.sites[:, 1].reshape((N_SITES,) + candidates) - y
    site = (dx * dx + dy * dy).argmin(axis=0)
    theta = np.rad2deg(np.arctan2(y - layout.sites[site, 1], x - layout.sites[site, 0]))
    offsets = np.abs(_wrap180(theta - _BORESIGHTS.reshape((SECTORS_PER_SITE,) + candidates)))
    sector = site * SECTORS_PER_SITE + offsets.argmin(axis=0)
    return sector if sector.ndim else int(sector)


# Placement is rejection sampling, one candidate per pair of uniform draws
# (u, v). A candidate that misses the sector region is an inner failure:
# the same attempt draws again. One that lies in the region but breaks a
# spacing rule is an outer failure: a new attempt starts. Each object has
# PLACEMENT_RETRY_BUDGET draws per attempt and attempts per object.
_INNER, _OUTER, _PASS = 0, 1, 2

# the cap on a doubled window, which bounds the per-window arrays of
# infeasible layouts
_MAX_WINDOW = 1024


class _Draws:
    """The generator's pairs of doubles, drawn ahead in windows and taken in order.

    Objects are placed one after another: `window` shows the untaken
    pairs, and `walk` takes them pair by pair for the next object, as the
    one-pair-at-a-time loops draw them. On exit the generator is restored
    to its state on entry and advanced by the draws taken, so it stands
    where drawing only those, one double at a time, leaves it.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._entry = rng.bit_generator.state
        self._ahead = np.empty((0, 2))
        self._at = 0      # pairs of the current window already taken
        self._taken = 0   # and of the windows before it
        self._run = 0     # the current object's inner failures in a row
        self._fails = 0   # and its outer failures

    def __enter__(self) -> _Draws:
        return self

    def __exit__(self, *exc) -> None:
        bg = self._rng.bit_generator
        bg.state = self._entry
        bg.advance(2 * (self._taken + self._at))
        if self._entry["has_uint32"]:
            # advance drops a buffered 32-bit half, which drawing doubles keeps
            bg.state = {**bg.state, "has_uint32": 1, "uinteger": self._entry["uinteger"]}

    def window(self, n: int, last: int) -> np.ndarray:
        """The next untaken pairs (W, 2), columns u and v, for n objects
        after a window of last pairs that they ran out of (0 for none).

        A sector region takes 28% of the draws in its disc, so n objects
        use about 3.6 n pairs, and W = 4 n + 16 makes a second window rare.
        A later window is at least twice the last, up to _MAX_WINDOW.
        """
        n = max(4 * n + 16, min(2 * last, _MAX_WINDOW))
        self._taken += self._at
        self._ahead = self._ahead[self._at:]
        self._at = 0
        if len(self._ahead) < n:
            self._ahead = np.concatenate([self._ahead, self._rng.random((n - len(self._ahead), 2))])
        return self._ahead[:n]

    def walk(self, kinds: np.ndarray, name: str) -> int | None:
        """Window index of the next object's pass, taking the pairs up to it.

        kinds (W,) holds the class of each pair of the window for this
        object. None comes back when the window runs out first: its pairs
        are taken, and the object's failures carry over to the next
        window. Raises PlacementError, naming name, at the failure that
        uses either budget up, with the pairs up to it taken.
        """
        for i, kind in enumerate(kinds[self._at:].tolist(), self._at):
            if kind == _PASS:
                self._at, self._run, self._fails = i + 1, 0, 0
                return i
            if kind == _INNER:
                self._run += 1
            else:
                # an outer failure ends the attempt and its run of inner ones
                self._run, self._fails = 0, self._fails + 1
            if PLACEMENT_RETRY_BUDGET in (self._run, self._fails):
                self._at = i + 1
                how = "drew no point in the sector region in" if self._run else "exhausted"
                raise PlacementError(f"{name} {how} {PLACEMENT_RETRY_BUDGET} tries (constraints infeasible?)")
        self._at = len(kinds)
        return None


def _polar(center: np.ndarray, r: np.ndarray, rad: np.ndarray) -> np.ndarray:
    """Points (..., W, 2) at radii r and angles rad (W,) from center (..., 2)."""
    offsets = np.empty((len(r), 2))
    np.multiply(r, np.cos(rad), out=offsets[:, 0])
    np.multiply(r, np.sin(rad), out=offsets[:, 1])
    return center[..., None, :] + offsets


def _sector_candidates(layout: Layout, sector: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uniform candidates in a sector's disc (W, 2), and which lie in its region.

    The region is the 120-degree wedge of the site hexagon. The pair
    (u, v) gives radius R sqrt(u) and azimuth 360 v, with R the hexagon
    circumradius.
    """
    center = layout.sites[layout.sector_site[sector]]
    r = layout.isd / np.sqrt(3.0) * np.sqrt(pairs[:, 0])
    phi = 360.0 * pairs[:, 1]
    rad = np.deg2rad(phi)
    points = _polar(center, r, rad)
    in_wedge = np.abs(_wrap180(phi - layout.sector_boresight_deg[sector])) < 60.0
    # one matrix-vector product per point, which rounds as the single-point product does
    edges = _HEX_NORMALS @ (points - center)[:, :, None]
    in_hexagon = (edges <= layout.isd / 2.0 + 1e-9).all(axis=(1, 2))
    return points, in_wedge & in_hexagon


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
    # the sites, then the picos as they are placed, with the spacing each keeps
    stations = np.concatenate([layout.sites, np.empty((layout.n_sectors * per_sector, 2))])
    spacing = np.repeat([min_to_site_m, min_to_pico_m], [N_SITES, layout.n_sectors * per_sector])
    picos = stations[N_SITES:]
    placed = 0
    # distances, not squared distances: each threshold test rounds as the
    # distance of its pair of points does
    with _Draws(rng) as draws:
        for sector in range(layout.n_sectors):
            end, pairs = (sector + 1) * per_sector, ()
            while placed < end:
                pairs = draws.window(end - placed, len(pairs))
                cands, inside = _sector_candidates(layout, sector, pairs)
                # the window's candidates at once against the sites, the picos
                # placed so far and each other
                inner = inside.nonzero()[0]
                seen = N_SITES + placed
                d = wrap_distance(cands[inner], np.concatenate([stations[:seen], cands[inner]]), layout)
                kinds = np.where(inside, _PASS, _INNER)
                kinds[inner[(d[:, :seen] < spacing[:seen]).any(axis=1)]] = _OUTER
                close = d[:, seen:] < min_to_pico_m
                while placed < end and (i := draws.walk(kinds, f"pico placement in sector {sector}")) is not None:
                    picos[placed] = cands[i]
                    placed += 1
                    # the later candidates too close to this pick
                    kinds[inner[close[:, np.searchsorted(inner, i)]]] = _OUTER
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
    uniform in the sector. A user may lie on a station: the gain matrix
    evaluates path loss at no less than radio.MIN_LINK_DISTANCE_M.
    """
    per_sector_picos = np.bincount(pico_sector, minlength=layout.n_sectors) if len(pico_sector) else np.zeros(layout.n_sectors, dtype=int)
    if users_per_sector < per_sector_picos.max(initial=0):
        raise ValueError(
            f"users_per_sector={users_per_sector} is less than the pico count "
            f"in some sector ({per_sector_picos.max(initial=0)}); every pico needs a seed user"
        )

    users = np.empty((layout.n_sectors * users_per_sector, 2))
    placed = 0
    with _Draws(rng) as draws:
        for sector in range(layout.n_sectors):
            # the seed users, one row of classes per pico, then the uniform
            # users, one row
            seeds = np.flatnonzero(pico_sector == sector) if len(pico_sector) else np.array([], dtype=int)
            names = [f"seed user for pico {pico}" for pico in seeds] + [f"user placement in sector {sector}"]
            first, end, pairs = placed, placed + users_per_sector, ()
            while placed < end:
                pairs = draws.window(end - placed, len(pairs))
                r = seed_radius_m * np.sqrt(pairs[:, 0])
                phi = 2 * np.pi * pairs[:, 1]
                seeded = _polar(picos[seeds], r, phi)
                home = sector_of(seeded.reshape(-1, 2), layout).reshape(seeded.shape[:2]) == sector
                uniform, inside = _sector_candidates(layout, sector, pairs)
                points = np.concatenate([seeded, uniform[None]])
                # a seed user has one budget: a draw outside the host sector
                # costs one try
                kinds = np.where(np.concatenate([home, inside[None]]), _PASS, _OUTER)
                kinds[-1, ~inside] = _INNER
                while placed < end:
                    row = min(placed - first, len(seeds))
                    i = draws.walk(kinds[row], names[row])
                    if i is None:
                        break
                    users[placed] = points[row, i]
                    placed += 1

    return NodeSet(
        picos=picos,
        pico_sector=np.asarray(pico_sector, dtype=int),
        users=users,
    )
