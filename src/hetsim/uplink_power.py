"""Open-loop fractional uplink power control.

Total transmit power is min(Pmax, P0 + 10*log10(N_RB) + alpha*PL) with PL
the coupling loss (path loss including shadowing and antenna terms) to the
serving cell. Power is split equally across the allocated blocks, cap
included. P0 is the nominal per-block term that LTE signals together with
alpha (3GPP TS 36.213 5.1.1.1). Only at alpha = 1 is it the per-block
received-power target; below that the received power per block is
P0 - (1 - alpha)*PL, so each alpha of a sweep needs its own P0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

# compensation factors the LTE signalling actually carries
STANDARD_ALPHAS = (0.0, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class PowerConfig:
    p0_dbm: float
    alpha: float
    pmax_dbm: float = 23.0
    rbs_per_user: int = 4

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not any(math.isclose(self.alpha, a, abs_tol=1e-12) for a in STANDARD_ALPHAS):
            warnings.warn(
                f"alpha={self.alpha} is not one of the signalled values {STANDARD_ALPHAS}",
                stacklevel=2,
            )
        if self.rbs_per_user < 1:
            raise ValueError("rbs_per_user must be >= 1")


@dataclass(frozen=True)
class UserPower:
    total_dbm: float
    per_rb_dbm: float
    capped: bool


def open_loop_power(cfg: PowerConfig, pl_db: float, n_rb: int | None = None) -> UserPower:
    """Transmit power of a user with coupling loss pl_db on n_rb blocks."""
    if n_rb is None:
        n_rb = cfg.rbs_per_user
    if n_rb < 1:
        raise ValueError(f"n_rb must be >= 1, got {n_rb}")
    if not math.isfinite(pl_db):
        raise ValueError("pl_db must be finite")
    bw_term = 10.0 * math.log10(n_rb)
    uncapped = cfg.p0_dbm + bw_term + cfg.alpha * pl_db
    total = min(cfg.pmax_dbm, uncapped)
    return UserPower(total_dbm=total, per_rb_dbm=total - bw_term, capped=uncapped > cfg.pmax_dbm)
