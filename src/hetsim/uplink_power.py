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

import numpy as np

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
    total_dbm: float | np.ndarray
    per_rb_dbm: float | np.ndarray
    capped: bool | np.ndarray


def _losses(pl_db) -> np.ndarray:
    pl = np.asarray(pl_db, dtype=float)
    if not np.isfinite(pl).all():
        raise ValueError("pl_db must be finite")
    return pl


def _bandwidth_db(cfg: PowerConfig):
    return 10.0 * np.log10(cfg.rbs_per_user)


def _total_dbm(cfg: PowerConfig, pl: np.ndarray, out: np.ndarray | None = None):
    """The law's total power min(Pmax, P0 + 10 log10(N_RB) + alpha * PL), and which links the cap holds.

    The total is computed in out when it is given; out may be pl itself.
    """
    total = np.multiply(pl, cfg.alpha, out=out)
    total += cfg.p0_dbm + _bandwidth_db(cfg)
    capped = total > cfg.pmax_dbm
    return np.minimum(total, cfg.pmax_dbm, out=out), capped


def open_loop_power(cfg: PowerConfig, pl_db) -> UserPower:
    """Transmit power of users with coupling loss pl_db on cfg.rbs_per_user blocks.

    pl_db is one loss (floats come back) or an array of losses (arrays
    come back, each entry equal to the scalar call on that loss).
    """
    pl = _losses(pl_db)
    total, capped = _total_dbm(cfg, pl)
    per_rb = total - _bandwidth_db(cfg)
    if pl.ndim == 0:
        return UserPower(total_dbm=float(total), per_rb_dbm=float(per_rb), capped=bool(capped))
    return UserPower(total_dbm=total, per_rb_dbm=per_rb, capped=capped)


def per_rb_mw(cfg: PowerConfig, pl_db: np.ndarray) -> np.ndarray:
    """Per-RB transmit power in mW of links with coupling losses pl_db, computed in place.

    A float64 array pl_db is overwritten with the result and returned;
    any other input is converted to a new float64 array first. Each entry
    is 10 ** (per_rb_dbm / 10) of open_loop_power on the same losses, bit
    for bit.
    """
    pl = _losses(pl_db)
    power, _ = _total_dbm(cfg, pl, out=pl)
    power -= _bandwidth_db(cfg)
    power /= 10.0
    return np.power(10.0, power, out=power)
