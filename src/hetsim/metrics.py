"""SINR computation, percentile statistics and CDF export.

The wideband SINR of a user combines the per-subcarrier SINRs of its
allocated blocks with the MMSE-combining effective value

    gamma = ( 1 / mean(gamma_n / (gamma_n + 1)) - 1 )^-1

which is the weighted mean of the gamma_n with weights 1/(1+gamma_n).
It is evaluated in that weighted-mean form, anchored at the smallest
input, so a constant vector reproduces itself exactly and the result
stays inside [min, max] of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from hetsim.cell_selection import NetworkState
from hetsim.scheduler import cochannel_interferers

SUBCARRIERS_PER_RB = 12
PERCENTILE_RANKS = (5, 50, 90)


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise per resource block from PSD, noise figure, RB width."""

    psd_dbm_hz: float = -174.0
    noise_figure_db: float = 5.0
    rb_bandwidth_hz: float = 180_000.0

    @property
    def per_rb_noise_dbm(self) -> float:
        return self.psd_dbm_hz + self.noise_figure_db + 10.0 * math.log10(self.rb_bandwidth_hz)

    @property
    def per_rb_noise_mw(self) -> float:
        return 10.0 ** (self.per_rb_noise_dbm / 10.0)


class SinrSample(NamedTuple):
    drop: int
    user: int
    strategy: str
    alpha: float
    p0_dbm: float
    serving_cell: int
    tier: str
    sinr_db: float


def per_rb_sinr(user: int, rb: int, state: NetworkState) -> float:
    """Linear SINR of one user on one of its own resource blocks."""
    alloc = state.alloc
    start = int(alloc.user_rb_start[user])
    if not start <= rb < start + alloc.rbs_per_user:
        raise ValueError(f"user {user} is not scheduled on rb {rb}")
    g_lin = state.gains.g_linear
    cell = int(state.serving[user])
    signal = state.per_rb_power_mw[user] * g_lin[cell, user]
    others = cochannel_interferers(alloc, state.serving, user, rb)
    interference = float(g_lin[cell, others] @ state.per_rb_power_mw[others]) if len(others) else 0.0
    return float(signal / (interference + state.noise_rb_mw))


def wideband_sinr(per_subcarrier: Iterable[float]) -> float | np.ndarray:
    """MMSE-combined effective SINR of per-subcarrier linear SINRs.

    A 2-D array is combined row by row into one value per row; a constant
    row returns its value exactly.
    """
    g = np.asarray(list(per_subcarrier) if not isinstance(per_subcarrier, np.ndarray) else per_subcarrier, dtype=float)
    if g.size == 0:
        raise ValueError("wideband SINR of an empty vector is undefined")
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("per-subcarrier SINRs must be finite and positive")
    if g.ndim == 2:
        gmin = g.min(axis=1)
        w = 1.0 / (1.0 + g)
        value = gmin + np.sum((g - gmin[:, None]) * w, axis=1) / np.sum(w, axis=1)
        return np.minimum(np.maximum(value, gmin), g.max(axis=1))
    gmin = float(g.min())
    gmax = float(g.max())
    w = 1.0 / (1.0 + g)
    value = gmin + float(np.dot(g - gmin, w)) / float(np.sum(w))
    # combiner output provably sits in [min, max]; clamp rounding residue
    return min(max(value, gmin), gmax)


def user_wideband_sinr_db(user: int, state: NetworkState) -> float:
    """Wideband SINR (dB) over the user's blocks in its scheduled subframe."""
    per_rb = [per_rb_sinr(user, rb, state) for rb in state.alloc.rb_range(user)]
    per_sc = np.repeat(per_rb, SUBCARRIERS_PER_RB)
    return 10.0 * math.log10(wideband_sinr(per_sc))


def percentiles(samples_db: Iterable[float], ranks: Iterable[int] = PERCENTILE_RANKS) -> dict[int, float]:
    """Nearest-rank percentiles: element ceil(p*N/100) of the ascending sort."""
    data = np.sort(np.asarray(list(samples_db), dtype=float))
    if data.size == 0:
        raise ValueError("percentiles of an empty sample set are undefined")
    out = {}
    for p in ranks:
        idx = max(1, math.ceil(p / 100.0 * data.size))
        out[int(p)] = float(data[idx - 1])
    return out


@dataclass
class SinrReport:
    """All wideband SINR samples of a campaign plus derived statistics."""

    samples: list[SinrSample]

    def grouped(self) -> dict[tuple[str, float], np.ndarray]:
        """SINR values per (strategy, alpha), in first-appearance order, one pass."""
        buckets: dict[tuple[str, float], list[float]] = {}
        for s in self.samples:
            buckets.setdefault((s.strategy, s.alpha), []).append(s.sinr_db)
        return {key: np.array(values) for key, values in buckets.items()}

    def percentile_table(self) -> list[dict]:
        rows = []
        for (strategy, alpha), values in self.grouped().items():
            pct = percentiles(values)
            rows.append(
                {
                    "strategy": strategy,
                    "alpha": alpha,
                    "p5_db": pct[5],
                    "p50_db": pct[50],
                    "p90_db": pct[90],
                    "n": int(values.size),
                }
            )
        return rows


def export_cdf(report: SinrReport) -> list[tuple[str, float, float, float]]:
    """(strategy, alpha, sinr_db, fraction) rows, fraction = rank/N ascending."""
    rows: list[tuple[str, float, float, float]] = []
    for (strategy, alpha), values in report.grouped().items():
        n = values.size
        for i, v in enumerate(np.sort(values).tolist(), start=1):
            rows.append((strategy, alpha, v, i / n))
    return rows
