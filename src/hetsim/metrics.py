"""Wideband SINR combining, the campaign's SINR report, percentiles and CDFs.

A report holds each (drop, strategy, alpha) run as columns over its
users; per-user SinrSample records are built only when its sample view
is iterated.

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
from typing import Iterable, Iterator, NamedTuple

import numpy as np

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


class SinrRun(NamedTuple):
    """One (drop, strategy, alpha) run: columns over its users 0..K-1 and
    the tallies of its selection; the defaults describe a run with no search."""

    drop: int
    strategy: str
    alpha: float
    p0_dbm: float
    serving_cell: np.ndarray  # (K,) serving cell of each user
    sinr_db: np.ndarray       # (K,) wideband SINR (dB) of each user
    cell_tier: np.ndarray     # (C,) tier of every cell of the drop
    converged: bool = True
    passes_used: int = 0
    moves_total: int = 0
    capped_users: int = 0     # users held at the power cap
    cycle_period: int | None = None  # passes per cycle of a search that cycled


class SampleView:
    """Read-only view of runs as one SinrSample per user and run.

    Its length is counted from the columns; the samples are built only
    while it is iterated.
    """

    __slots__ = ("_runs",)

    def __init__(self, runs: list[SinrRun]):
        self._runs = runs

    def __len__(self) -> int:
        return sum(len(run.sinr_db) for run in self._runs)

    def __iter__(self) -> Iterator[SinrSample]:
        for run in self._runs:
            columns = zip(
                run.serving_cell.tolist(),
                run.cell_tier[run.serving_cell].tolist(),
                run.sinr_db.tolist(),
            )
            for user, (cell, tier, sinr_db) in enumerate(columns):
                yield SinrSample(run.drop, user, run.strategy, run.alpha, run.p0_dbm, cell, tier, sinr_db)

    def __eq__(self, other) -> bool:
        if isinstance(other, (SampleView, list)):
            return list(self) == list(other)
        return NotImplemented


def wideband_sinr(per_subcarrier: Iterable[float]) -> float:
    """MMSE-combined effective SINR of one vector of per-subcarrier linear SINRs.

    A constant vector returns its value exactly.
    """
    g = np.asarray(list(per_subcarrier) if not isinstance(per_subcarrier, np.ndarray) else per_subcarrier, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"per-subcarrier SINRs must form one vector, got shape {g.shape}")
    if g.size == 0:
        raise ValueError("wideband SINR of an empty vector is undefined")
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("per-subcarrier SINRs must be finite and positive")
    gmin = float(g.min())
    gmax = float(g.max())
    w = 1.0 / (1.0 + g)
    value = gmin + float(np.dot(g - gmin, w)) / float(np.sum(w))
    # combiner output provably sits in [min, max]; clamp rounding residue
    return min(max(value, gmin), gmax)


def percentiles(samples_db: Iterable[float], ranks: Iterable[int] = PERCENTILE_RANKS) -> dict[int, float]:
    """Nearest-rank percentiles: element ceil(p*N/100) of the ascending sort."""
    if not isinstance(samples_db, np.ndarray):
        samples_db = list(samples_db)
    data = np.sort(np.asarray(samples_db, dtype=float))
    if data.size == 0:
        raise ValueError("percentiles of an empty sample set are undefined")
    out = {}
    for p in ranks:
        idx = max(1, math.ceil(p / 100.0 * data.size))
        out[int(p)] = float(data[idx - 1])
    return out


@dataclass
class SinrReport:
    """All wideband SINR results of a campaign, one column set per run."""

    runs: list[SinrRun]

    @property
    def samples(self) -> SampleView:
        return SampleView(self.runs)

    def grouped(self) -> dict[tuple[str, float], np.ndarray]:
        """SINR values per (strategy, alpha), runs in order, groups in first-appearance order."""
        columns: dict[tuple[str, float], list[np.ndarray]] = {}
        for run in self.runs:
            if len(run.sinr_db):
                columns.setdefault((run.strategy, run.alpha), []).append(run.sinr_db)
        return {key: np.concatenate(values) for key, values in columns.items()}

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


def export_cdf(report: SinrReport) -> list[tuple[str, float, np.ndarray, np.ndarray]]:
    """(strategy, alpha, ascending sinr_db, fraction) per group, fraction[i - 1] = i / N."""
    curves = []
    for (strategy, alpha), values in report.grouped().items():
        n = values.size
        curves.append((strategy, alpha, np.sort(values), np.arange(1, n + 1) / n))
    return curves
