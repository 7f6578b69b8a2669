"""Correctness gate for benchmark outputs.

At a workload's recorded seed the campaign outputs must match the sha256
digests in golden.json, and the oracle suite its recorded
(converged, containment_failures, non_converged_instances) triple. At
any other seed only the structure is checked. Every check returns a list
of problems; an empty list means the outputs pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

GATED_FILES = ("samples.csv", "percentiles.csv", "cdf.csv", "summary.txt")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
SAMPLES_HEADER = ["drop", "user", "strategy", "alpha", "serving_cell", "tier", "sinr_db"]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def file_hashes(outdir: str) -> dict[str, str]:
    """sha256 of every gated output file that exists."""
    out = {}
    for name in GATED_FILES:
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(chunk)
            out[name] = digest.hexdigest()
    return out


def check_hashes(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    return [
        f"{name}: sha256 {actual.get(name, 'missing')} != recorded {digest}"
        for name, digest in expected.items()
        if actual.get(name) != digest
    ]


def check_campaign_structure(
    outdir: str, drops: int, users: int, strategies: list[str], alphas: tuple[float, ...]
) -> list[str]:
    """Row counts, finite SINR and one percentile row per (strategy, alpha)."""
    problems: list[str] = []
    groups = {(s, f"{a:g}") for s in strategies for a in alphas}
    per_group = drops * users
    for name in GATED_FILES:
        if not os.path.exists(os.path.join(outdir, name)):
            problems.append(f"{name} missing")
    if problems:
        return problems

    rows = 0
    seen: dict[tuple[str, str], int] = {}
    with open(os.path.join(outdir, "samples.csv"), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != SAMPLES_HEADER:
            problems.append("samples.csv header differs")
        for row in reader:
            rows += 1
            if len(row) != len(SAMPLES_HEADER):
                problems.append(f"samples.csv row {rows} has {len(row)} fields")
                continue
            try:
                finite = math.isfinite(float(row[6]))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"samples.csv row {rows}: sinr_db {row[6]!r} is not finite")
            key = (row[2], row[3])
            seen[key] = seen.get(key, 0) + 1
    if rows != per_group * len(groups):
        problems.append(f"samples.csv has {rows} rows, expected {per_group * len(groups)}")
    if set(seen) != groups or any(n != per_group for n in seen.values()):
        problems.append("samples.csv groups differ from strategies x alphas")

    with open(os.path.join(outdir, "percentiles.csv"), encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(fh))
    keys = [(r["strategy"], r["alpha"]) for r in table]
    if sorted(keys) != sorted(groups):
        problems.append(f"percentiles.csv has {len(keys)} group rows, expected one per group ({len(groups)})")
    for r in table:
        if int(r["n"]) != per_group:
            problems.append(f"percentiles.csv {r['strategy']} {r['alpha']}: n={r['n']}, expected {per_group}")
        if not all(math.isfinite(float(r[k])) for k in ("p5_db", "p50_db", "p90_db")):
            problems.append(f"percentiles.csv {r['strategy']} {r['alpha']}: non-finite percentile")

    with open(os.path.join(outdir, "cdf.csv"), encoding="utf-8") as fh:
        cdf_rows = sum(1 for _ in fh) - 1
    if cdf_rows != rows:
        problems.append(f"cdf.csv has {cdf_rows} rows, expected {rows}")
    if os.path.getsize(os.path.join(outdir, "summary.txt")) == 0:
        problems.append("summary.txt is empty")
    return problems


def oracle_triple(result) -> list:
    return [result.converged, result.containment_failures, list(result.non_converged_instances)]


def check_oracle(result, expected: list | None) -> list[str]:
    """Recorded triple when given, otherwise containment and a consistent count."""
    problems: list[str] = []
    if result.containment_failures != 0:
        problems.append(f"containment_failures={result.containment_failures}")
    if result.converged + len(result.non_converged_instances) != result.instances:
        problems.append("converged + non-converged != instances")
    if expected is not None and oracle_triple(result) != expected:
        problems.append(f"oracle triple {oracle_triple(result)} != recorded {expected}")
    return problems
