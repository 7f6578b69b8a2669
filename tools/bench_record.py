"""Record hetbench runs of a parent and a change revision in one JSON file.

    python3 tools/bench_record.py --parent <rev> --change <rev> --out BENCH_<n>.json

Run from the repository root. Each revision is exported with `git archive`
into a temporary directory, so only committed files are measured, and
`python3 hetbench/run.py` runs there as the benchmark definition says
(BENCHMARK.json gives the workloads and the run length, the same for both
sides). Per workload, PAIRS untraced pairs run, one run per side with the
same seed (FIRST_SEED, FIRST_SEED + 1, ...), and the side that runs first
alternates from pair to pair; then each side runs once traced at the
workload's recorded seed. The file keeps every run's metrics; per (side,
workload), the min, quartiles and median of each untraced metric and the
traced per-layer metrics; per workload and end-to-end metric, the number
of pairs the change won; and the full git revisions and the CPU count.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAIRS = 10       # untraced pairs per workload, enough to test a gain claim
FIRST_SEED = 2   # away from the recorded seeds (1 and 0), whose outputs are gated


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=True).stdout


def export(rev: str, into: str) -> str:
    """Full hash of rev; its committed tree is written under into."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return sha


def bench(checkout: str, workload: str, seconds: float, trace: int, seed: int | None) -> dict:
    """One hetbench run; its summary line (correct, attempted, failed, metrics)."""
    cmd = [sys.executable, "hetbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(lines[-1])
    summary["metrics"] = {name: m["value"] for name, m in summary["metrics"].items()}
    return summary


def stats(runs: list[dict]) -> dict:
    """Min, quartiles and median of every metric over runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"min": min(values), "q1": q1, "median": median, "q3": q3}
    return out


def wins(runs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric, the pairs in which the change beat the parent."""
    untraced = {(r["side"], r["seed"]): r["metrics"] for r in runs if r["trace"] == 0}
    seeds = sorted({seed for _, seed in untraced})
    return {
        name: sum((untraced["change", s][name] < untraced["parent", s][name]) if sense == "lower"
                  else (untraced["change", s][name] > untraced["parent", s][name]) for s in seeds)
        for name, sense in better.items()
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        revisions = {side: export(getattr(args, side), path) for side, path in dirs.items()}
        for workload in workloads:
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    runs.append({"side": side, "workload": workload, "trace": 0, "seed": seed,
                                 **bench(dirs[side], workload, seconds, 0, seed)})
                    print(f"{workload} seed {seed} {side}: {runs[-1]['metrics']}", file=sys.stderr)
            for side in ("parent", "change"):
                runs.append({"side": side, "workload": workload, "trace": 1, "seed": None,
                             **bench(dirs[side], workload, seconds, 1, None)})

    summary = {
        side: {
            workload: {
                "untraced": stats([r for r in runs if (r["side"], r["workload"], r["trace"]) == (side, workload, 0)]),
                "traced": next(r["metrics"] for r in runs
                               if (r["side"], r["workload"], r["trace"]) == (side, workload, 1)),
            }
            for workload in workloads
        }
        for side in ("parent", "change")
    }
    record = {
        "command": spec["command"],
        "run_seconds": seconds,
        "revisions": revisions,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "summary": summary,
        "wins": {
            workload: wins([r for r in runs if r["workload"] == workload],
                           {m["name"]: m["better"] for m in spec["end_to_end"]})
            for workload in workloads
        },
        "pairs": PAIRS,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
