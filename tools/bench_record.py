"""Record hetbench runs of a parent and a change revision in one JSON file.

    python3 tools/bench_record.py --parent <rev> --change <rev> --out BENCH_<n>.json

Run from the repository root. Each revision is exported with `git archive`
into a temporary directory, so only committed files are measured, and
`python3 hetbench/run.py` runs there as the benchmark definition says
(BENCHMARK.json gives the workloads and the run length, the same for both
sides). Per workload, PAIRS untraced pairs run, one run per side with the
same seed (FIRST_SEED, FIRST_SEED + 1, ...), and the side that runs first
alternates from pair to pair; then each side runs TRACED times traced at
the workload's recorded seed, again alternating which side runs first.
The file keeps every run's metrics, and for a traced run the share of
its `trace.wall_s` that each layer's seconds (`*.s`, `*.self_s`) take;
per (side, workload), the min, quartiles and median of each untraced
metric, the min and median of the items its untraced runs attempted
and the median units they completed (attempted over ITEMS_PER_UNIT; a
metric such as peak RSS grows with the units a run completes), and
the median of each traced per-layer metric and of each layer's share,
since layer seconds drift with the host more than the shares of one
run do; per workload and end-to-end metric, the number
of pairs the change won; and the full git revisions and the CPU count.
A run whose summary says `correct: false` or `failed > 0` stops the
recording with an error that names its workload, side and seed.

Last comes a density sweep outside hetbench: a DENSITY_DROPS-drop
campaign of the default scenario (the acc2 shape, master seed 1, no
output files) at each pico and user density of SHAPES, DENSITY_REPEATS
times per side, again alternating which side runs first. Each campaign
runs in a fresh interpreter with one BLAS thread, as hetbench runs, so
its peak RSS is its own. Each campaign also gives a sha256 of its runs'
serving cells and SINR bytes; a shape whose campaigns' digests differ,
between the sides or between repeats, stops the recording with an error,
so a sweep speedup also shows that the outputs did not change. The file
keeps every campaign's seconds per drop, peak RSS and digest, and per
(side, shape) the min, quartiles and median of the first two.
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
TRACED = 3       # traced runs per side: one traced run's layer times drift with the host
# items of one hetbench unit: acc2.cfg's drops, and the oracle's instances
ITEMS_PER_UNIT = {"acc2": 10, "oracle": 2400}

SHAPES = [(picos, users) for users in (12, 24) for picos in (2, 6, 10)]  # per sector
DENSITY_DROPS = 20
DENSITY_REPEATS = 3

# one campaign of a shape, run by a fresh interpreter that imports hetsim
# from the checkout: argv is picos and users per sector and the drop count
DENSITY_RUN = """
import hashlib, json, resource, sys, time
from dataclasses import replace
from hetsim.harness import Scenario, run_campaign
picos, users, drops = map(int, sys.argv[1:])
scenario = replace(Scenario(), picos_per_sector=picos, users_per_sector=users, drops=drops)
start = time.perf_counter()
_, runs = run_campaign(scenario)
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
digest = hashlib.sha256()
for run in runs:
    digest.update(run.serving_cell.astype("<i8").tobytes())
    digest.update(run.sinr_db.astype("<f8").tobytes())
print(json.dumps({"metrics": {"s_per_drop": seconds / drops, "peak_mb": peak_mb}, "digest": digest.hexdigest()}))
"""


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=True).stdout


def export(rev: str, into: str) -> str:
    """Full hash of rev; its committed tree is written under into."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return sha


def bench(checkout: str, side: str, workload: str, seconds: float, trace: int, seed: int | None) -> dict:
    """One hetbench run of the side's checkout; its summary line (correct, attempted, failed, metrics).

    A run whose outputs were wrong or whose operations failed measured
    nothing worth recording, so it raises.
    """
    cmd = [sys.executable, "hetbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(lines[-1])
    if summary["correct"] is not True or summary["failed"] > 0:
        raise RuntimeError(
            f"{workload} {side} seed {seed}: correct={summary['correct']} failed={summary['failed']}, not recorded"
        )
    summary["metrics"] = {name: m["value"] for name, m in summary["metrics"].items()}
    if trace:
        wall = summary["metrics"]["trace.wall_s"]
        summary["shares"] = {name: value / wall for name, value in summary["metrics"].items()
                             if name.endswith((".s", ".self_s"))}
    return summary


def density(checkout: str, picos: int, users: int, drops: int = DENSITY_DROPS) -> dict:
    """One campaign of the shape, run from the checkout's src/ with one BLAS thread.

    Its seconds per drop and peak RSS (MB) are under metrics, and the
    sha256 of its runs' serving cells and SINR under digest.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-c", DENSITY_RUN, str(picos), str(users), str(drops)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{picos} picos / {users} users in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_digest(first: dict, run: dict) -> None:
    """Raise unless run's outputs have the digest of first, a campaign of the same shape."""
    if run["digest"] != first["digest"]:
        raise RuntimeError(
            f"density {run['picos']}x{run['users']}: {run['side']} outputs sha256 {run['digest']} "
            f"!= {first['side']} {first['digest']}, not recorded"
        )


def stats(runs: list[dict]) -> dict:
    """Min, quartiles and median of every metric over runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"min": min(values), "q1": q1, "median": median, "q3": q3}
    return out


def attempted(runs: list[dict], items_per_unit: int) -> dict:
    """Min and median of the items the runs attempted, and the median units they completed."""
    values = [r["attempted"] for r in runs]
    median = statistics.median(values)
    return {"min": min(values), "median": median, "units_median": median / items_per_unit}


def medians(runs: list[dict], field: str = "metrics") -> dict:
    """Median of every value under field (the metrics, or a traced run's shares) over runs."""
    return {name: statistics.median(r[field][name] for r in runs) for name in runs[0][field]}


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
                                 **bench(dirs[side], side, workload, seconds, 0, seed)})
                    print(f"{workload} seed {seed} {side}: {runs[-1]['metrics']}", file=sys.stderr)
            for i in range(TRACED):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    runs.append({"side": side, "workload": workload, "trace": 1, "seed": None,
                                 **bench(dirs[side], side, workload, seconds, 1, None)})
        density_runs = []
        firsts = {}
        for i in range(DENSITY_REPEATS):
            for picos, users in SHAPES:
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    density_runs.append({"side": side, "picos": picos, "users": users,
                                         **density(dirs[side], picos, users)})
                    check_digest(firsts.setdefault((picos, users), density_runs[-1]), density_runs[-1])
                    print(f"density {picos}x{users} {side}: {density_runs[-1]}", file=sys.stderr)

    def of(side, workload, trace):
        return [r for r in runs if (r["side"], r["workload"], r["trace"]) == (side, workload, trace)]

    summary = {
        side: {
            workload: {
                "untraced": stats(of(side, workload, 0)),
                "attempted": attempted(of(side, workload, 0), ITEMS_PER_UNIT[workload]),
                "traced": medians(of(side, workload, 1)),
                "traced_shares": medians(of(side, workload, 1), "shares"),
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
        "traced_runs": TRACED,
        "runs": runs,
        "density": {
            "drops": DENSITY_DROPS,
            "repeats": DENSITY_REPEATS,
            "summary": {
                side: {f"{picos}x{users}": stats([r for r in density_runs
                                                  if (r["side"], r["picos"], r["users"]) == (side, picos, users)])
                       for picos, users in SHAPES}
                for side in ("parent", "change")
            },
            "runs": density_runs,
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
