"""hetsim benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 hetbench/run.py --workload acc2 --seed 1 --seconds 55 --trace 0
    python3 hetbench/run.py --workload acc2 --seed 1 --seconds 55 --trace 1
    python3 hetbench/run.py --record-golden

Run from the repository root. Every metric is printed as `name = value
unit`; the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The full record (run record, notes, problems) is
written under .bench_out/<workload>/, traced spans next to it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("acc2", "oracle"))
    parser.add_argument("--seed", type=int, help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current program's outputs")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    return args


def _import_hetsim():
    """Import hetsim from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hetsim", "__init__.py")):
        raise ImportError(f"no hetsim package under {SRC}")
    sys.path.insert(0, SRC)
    import hetsim

    if os.path.dirname(os.path.dirname(os.path.abspath(hetsim.__file__))) != SRC:
        raise ImportError(f"hetsim imported from {hetsim.__file__}, not from {SRC}")
    return hetsim


def _git(*args: str) -> str | None:
    """Output of a git command in this checkout, None where there is no repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, None if it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                return int(func())
    return None


def run_record(hs, args, seed: int) -> dict:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_revision": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "hetsim_version": getattr(hs, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def record_golden(hs) -> int:
    """Run every workload once at its recorded seed and store its outputs' digests."""
    from hetbench import gate, workloads

    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        runner = workloads.Runner(hs, workload, workload.default_seed, os.path.join(OUT, name))
        runner.golden = None  # record what the program writes now, whatever was recorded before
        unit = runner.unit()
        if unit.problems:
            print("\n".join(unit.problems), file=sys.stderr)
            return 1
        if workload.config:
            golden[name] = {"seed": workload.default_seed, "sha256": unit.hashes}
        else:
            golden[name] = {"seed": workload.default_seed, "triple": unit.triple}
        print(f"{name}: {golden[name]}")
    with open(gate.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    # one BLAS thread: the products are tiny and a second thread only adds noise
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        hs = _import_hetsim()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from hetbench import workloads

    if args.record_golden:
        return record_golden(hs)

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    outdir = os.path.join(OUT, workload.name)
    os.makedirs(outdir, exist_ok=True)
    runner = workloads.Runner(hs, workload, seed, outdir)
    record = run_record(hs, args, seed)
    tag = f"seed{seed}-trace{args.trace}"
    try:
        if args.trace:
            result = workloads.run_traced(runner, args.seconds, os.path.join(outdir, f"spans-{tag}.csv"))
        else:
            result = workloads.run_untraced(runner, args.seconds, SRC)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"run_record {json.dumps(record, sort_keys=True)}")
    print(f"gate {'golden' if runner.golden else 'structure'} (seed {seed})")
    for problem in result.problems[:20]:
        print(f"problem: {problem}")
    for name, value in result.metrics.items():
        print(f"{name} = {value!r} {result.metric_units[name]}")
    for name, value in result.notes.items():
        print(f"note {name} = {value!r}")
    with open(os.path.join(outdir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"run_record": record, "correct": result.correct, "attempted": result.attempted,
             "failed": result.failed, "metrics": result.metrics, "notes": result.notes,
             "problems": result.problems},
            fh, indent=2, sort_keys=True,
        )
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": result.metric_units[name]}
            for name, value in result.metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
