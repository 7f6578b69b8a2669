import importlib.util
import json
import os
import shutil
from dataclasses import replace
from unittest import mock

import pytest

from hetsim import cell_selection
from hetsim.harness import Scenario, run_campaign

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_record.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_checkout(root, summary):
    """A checkout whose hetbench/run.py prints one summary line as the benchmark does."""
    (root / "hetbench").mkdir()
    line = json.dumps(summary)
    (root / "hetbench" / "run.py").write_text(f"print('gate golden')\nprint({line!r})\n", encoding="utf-8")
    return str(root)


METRICS = {"items_per_s": {"value": 8.4, "unit": "1/s"}}


def test_bench_reads_a_correct_run(tmp_path):
    checkout = stub_checkout(tmp_path, {"correct": True, "attempted": 3, "failed": 0, "metrics": METRICS})
    summary = load_tool().bench(checkout, "change", "acc2", 1, 0, 2)
    assert summary["metrics"] == {"items_per_s": 8.4}


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_bench_refuses_a_wrong_or_failed_run(tmp_path, correct, failed):
    checkout = stub_checkout(tmp_path, {"correct": correct, "attempted": 3, "failed": failed, "metrics": METRICS})
    with pytest.raises(RuntimeError, match=f"oracle parent seed 5: correct={correct} failed={failed}"):
        load_tool().bench(checkout, "parent", "oracle", 1, 0, 5)


def test_bench_gives_a_traced_runs_layer_shares(tmp_path):
    # each layer's seconds over the run's trace.wall_s; counters and the
    # wall itself are no layers
    metrics = {name: {"value": value, "unit": "s"} for name, value in [
        ("trace.wall_s", 2.0), ("cell_selection.search.s", 0.5), ("harness.run_drop.self_s", 0.25),
        ("cell_selection.search.runs", 40.0), ("item_s.p50", 0.1),
    ]}
    checkout = stub_checkout(tmp_path, {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
    tool = load_tool()
    traced = tool.bench(checkout, "change", "acc2", 1, 1, None)
    assert traced["shares"] == {"cell_selection.search.s": 0.25, "harness.run_drop.self_s": 0.125}
    assert "shares" not in tool.bench(checkout, "change", "acc2", 1, 0, 2)
    runs = [traced, {"shares": {"cell_selection.search.s": 0.35, "harness.run_drop.self_s": 0.1}},
            {"shares": {"cell_selection.search.s": 0.3, "harness.run_drop.self_s": 0.2}}]
    assert tool.medians(runs, "shares") == {"cell_selection.search.s": 0.3, "harness.run_drop.self_s": 0.125}


def run(side, seed, trace=0, **metrics):
    return {"side": side, "seed": seed, "trace": trace, "metrics": metrics}


def test_wins_counts_strict_gains_in_each_metrics_sense():
    runs = [
        run("parent", 2, items_per_s=9.0, setup_s=0.20), run("change", 2, items_per_s=9.5, setup_s=0.20),
        run("parent", 3, items_per_s=9.0, setup_s=0.20), run("change", 3, items_per_s=9.0, setup_s=0.10),
        run("parent", 4, items_per_s=9.0, setup_s=0.10), run("change", 4, items_per_s=8.0, setup_s=0.30),
        # traced runs are no pairs
        run("parent", None, trace=1, items_per_s=1.0, setup_s=9.0),
        run("change", None, trace=1, items_per_s=1.0, setup_s=9.0),
    ]
    assert load_tool().wins(runs, {"items_per_s": "higher", "setup_s": "lower"}) == {
        "items_per_s": 1,  # seed 2 won; the tie at seed 3 counts for neither side
        "setup_s": 1,      # seed 3 won; the tie at seed 2 counts for neither side
    }


def test_stats_of_four_values():
    runs = [run("change", seed, items_per_s=v) for seed, v in enumerate([4.0, 1.0, 3.0, 2.0])]
    assert load_tool().stats(runs) == {"items_per_s": {"min": 1.0, "q1": 1.25, "median": 2.5, "q3": 3.75}}


def test_attempted_of_runs_read_from_the_summary_line(tmp_path):
    tool = load_tool()
    checkout = stub_checkout(tmp_path, {"correct": True, "attempted": 4800, "failed": 0, "metrics": METRICS})
    runs = [tool.bench(checkout, "change", "oracle", 1, 0, 2)]
    runs += [{"attempted": n} for n in (9600, 2400, 7200)]
    assert tool.attempted(runs, 2400) == {"min": 2400, "median": 6000.0, "units_median": 2.5}


def test_items_per_unit_are_the_benchmarks(monkeypatch):
    # peak RSS is read against the units a run completes, so a unit must
    # hold as many items as hetbench runs in one
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(TOOL)))
    import hetbench.workloads as workloads
    from hetsim.harness import load_scenario

    acc2 = workloads.WORKLOADS["acc2"]
    assert load_tool().ITEMS_PER_UNIT == {
        "acc2": load_scenario(os.path.join(workloads.SCENARIO_DIR, acc2.config)).drops,
        "oracle": workloads.WORKLOADS["oracle"].instances,
    }


def test_density_runs_one_campaign_from_the_checkout():
    root = os.path.dirname(os.path.dirname(TOOL))
    result = load_tool().density(root, 2, 12, drops=1)
    assert set(result["metrics"]) == {"s_per_drop", "peak_mb"}
    assert result["metrics"]["s_per_drop"] > 0 and result["metrics"]["peak_mb"] > 0
    # the same campaign again gives the same outputs, and another shape others
    again = load_tool().density(root, 2, 12, drops=1)
    assert again["digest"] == result["digest"] and again["scoring"] == result["scoring"]
    assert load_tool().density(root, 6, 12, drops=1)["digest"] != result["digest"]
    assert len(result["digest"]) == 64
    # the scoring counts are the kernel's calls and the rows they return
    kernel = cell_selection._block_metric
    scoring = {"calls": 0, "rows": 0}

    def counted(*args):
        metric = kernel(*args)
        scoring["calls"] += 1
        scoring["rows"] += len(metric.reshape(-1, metric.shape[-1]))
        return metric

    with mock.patch.object(cell_selection, "_block_metric", counted):
        _, runs = run_campaign(replace(Scenario(), picos_per_sector=2, users_per_sector=12, drops=1))
    assert result["scoring"] == scoring and 0 < scoring["calls"] < scoring["rows"]
    # and the search tallies those of the campaign's searches
    searches = [run for run in runs if run.strategy == "interference"]
    assert result["search"] == {
        "runs": len(searches),
        "converged": sum(run.converged for run in searches),
        "passes": sum(run.passes_used for run in searches),
        "moves": sum(run.moves_total for run in searches),
    }
    assert 0 < result["search"]["runs"] <= result["search"]["passes"]


def test_density_runs_one_blas_thread(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    tool = load_tool()
    tool.DENSITY_RUN = "import json, os; print(json.dumps({'threads': os.environ['OPENBLAS_NUM_THREADS']}))"
    assert tool.density(str(tmp_path), 2, 12, drops=1) == {"threads": "1"}


def density_run(side, digest):
    return {"side": side, "picos": 6, "users": 24, "digest": digest, "metrics": {}}


def test_check_digest_refuses_changed_outputs():
    tool = load_tool()
    tool.check_digest(density_run("parent", "ab"), density_run("change", "ab"))
    with pytest.raises(RuntimeError, match="density 6x24: change outputs sha256 cd != parent ab"):
        tool.check_digest(density_run("parent", "ab"), density_run("change", "cd"))


# a stub campaign: each run of a checkout prints the next digest of its
# digests file, as DENSITY_RUN prints the digest of a campaign's outputs
STUB_RUN = """
import json
with open("digests", encoding="utf-8") as fh:
    digests = fh.read().split()
with open("digests", "w", encoding="utf-8") as fh:
    fh.write(" ".join(digests[1:]))
print(json.dumps({"metrics": {"s_per_drop": 0.5, "peak_mb": 40.0}, "scoring": {"calls": 3, "rows": 9},
                  "search": {"runs": 2, "converged": 1, "passes": 7, "moves": 5}, "digest": digests[0]}))
"""


def stub_sweep(tmp_path, digests):
    """The tool with one density shape, two repeats and STUB_RUN, and checkouts printing digests."""
    tool = load_tool()
    tool.DENSITY_RUN, tool.SHAPES, tool.DENSITY_REPEATS = STUB_RUN, [(6, 24)], 2
    dirs = {}
    for side, printed in digests.items():
        (tmp_path / side).mkdir(parents=True)
        (tmp_path / side / "digests").write_text(" ".join(printed), encoding="utf-8")
        dirs[side] = str(tmp_path / side)
    return tool, dirs


def test_density_sweep_refuses_changed_outputs_by_default(tmp_path):
    tool, dirs = stub_sweep(tmp_path, {"parent": ["ab", "ab"], "change": ["cd", "cd"]})
    with pytest.raises(RuntimeError, match="density 6x24: change outputs sha256 cd != parent ab"):
        tool.density_sweep(dirs)
    tool, dirs = stub_sweep(tmp_path / "same", {"parent": ["ab", "ab"], "change": ["ab", "ab"]})
    assert [(r["side"], r["digest"]) for r in tool.density_sweep(dirs)] == [
        ("parent", "ab"), ("change", "ab"), ("change", "ab"), ("parent", "ab"),
    ]


def test_density_sweep_records_a_declared_output_change(tmp_path):
    tool, dirs = stub_sweep(tmp_path, {"parent": ["ab", "ab"], "change": ["cd", "cd"]})
    runs = tool.density_sweep(dirs, outputs_change="landing rule")
    assert [(r["side"], r["digest"]) for r in runs] == [
        ("parent", "ab"), ("change", "cd"), ("change", "cd"), ("parent", "ab"),
    ]


@pytest.mark.parametrize("reason", [None, "landing rule"])
def test_density_sweep_refuses_outputs_that_differ_between_repeats(tmp_path, reason):
    tool, dirs = stub_sweep(tmp_path, {"parent": ["ab", "ab"], "change": ["ab", "ef"]})
    with pytest.raises(RuntimeError, match="density 6x24: change outputs sha256 ef != change ab"):
        tool.density_sweep(dirs, outputs_change=reason)


def test_main_records_both_digests_and_the_reason(tmp_path, monkeypatch):
    # the whole recording, with the revisions exported from the stub
    # checkouts and every hetbench run stubbed to one correct summary
    tool, dirs = stub_sweep(tmp_path, {"parent": ["ab", "ab"], "change": ["cd", "cd"]})
    metrics = {"items_per_s": 8.0, "item_s.p50": 0.1, "setup_s": 0.1, "peak_rss_mb": 40.0, "trace.wall_s": 1.0}
    monkeypatch.setattr(tool, "PAIRS", 2)
    monkeypatch.setattr(tool, "TRACED", 1)
    monkeypatch.setattr(tool, "export", lambda rev, into: shutil.copytree(dirs[rev], into) and rev)
    monkeypatch.setattr(tool, "bench", lambda checkout, side, workload, seconds, trace, seed: {
        "correct": True, "attempted": 10, "failed": 0, "metrics": dict(metrics), "shares": {"a.s": 0.5}})
    (tmp_path / "change" / "src").mkdir()
    (tmp_path / "change" / "src" / "m.py").write_text('"""Doc."""\nX = 1\n', encoding="utf-8")
    out = tmp_path / "bench.json"
    tool.main(["--parent", "parent", "--change", "change", "--out", str(out), "--outputs-change", "landing rule"])
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["src_lines"] == {
        "parent": {"total": 0, "docstring": 0, "comment": 0, "blank": 0, "code": 0},
        "change": {"total": 2, "docstring": 1, "comment": 0, "blank": 0, "code": 1},
    }
    density = record["density"]
    assert density["outputs_change"] == "landing rule"
    assert density["digests"] == {"6x24": {"parent": "ab", "change": "cd"}}
    assert density["outputs_changed"] == ["6x24"]
    assert density["search"]["change"]["6x24"] == {"runs": 2, "converged": 1, "passes": 7, "moves": 5}


def test_src_lines_take_docstrings_from_the_ast(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        '"""Module.\n\nMore."""\n'        # docstring, its blank line included
        "import os\n"
        "\n"
        "# why\n"
        "class A:\n"
        '    """One line."""\n'
        "    def f(self):\n"
        '        """Two\n'
        "        # in the docstring\n"
        '        """\n'
        "        return 1  # code with a comment\n"
        "    x = 'a string, not a docstring'\n",
        encoding="utf-8",
    )
    (tmp_path / "src" / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert load_tool().src_lines(str(tmp_path)) == {"total": 14, "docstring": 7, "comment": 1, "blank": 1, "code": 5}
