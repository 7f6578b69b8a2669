import importlib.util
import json
import os

import pytest

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
    assert load_tool().density(root, 2, 12, drops=1)["digest"] == result["digest"]
    assert load_tool().density(root, 6, 12, drops=1)["digest"] != result["digest"]
    assert len(result["digest"]) == 64


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
