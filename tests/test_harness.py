import math
import os
from dataclasses import replace

import numpy as np
import pytest

from hetsim.cli import main as cli_main
from hetsim.harness import (
    ConfigError,
    DropError,
    Scenario,
    load_scenario,
    run_campaign,
    run_drop,
    run_oracle_suite,
    scenario_to_ini,
)

# small but complete scenario: 57 picos, 171 users, every strategy
TINY = replace(
    Scenario(),
    picos_per_sector=1,
    users_per_sector=3,
    drops=2,
    alphas=(0.8,),
    strategies=("rsrp", "pl", "cre", "interference"),
    master_seed=5,
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_drop(TINY, 0)


def test_run_drop_deterministic(tiny_result):
    again = run_drop(TINY, 0)
    assert again.samples == tiny_result.samples
    assert again.summaries == tiny_result.summaries


def test_run_drop_sample_count(tiny_result):
    users = 57 * TINY.users_per_sector
    assert len(tiny_result.samples) == users * len(TINY.strategies) * len(TINY.alphas)


def test_run_drop_sample_fields(tiny_result):
    labels = {s.strategy for s in tiny_result.samples}
    assert labels == {"rsrp", "pl", "cre6", "interference"}
    assert all(s.tier in ("macro", "pico") for s in tiny_result.samples)
    assert all(np.isfinite(s.sinr_db) for s in tiny_result.samples)


def test_cre_zero_matches_rsrp_samples():
    scenario = replace(TINY, strategies=("rsrp", "cre:0"), drops=1)
    result = run_drop(scenario, 0)
    rsrp = {(s.user, s.alpha): s for s in result.samples if s.strategy == "rsrp"}
    cre = {(s.user, s.alpha): s for s in result.samples if s.strategy == "cre0"}
    assert rsrp.keys() == cre.keys()
    for key, s in rsrp.items():
        assert cre[key].serving_cell == s.serving_cell
        assert cre[key].sinr_db == s.sinr_db


def test_campaign_single_drop_equals_run_drop(tmp_path):
    scenario = replace(TINY, drops=1)
    report, summaries = run_campaign(scenario)
    direct = run_drop(scenario, 0)
    assert report.samples == direct.samples
    assert summaries == direct.summaries


def test_campaign_aggregates_drops():
    report, summaries = run_campaign(TINY)
    assert {s.drop for s in report.samples} == {0, 1}
    per_drop = len(TINY.strategies) * len(TINY.alphas) * 57 * TINY.users_per_sector
    assert len(report.samples) == 2 * per_drop
    assert len(summaries) == 2 * len(TINY.strategies) * len(TINY.alphas)


def test_samples_carry_each_alphas_p0():
    scenario = replace(TINY, alphas=(0.6, 1.0), p0_dbm=(-47.25, -90.0), drops=1)
    report, summaries = run_campaign(scenario)
    assert {(s.alpha, s.p0_dbm) for s in report.samples} == {(0.6, -47.25), (1.0, -90.0)}
    assert {s.drop for s in summaries} == {0}
    # a single P0 applies to every alpha
    single = run_drop(replace(scenario, p0_dbm=-80.0), 0)
    assert {s.p0_dbm for s in single.samples} == {-80.0}


def test_strategies_share_drop_randomness():
    # topology/gains are drawn before the strategy loop: adding strategies
    # must not perturb the samples of the ones already there
    solo = run_drop(replace(TINY, strategies=("rsrp",)), 0)
    both = run_drop(replace(TINY, strategies=("rsrp", "pl")), 0)
    rsrp_solo = [s for s in solo.samples if s.strategy == "rsrp"]
    rsrp_both = [s for s in both.samples if s.strategy == "rsrp"]
    assert rsrp_solo == rsrp_both


def test_drop_streams_are_distinct():
    a = run_drop(TINY, 0)
    b = run_drop(TINY, 1)
    assert [s.sinr_db for s in a.samples] != [s.sinr_db for s in b.samples]


def test_scenario_validation_errors():
    with pytest.raises(ConfigError):
        replace(Scenario(), drops=0).validate()
    with pytest.raises(ConfigError):
        replace(Scenario(), users_per_sector=1, picos_per_sector=2).validate()
    with pytest.raises(ConfigError):
        replace(Scenario(), sites=7).validate()
    with pytest.raises(ConfigError):
        replace(Scenario(), alphas=(1.2,)).validate()
    with pytest.raises(ConfigError):
        replace(Scenario(), strategies=("nearest",)).validate()
    with pytest.raises(ConfigError):
        replace(Scenario(), total_data_rbs=50).validate()
    with pytest.raises(ConfigError, match="p0_dbm"):
        replace(Scenario(), p0_dbm=(-50.0, -90.0)).validate()


def test_duplicate_sweep_entries_rejected(tmp_path, capsys):
    # a repeated alpha would take the first alpha's P0; a repeated label
    # would merge two runs into one percentile row
    with pytest.raises(ConfigError, match="alphas repeat"):
        replace(Scenario(), alphas=(0.8, 0.8)).validate()
    with pytest.raises(ConfigError, match="strategies repeat"):
        replace(Scenario(), strategies=("cre:6", "cre:6.0")).validate()
    with pytest.raises(ConfigError, match="strategies repeat"):
        replace(Scenario(), strategies=("cre", "rsrp", "cre:6")).validate()
    path = tmp_path / "s.cfg"
    path.write_text("[power]\nalphas = 0.4, 1.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="alphas repeat"):
        load_scenario(str(path), {"alphas": (1.0, 1.0)})
    code = cli_main(["run", "--config", str(path), "--alphas", "0.8,0.8", "--drops", "1"])
    assert code == 2
    assert "alphas repeat" in capsys.readouterr().err


def test_summaries_carry_cycle_period():
    # drop 0 of this scenario cycles with period 2 at alpha = 1
    scenario = replace(
        Scenario(), picos_per_sector=2, users_per_sector=6, alphas=(1.0,),
        strategies=("rsrp", "interference"), master_seed=1,
    )
    rsrp, searched = run_drop(scenario, 0).summaries
    assert rsrp.cycle_period is None
    assert searched.cycle_period == 2
    assert not searched.converged and searched.passes_used == scenario.max_passes


def test_strategy_tokens():
    sc = replace(Scenario(), strategies=("rsrp", "cre:9", "cre", "interference"))
    cfgs = sc.strategy_configs()
    assert [c.label for c in cfgs] == ["rsrp", "cre9", "cre6", "interference"]
    with pytest.raises(ConfigError):
        replace(Scenario(), strategies=("pl:3",)).validate()


def test_config_round_trip(tmp_path):
    scenario = replace(
        Scenario(),
        picos_per_sector=6,
        alphas=(0.4, 1.0),
        strategies=("rsrp", "cre:9"),
        drops=7,
        master_seed=99,
        output_dir="out",
    )
    path = tmp_path / "scenario.cfg"
    path.write_text(scenario_to_ini(scenario), encoding="utf-8")
    loaded = load_scenario(str(path))
    assert loaded == scenario


def test_config_per_alpha_p0_round_trip(tmp_path):
    default = scenario_to_ini(Scenario())
    assert "p0_dbm = -90\n" in default
    scenario = replace(Scenario(), alphas=(0.4, 1.0), p0_dbm=(-25.812359947967778, -90.0))
    text = scenario_to_ini(scenario)
    assert "p0_dbm = -25.812359947967778, -90\n" in text
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    assert load_scenario(str(path)) == scenario
    # one listed value is the single value
    assert replace(Scenario(), p0_dbm=[-80.0]) == replace(Scenario(), p0_dbm=-80.0)


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[layout]\nisd_m = 500\nfrobnicate = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="frobnicate"):
        load_scenario(str(path))


def test_config_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[doppler]\nspeed = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="doppler"):
        load_scenario(str(path))


def test_config_missing_file():
    with pytest.raises(ConfigError, match="no/such/file.cfg"):
        load_scenario("no/such/file.cfg")


def test_config_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\ndrops = many\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="drops"):
        load_scenario(str(path))


def test_outputs_schema(tmp_path):
    scenario = replace(TINY, drops=1, output_dir=str(tmp_path / "out"))
    report, _ = run_campaign(scenario)
    out = tmp_path / "out"
    samples = (out / "samples.csv").read_text(encoding="utf-8").splitlines()
    assert samples[0] == "drop,user,strategy,alpha,serving_cell,tier,sinr_db"
    assert len(samples) == 1 + len(report.samples)
    percentiles = (out / "percentiles.csv").read_text(encoding="utf-8").splitlines()
    assert percentiles[0] == "strategy,alpha,p5_db,p50_db,p90_db,n"
    assert len(percentiles) == 1 + len(TINY.strategies) * len(TINY.alphas)
    cdf = (out / "cdf.csv").read_text(encoding="utf-8").splitlines()
    assert cdf[0] == "strategy,alpha,sinr_db,fraction"
    assert cdf[-1].endswith(",1.00000000")
    assert (out / "summary.txt").exists()
    resolved = load_scenario(str(out / "scenario.resolved.cfg"))
    assert resolved == scenario


def per_user_sinr_db(state):
    """The drop runner's SINR as first written: one combiner call per user,
    on its per-RB SINR repeated over every subcarrier of its block."""
    from hetsim.metrics import SUBCARRIERS_PER_RB, wideband_sinr

    g_lin, serving, alloc, p = state.gains.g_linear, state.serving, state.alloc, state.per_rb_power_mw
    out = np.empty(len(serving))
    for u in range(len(serving)):
        members = alloc.block_members(int(alloc.user_subframe[u]), int(alloc.user_rb_start[u]))
        rx = g_lin[np.ix_(serving[members], members)] * p[members][None, :]
        i = int(np.flatnonzero(members == u)[0])
        gamma_rb = rx[i, i] / (rx.sum(axis=1)[i] - rx[i, i] + state.noise_rb_mw)
        per_sc = np.full(alloc.rbs_per_user * SUBCARRIERS_PER_RB, gamma_rb)
        out[u] = 10.0 * math.log10(wideband_sinr(per_sc))
    return out


def test_fast_sinr_path_matches_reference():
    # the per-block computation in the drop runner must reproduce the
    # per-user combiner bit for bit, and the per-RB reference path to
    # rounding (that path sums the interferers, not row minus own term)
    from hetsim.cell_selection import NetworkState
    from hetsim.harness import _all_user_sinr_db, random_small_gains
    from hetsim.metrics import NoiseModel, user_wideband_sinr_db
    from hetsim.uplink_power import PowerConfig

    rng = np.random.default_rng(13)
    noise = NoiseModel().per_rb_noise_mw
    for n_cells, n_users in ((4, 6), (3, 40)):
        gains = random_small_gains(rng, n_cells, n_users)
        serving = rng.integers(0, n_cells, size=n_users)
        for total_rbs in (4, 8, 48):
            state = NetworkState.build(gains, serving, PowerConfig(-90.0, 0.8), noise, total_rbs)
            fast = _all_user_sinr_db(state)
            assert np.array_equal(fast, per_user_sinr_db(state))
            slow = [user_wideband_sinr_db(u, state) for u in range(n_users)]
            assert np.allclose(fast, slow, rtol=1e-12)


def test_oracle_suite_smoke():
    result = run_oracle_suite(instances=10, seed=3)
    assert result.instances == 10
    assert result.containment_failures == 0
    assert result.converged + len(result.non_converged_instances) == 10


def test_infeasible_placement_carries_drop_context():
    # 80 picos at 35 m spacing cannot fit in one sector
    scenario = replace(Scenario(), picos_per_sector=80, users_per_sector=80, drops=1)
    with pytest.raises(DropError, match="drop 0"):
        run_drop(scenario, 0)
    with pytest.raises(RuntimeError, match="failed drops"):
        run_campaign(scenario)


# ---- CLI --------------------------------------------------------------------


def test_cli_validate_prints_resolved(tmp_path, capsys):
    path = tmp_path / "s.cfg"
    path.write_text("[layout]\npicos_per_sector = 6\n", encoding="utf-8")
    assert cli_main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "picos_per_sector = 6" in out
    assert "isd_m = 500" in out  # defaults are filled in


def test_cli_missing_config_names_path(capsys):
    code = cli_main(["run", "--config", "missing.cfg"])
    assert code != 0
    assert "missing.cfg" in capsys.readouterr().err


def test_cli_bad_strategy(capsys):
    code = cli_main(["run", "--strategies", "voronoi", "--drops", "1"])
    assert code != 0


def test_cli_run_writes_outputs(tmp_path, capsys):
    path = tmp_path / "s.cfg"
    path.write_text(
        "[layout]\npicos_per_sector = 1\nusers_per_sector = 2\n"
        "[power]\nalphas = 0.8\n[selection]\nstrategies = rsrp, interference\n",
        encoding="utf-8",
    )
    out = tmp_path / "results"
    code = cli_main(
        ["run", "--config", str(path), "--drops", "1", "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    assert (out / "samples.csv").exists()
    assert "outputs written" in capsys.readouterr().out


def test_cli_alphas_override_must_match_p0_list(tmp_path, capsys):
    path = tmp_path / "s.cfg"
    path.write_text("[power]\nalphas = 0.4, 1.0\np0_dbm = -25.8, -90\n", encoding="utf-8")
    assert load_scenario(str(path)).power_config(0.4).p0_dbm == -25.8
    with pytest.raises(ConfigError, match="p0_dbm"):
        load_scenario(str(path), {"alphas": (0.4, 0.8, 1.0)})
    code = cli_main(["run", "--config", str(path), "--alphas", "0.8", "--drops", "1"])
    assert code == 2
    assert "p0_dbm" in capsys.readouterr().err


def test_cli_oracle(capsys):
    assert cli_main(["oracle", "--instances", "5", "--seed", "1"]) == 0
    assert "instances=5" in capsys.readouterr().out
