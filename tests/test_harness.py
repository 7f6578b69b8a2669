import math
import os
import pickle
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsim import cell_selection, harness, metrics
from hetsim.cell_selection import (
    VALID_KINDS,
    NetworkState,
    StrategyConfig,
    _position_metrics,
    _rsrp_cells,
    coblock_interference,
    select_interference_based,
    select_rsrp,
)
from hetsim.cli import main as cli_main
from hetsim.harness import (
    ConfigError,
    DropError,
    Scenario,
    _baseline_assignment,
    _sinr_db,
    _sinr_links,
    _summary_text,
    load_scenario,
    random_small_gains,
    run_campaign,
    run_drop,
    run_oracle_suite,
    scenario_to_ini,
)
from hetsim.metrics import NoiseModel, SinrReport, SinrRun, percentiles
from hetsim.radio import GainMatrix, compute_gain_matrix
from hetsim.topology import build_layout, place_picos, place_users
from hetsim.uplink_power import PowerConfig, open_loop_power
from reference import blocks, former_oracle_instances, former_search, user_wideband_sinr_db

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


def tallies(runs):
    """Each run's key and search tallies, as comparable tuples."""
    return [
        (r.drop, r.strategy, r.alpha, r.converged, r.passes_used, r.moves_total, r.capped_users, r.cycle_period)
        for r in runs
    ]


def columns(runs):
    """Each run's key and its columns, as comparable tuples."""
    return [
        (r.drop, r.strategy, r.alpha, r.p0_dbm, r.serving_cell.tolist(), r.cell_tier.tolist(), r.sinr_db.tobytes())
        for r in runs
    ]


@pytest.fixture(scope="module")
def tiny_result():
    return run_drop(TINY, 0)


def test_run_drop_deterministic(tiny_result):
    again = run_drop(TINY, 0)
    assert columns(again) == columns(tiny_result)
    assert tallies(again) == tallies(tiny_result)


def test_run_drop_releases_each_search_power_table(monkeypatch, tiny_result):
    # no run's SINR holds a power table: the search's is released when the
    # search returns. Held through the SINR, it gives the same bits
    held = []
    sinr_db = harness._sinr_db

    def spy(*args):
        held.append("_power_table" in args[-1].gains.__dict__)
        return sinr_db(*args)

    with monkeypatch.context() as m:
        m.setattr(harness, "_sinr_db", spy)
        released = run_drop(TINY, 0)
    assert held == [False] * len(TINY.strategies)
    with monkeypatch.context() as m:
        m.setattr(harness, "_sinr_db", spy)
        m.setattr(harness, "release_power_table", lambda gains: None)
        kept = run_drop(TINY, 0)
    assert held[-1] is True
    assert columns(released) == columns(kept) == columns(tiny_result)


def test_run_drop_sample_count(tiny_result):
    users = 57 * TINY.users_per_sector
    assert len(SinrReport(runs=tiny_result).samples) == users * len(TINY.strategies) * len(TINY.alphas)


def test_run_drop_sample_fields(tiny_result):
    assert {r.strategy for r in tiny_result} == {"rsrp", "pl", "cre6", "interference"}
    for run in tiny_result:
        assert set(run.cell_tier[run.serving_cell].tolist()) <= {"macro", "pico"}
        assert np.isfinite(run.sinr_db).all()


def test_cre_zero_matches_rsrp_samples():
    scenario = replace(TINY, strategies=("rsrp", "cre:0"), drops=1)
    rsrp, cre = run_drop(scenario, 0)
    assert (rsrp.strategy, cre.strategy) == ("rsrp", "cre0")
    assert np.array_equal(cre.serving_cell, rsrp.serving_cell)
    assert cre.sinr_db.tobytes() == rsrp.sinr_db.tobytes()


def test_campaign_single_drop_equals_run_drop(tmp_path):
    scenario = replace(TINY, drops=1)
    report, runs = run_campaign(scenario)
    direct = run_drop(scenario, 0)
    assert runs is report.runs
    assert columns(runs) == columns(direct)
    assert tallies(runs) == tallies(direct)


def test_campaign_aggregates_drops():
    report, runs = run_campaign(TINY)
    assert {r.drop for r in runs} == {0, 1}
    per_drop = len(TINY.strategies) * len(TINY.alphas) * 57 * TINY.users_per_sector
    assert len(report.samples) == 2 * per_drop
    assert len(runs) == 2 * len(TINY.strategies) * len(TINY.alphas)


def test_samples_carry_each_alphas_p0():
    scenario = replace(TINY, alphas=(0.6, 1.0), p0_dbm=(-47.25, -90.0), drops=1)
    report, runs = run_campaign(scenario)
    assert {(r.alpha, r.p0_dbm) for r in runs} == {(0.6, -47.25), (1.0, -90.0)}
    assert {r.drop for r in runs} == {0}
    # a single P0 applies to every alpha
    single = run_drop(replace(scenario, p0_dbm=-80.0), 0)
    assert {r.p0_dbm for r in single} == {-80.0}


def test_strategies_share_drop_randomness():
    # topology/gains are drawn before the strategy loop: adding strategies
    # must not perturb the samples of the ones already there
    solo = run_drop(replace(TINY, strategies=("rsrp",)), 0)
    both = run_drop(replace(TINY, strategies=("rsrp", "pl")), 0)
    assert columns(solo) == columns([r for r in both if r.strategy == "rsrp"])


def test_drop_streams_are_distinct():
    a = run_drop(TINY, 0)
    b = run_drop(TINY, 1)
    assert [r.sinr_db.tolist() for r in a] != [r.sinr_db.tolist() for r in b]


def test_scenario_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        replace(Scenario(), drops=0).validate()
    with pytest.raises(ConfigError):
        replace(Scenario(), users_per_sector=1, picos_per_sector=2).validate()
    with pytest.raises(ConfigError, match="output_dir must name a directory"):
        replace(Scenario(), output_dir="").validate()
    # the layout is fixed at 19 sites: no key sets another count
    path = tmp_path / "sites.cfg"
    path.write_text("[layout]\nsites = 7\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="sites"):
        load_scenario(str(path))
    with pytest.raises(ConfigError):
        replace(Scenario(), alphas=(1.2,)).validate()
    with pytest.raises(ConfigError):
        replace(Scenario(), strategies=("nearest",)).validate()
    with pytest.raises(ConfigError):
        replace(Scenario(), total_data_rbs=50).validate()
    with pytest.raises(ConfigError, match="p0_dbm"):
        replace(Scenario(), p0_dbm=(-50.0, -90.0)).validate()
    with pytest.raises(ConfigError, match="master_seed"):
        replace(Scenario(), master_seed=-1).validate()
    with pytest.raises(ConfigError, match="strategies"):
        replace(Scenario(), strategies=()).validate()


@pytest.mark.parametrize("total_data_rbs", [0, -4])
def test_total_data_rbs_must_be_positive(total_data_rbs):
    # a multiple of rbs_per_user, but no block to schedule: every drop
    # would fail in its first SINR stage
    with pytest.raises(ConfigError, match="total_data_rbs"):
        replace(Scenario(), total_data_rbs=total_data_rbs).validate()


@pytest.mark.parametrize(
    "name, value",
    [
        ("min_pico_to_macro_m", -75.0),
        ("min_pico_to_pico_m", -5.0),
        ("pico_coverage_radius_m", -50.0),
        ("pico_coverage_radius_m", 0.0),
    ],
)
def test_negative_distances_are_rejected(name, value):
    # a negative radius would mirror each seed draw through its pico, and a
    # negative spacing would drop its rule without a word
    with pytest.raises(ConfigError, match=name):
        replace(Scenario(), **{name: value}).validate()


@pytest.mark.parametrize("max_passes", [0, -3])
def test_max_passes_must_be_positive(max_passes):
    # no pass would run: every search would return the rsrp start, not converged
    with pytest.raises(ConfigError, match="max_passes"):
        replace(Scenario(), max_passes=max_passes).validate()


FLOAT_FIELDS = [f.name for f in fields(Scenario) if "float" in f.type]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_is_rejected(name, value):
    with pytest.raises(ConfigError, match=name):
        replace(Scenario(), **{name: value}).validate()


def test_non_finite_list_entry_and_cre_bias_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="p0_dbm"):
        replace(Scenario(), p0_dbm=(-25.8, math.nan, -68.6, -90.0)).validate()
    with pytest.raises(ConfigError, match="alphas"):
        replace(Scenario(), alphas=(0.4, math.nan)).validate()
    for token in ("cre:nan", "cre:inf", "cre:-inf"):
        with pytest.raises(ConfigError, match=f"cre bias in '{token}'"):
            replace(Scenario(), strategies=("rsrp", token)).validate()
    path = tmp_path / "s.cfg"
    path.write_text("[power]\np0_dbm = nan\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="p0_dbm"):
        load_scenario(str(path))


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
    rsrp, searched = run_drop(scenario, 0)
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


DEFAULT_INI = """\
[layout]
isd_m = 500
picos_per_sector = 2
users_per_sector = 12

[radio]
macro_pl_const_db = 128.1
macro_pl_slope = 37.6
pico_pl_const_db = 140.7
pico_pl_slope = 36.7
macro_shadow_sigma_db = 8
pico_shadow_sigma_db = 10
antenna_max_atten_db = 20
antenna_theta3db_deg = 70
macro_rx_gain_db = 15
pico_rx_gain_db = 5
penetration_loss_db = 20
macro_rs_power_dbm = 46
pico_rs_power_dbm = 30
min_pico_to_macro_m = 75
min_pico_to_pico_m = 35
pico_coverage_radius_m = 50
noise_psd_dbm_hz = -174
noise_figure_db = 5
total_bandwidth_mhz = 10

[power]
p0_dbm = -90
max_ue_power_dbm = 23
rbs_per_user = 4
total_data_rbs = 48
alphas = 0.4, 0.6, 0.8, 1

[selection]
strategies = rsrp, pl, cre, interference
cre_bias_db = 6
max_passes = 20

[run]
drops = 20
master_seed = 1
workers = 1

"""


def test_default_scenario_ini_text():
    # sections and keys in file order, derived from the Scenario fields
    assert scenario_to_ini(Scenario()) == DEFAULT_INI


# any finite float: many, such as 0.1 + 0.2 and 1 / 3, do not read back equal from '%g'
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_scenarios(draw):
    """Any Scenario that validates: every field drawn, bounded ones inside their bounds."""
    by_type = {"float": FLOATS, "int": st.integers()}
    values = {f.name: draw(by_type[f.type]) for f in fields(Scenario) if f.type in by_type}
    picos = draw(st.integers(0, 50))
    rbs = draw(st.integers(1, 12))
    data_rbs = rbs * draw(st.integers(1, 12))
    alphas = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True)))
    p0 = draw(st.one_of(FLOATS, st.lists(FLOATS, min_size=len(alphas), max_size=len(alphas))))
    # at least one strategy token, with distinct labels: plain kinds, and cre with its own bias
    kinds = draw(st.lists(st.sampled_from(VALID_KINDS), min_size=1, unique=True))
    biases = draw(st.lists(FLOATS, max_size=3, unique_by=lambda b: f"{b:g}"))
    if "cre" in kinds:
        biases = [b for b in biases if f"{b:g}" != f"{values['cre_bias_db']:g}"]
    strategies = draw(st.permutations(kinds + [f"cre:{b!r}" for b in biases]))
    path = st.text(alphabet="abcXYZ019_-./%()", max_size=8)
    output_dir = draw(st.one_of(st.none(), st.tuples(path, path).map("%".join)))
    values.update(
        isd_m=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        min_pico_to_macro_m=draw(st.floats(min_value=0.0, allow_infinity=False)),
        min_pico_to_pico_m=draw(st.floats(min_value=0.0, allow_infinity=False)),
        pico_coverage_radius_m=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        picos_per_sector=picos,
        users_per_sector=picos + draw(st.integers(0, 50)),
        rbs_per_user=rbs,
        total_data_rbs=data_rbs,
        total_bandwidth_mhz=draw(
            st.floats(min_value=data_rbs * (NoiseModel.rb_bandwidth_hz / 1e6), allow_infinity=False)
        ),
        drops=draw(st.integers(min_value=1)),
        master_seed=draw(st.integers(min_value=0)),
        max_passes=draw(st.integers(min_value=1)),
        workers=draw(st.integers(1, 64)),
        alphas=alphas,
        p0_dbm=p0,
        strategies=tuple(strategies),
        output_dir=output_dir,
    )
    assert values.keys() == {f.name for f in fields(Scenario)}
    return Scenario(**values).validate()


@settings(max_examples=200, deadline=None)
@given(scenario=valid_scenarios())
def test_ini_round_trip_of_any_scenario(tmp_path_factory, scenario):
    path = tmp_path_factory.mktemp("ini") / "scenario.cfg"
    path.write_text(scenario_to_ini(scenario), encoding="utf-8")
    assert load_scenario(str(path)) == scenario


# a core with what the scenario reader would cut from it: leading or
# trailing whitespace, or a ';' or '#' at the front or after whitespace
WHITESPACE = st.text(alphabet=" \t\n\xa0", min_size=1, max_size=2)


@st.composite
def unreadable_text(draw, core):
    kind = draw(st.sampled_from(["leading", "trailing", "comment", "comment first"]))
    if kind == "leading":
        return draw(WHITESPACE) + core
    if kind == "trailing":
        return core + draw(WHITESPACE)
    comment = draw(st.sampled_from(";#")) + draw(st.text(alphabet="abc019 ;#", max_size=4))
    if kind == "comment first":
        return comment + core
    return core + draw(WHITESPACE) + comment


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(["output_dir", "strategies"]))
def test_validate_rejects_text_that_would_not_read_back(data, name):
    if name == "output_dir":
        value = data.draw(unreadable_text(data.draw(st.text(alphabet="abcXYZ019_-./%()", max_size=8))))
        scenario = replace(Scenario(), output_dir=value)
    else:
        scenario = replace(Scenario(), strategies=("pl", data.draw(unreadable_text("rsrp"))))
    with pytest.raises(ConfigError, match=name):
        scenario.validate()


def test_percent_in_a_value_is_read_literally(tmp_path, capsys):
    path = tmp_path / "s.cfg"
    path.write_text("[run]\noutput_dir = res%1\n", encoding="utf-8")
    assert load_scenario(str(path)).output_dir == "res%1"
    assert cli_main(["validate", "--config", str(path)]) == 0
    assert "output_dir = res%1\n" in capsys.readouterr().out
    # a campaign writes a resolved file that loads back equal
    scenario = replace(TINY, drops=1, output_dir=str(tmp_path / "res%1"))
    run_campaign(scenario)
    assert load_scenario(str(tmp_path / "res%1" / "scenario.resolved.cfg")) == scenario


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
    # [DEFAULT] is no scenario section, alone or leaking into [run]
    for text in ("[DEFAULT]\ndrops = 3\n", "[DEFAULT]\ndrops = 3\n[run]\nmaster_seed = 2\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_scenario(str(path))
    path.write_text("[DEFAULT]\n[run]\ndrops = 3\n", encoding="utf-8")
    assert load_scenario(str(path)).drops == 3


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="no/such/file.cfg"):
        load_scenario("no/such/file.cfg")
    # a directory is no file, and its error names it
    with pytest.raises(ConfigError, match=f"cannot read config file {tmp_path}"):
        load_scenario(str(tmp_path))
    path = tmp_path / "latin1.cfg"
    path.write_bytes("[run]\n# d\xe9j\xe0 vu\ndrops = 3\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=f"config file {path} is not UTF-8"):
        load_scenario(str(path))


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


def slot_rx(state):
    """rx[s, j, i], the per-RB received power of the user at [s, i] at the
    serving cell of the user at [s, j], from the gains and powers of the
    state alone; zero at padding."""
    slots, n_users = state.slots, len(state.serving)
    g_lin, p = state.gains.g_linear, state.per_rb_power_mw
    rx = np.zeros(state.subframe.shape + state.subframe.shape[1:])
    for k in range(n_users):
        for i in range(k % slots, n_users, slots):  # the users of k's slot
            rx[k % slots, k // slots, i // slots] = g_lin[state.serving[k], i] * p[i]
    return rx


def coblock_mask(state, s, j):
    """The co-block mask of the user at [s, j]: one at the other users of its block."""
    mask = (state.subframe[s] == state.subframe[s, j]).astype(float)
    mask[j] = 0.0
    return mask


def per_user_sinr_db(state):
    """The SINR as one combiner call per user, on its per-RB SINR repeated
    over every subcarrier of its block; its interference is one
    coblock_interference call on the user's own mask."""
    from hetsim.metrics import SUBCARRIERS_PER_RB, wideband_sinr

    slots = state.slots
    rx = slot_rx(state)
    out = np.empty(len(state.serving))
    for u in range(len(state.serving)):
        j, s = divmod(u, slots)
        interference = coblock_interference(coblock_mask(state, s, j), rx[s, j, :, None])[0]
        gamma_rb = rx[s, j, j] / (interference + state.noise_rb_mw)
        per_sc = np.full(state.power_cfg.rbs_per_user * SUBCARRIERS_PER_RB, gamma_rb)
        out[u] = 10.0 * np.log10(wideband_sinr(per_sc))
    return out


def all_user_sinr_db(state):
    """Wideband SINR (dB) of every user of one state, its links built for it alone."""
    return _sinr_db(*_sinr_links(state), state)


def test_fast_sinr_path_matches_reference():
    # the batched path in the drop runner must reproduce the per-user
    # combiner on the same co-block sum bit for bit, and the per-RB
    # reference path, which sums the interferers one RB at a time, to rounding
    from hetsim.cell_selection import NetworkState
    from hetsim.harness import random_small_gains
    from hetsim.metrics import NoiseModel
    from hetsim.uplink_power import PowerConfig

    rng = np.random.default_rng(13)
    noise = NoiseModel().per_rb_noise_mw
    for n_cells, n_users in ((4, 6), (3, 40)):
        gains = random_small_gains(rng, n_cells, n_users)
        serving = rng.integers(0, n_cells, size=n_users)
        for total_rbs in (4, 8, 48):
            state = NetworkState.build(gains, serving, PowerConfig(-90.0, 0.8), noise, total_rbs)
            fast = all_user_sinr_db(state)
            assert np.array_equal(fast, per_user_sinr_db(state))
            slow = [user_wideband_sinr_db(u, state) for u in range(n_users)]
            assert np.allclose(fast, slow, rtol=1e-12)


def per_block_sinr_db(state):
    """The SINR as a loop over the scheduled blocks: one stacked
    coblock_interference call per block, over its members' masks."""
    slots = state.slots
    rx = slot_rx(state)
    out = np.empty(len(state.serving))
    for (_, rb_start), members in blocks(state.subframe, len(state.serving), state.power_cfg.rbs_per_user):
        s = rb_start // state.power_cfg.rbs_per_user
        pos = members // slots
        mask = np.array([coblock_mask(state, s, j) for j in pos.tolist()])
        interference = coblock_interference(mask, rx[s, pos, :, None])[:, 0]
        out[members] = 10.0 * np.log10(rx[s, pos, pos] / (interference + state.noise_rb_mw))
    return out


@st.composite
def sinr_states(draw):
    """A state whose first subframe has blocks of at least `width` members.

    A sum of 1-7, 8-15 or 16 or more terms may group its terms in
    different ways, so the width is drawn from each of those ranges.
    The first `width` users of each slot take cells 0..width-1, so they
    share one block; the other users take any cell and also fill blocks
    of smaller sizes in later subframes.
    """
    width = draw(st.one_of(st.integers(1, 7), st.integers(8, 15), st.integers(16, 24)))
    n_cells = width + draw(st.integers(0, 3))
    total_rbs = draw(st.sampled_from([4, 8, 48]))
    slots = total_rbs // 4
    extra = draw(st.integers(0, 2 * width * slots))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = random_small_gains(rng, n_cells, width * slots + extra)
    serving = np.r_[np.repeat(np.arange(width), slots), rng.integers(0, n_cells, size=extra)]
    alpha = draw(st.sampled_from([0.0, 0.4, 0.6, 0.8, 1.0]))
    return width, NetworkState.build(
        gains, serving, PowerConfig(-90.0, alpha), NoiseModel().per_rb_noise_mw, total_rbs
    )


@settings(max_examples=60, deadline=None)
@given(sinr_states())
def test_batched_sinr_equals_per_block_loop(drawn):
    width, state = drawn
    sizes = [len(members) for _, members in blocks(state.subframe, len(state.serving))]
    assert max(sizes) >= width
    batched = all_user_sinr_db(state)
    assert np.array_equal(batched, per_block_sinr_db(state))
    assert np.array_equal(batched, per_user_sinr_db(state))
    slow = [user_wideband_sinr_db(u, state) for u in range(len(state.serving))]
    assert np.allclose(batched, slow, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(sinr_states(), st.lists(st.sampled_from([0.0, 0.4, 0.6, 0.8, 1.0]), min_size=1, max_size=4, unique=True))
def test_shared_sinr_blocks_equal_a_fresh_state_per_alpha(drawn, alphas):
    # one serving vector's masks and links, built once, give at every alpha
    # the SINR and the capped links of a state built afresh at that alpha,
    # bit for bit
    _, state = drawn
    shared = _sinr_links(state)
    for alpha in alphas:
        cfg = PowerConfig(crossing_p0(alpha), alpha)
        at_alpha = state.with_power(cfg)
        fresh = NetworkState.build(state.gains, state.serving.copy(), cfg, state.noise_rb_mw, 4 * state.slots)
        sinr_db = _sinr_db(*shared, at_alpha)
        assert sinr_db.tobytes() == all_user_sinr_db(fresh).tobytes()
        assert np.array_equal(at_alpha.capped, fresh.capped)


def test_sinr_of_a_dominant_signal_equals_exact_arithmetic():
    # user 0's signal exceeds its co-block interference 1e7-fold or more;
    # its SINR must hold to exact rational arithmetic on the same powers
    # and gains. The block total minus the signal cancels here: that form
    # missed by 2.2e-9 to 7.4e-8 on these instances.
    rng = np.random.default_rng(22)
    for _ in range(5):
        g = rng.uniform(-175.0, -170.0, size=(6, 6))
        np.fill_diagonal(g, rng.uniform(-90.0, -70.0, size=6))
        g[0, 0] = -60.0
        gains = GainMatrix(g=g, cell_tier=np.full(6, "macro"), rs_power_dbm=np.full(6, 46.0))
        # one slot, each user its own cell: all six share one block
        state = NetworkState.build(gains, np.arange(6), PowerConfig(-90.0, 1.0), 1e-20, 4)
        p, g_lin = state.per_rb_power_mw, gains.g_linear
        signal = Fraction(p[0]) * Fraction(g_lin[0, 0])
        interference = sum(Fraction(p[i]) * Fraction(g_lin[0, i]) for i in range(1, 6))
        assert signal >= 10**7 * interference
        exact = signal / (interference + Fraction(state.noise_rb_mw))
        got = Fraction(10.0 ** (all_user_sinr_db(state)[0] / 10.0))
        assert abs(got - exact) <= Fraction(1, 10**12) * exact


def test_sinr_interference_is_the_serving_column_of_the_search_row(monkeypatch):
    """On acc2 search states, converged and cycling, the SINR path's
    interference equals the serving cell's entry of the interference row
    the search scores the user with, within 1e-14 relative.

    Not bit for bit: the search's row is a (1, U) @ (U, C) product and the
    SINR's a (1, U) @ (U, 1) one, and BLAS may sum a vector product and a
    column of a matrix product in different orders.
    """
    captured = []

    def spy(mask, rows):
        # a copy: the search's metric is computed in place on the product
        interference = coblock_interference(mask, rows)
        captured.append(interference.copy())
        return interference

    scenario = Scenario()
    noise = scenario.noise_model().per_rb_noise_mw
    search = StrategyConfig("interference")
    outcomes = set()
    for drop in range(2):
        gains = compute_gain_matrix(*drop_inputs(scenario, drop), scenario)
        for alpha in (0.4, 1.0):
            cfg = scenario.power_config(alpha)
            result = select_interference_based(gains, cfg, noise, search, scenario.total_data_rbs)
            outcomes.add("converged" if result.converged else "cycling" if result.cycle_period else "cut off")
            state = NetworkState.build(gains, result.c, cfg, noise, scenario.total_data_rbs)
            slots, depth = state.subframe.shape
            with monkeypatch.context() as m:
                m.setattr(harness, "coblock_interference", spy)
                _sinr_db(*_sinr_links(state), state)
            sinr_i = captured.pop()[..., 0]                   # (slots, depth)
            with monkeypatch.context() as m:
                m.setattr(cell_selection, "coblock_interference", spy)
                for j in range(depth):
                    _position_metrics(state, j, 0, min(slots, gains.n_users - j * slots))
            for j, row in enumerate(captured):
                users = np.arange(len(row)) + j * slots
                search_i = row[np.arange(len(row)), state.serving[users]]
                assert np.allclose(sinr_i[:len(row), j], search_i, rtol=1e-14, atol=0.0)
            captured.clear()
    assert outcomes == {"converged", "cycling"}


def drop_inputs(scenario, drop_index):
    """A drop's layout, its placed nodes and its generator, ready for the gain matrix, as run_drop makes them."""
    rng = np.random.default_rng(np.random.SeedSequence(scenario.master_seed, spawn_key=(drop_index,)))
    layout = build_layout(scenario.isd_m)
    picos, pico_sector = place_picos(
        layout, scenario.picos_per_sector, rng,
        min_to_site_m=scenario.min_pico_to_macro_m, min_to_pico_m=scenario.min_pico_to_pico_m,
    )
    nodes = place_users(
        layout, picos, pico_sector, scenario.users_per_sector, rng,
        seed_radius_m=scenario.pico_coverage_radius_m,
    )
    return layout, nodes, rng


def former_drop_samples(scenario, drop_index):
    """One drop's samples as the drop runner first built them: one
    (drop, user, strategy, alpha, p0_dbm, serving_cell, tier, sinr_db)
    tuple per user and run, SINR from the per-block loop."""
    gains = compute_gain_matrix(*drop_inputs(scenario, drop_index), scenario)
    noise_mw = scenario.noise_model().per_rb_noise_mw
    cell_tier = gains.cell_tier.tolist()
    samples = []
    for strategy in scenario.strategy_configs():
        for alpha in scenario.alphas:
            power_cfg = scenario.power_config(alpha)
            if strategy.kind == "interference":
                c = select_interference_based(
                    gains, power_cfg, noise_mw, strategy, scenario.total_data_rbs
                ).c
            else:
                c = _baseline_assignment(strategy, gains).c
            state = NetworkState.build(gains, c, power_cfg, noise_mw, scenario.total_data_rbs)
            sinr_db = per_block_sinr_db(state)
            samples += [
                (drop_index, u, strategy.label, alpha, power_cfg.p0_dbm, int(c[u]), cell_tier[c[u]], float(sinr_db[u]))
                for u in range(gains.n_users)
            ]
    return samples


def former_outputs(scenario, samples, runs):
    """Every output file as first written: row by row from a list of
    sample tuples, the CDF from one (strategy, alpha, sinr_db, fraction)
    tuple per row."""
    groups = {}
    for _, _, strategy, alpha, _, _, _, sinr_db in samples:
        groups.setdefault((strategy, alpha), []).append(sinr_db)
    table = []
    cdf = []
    for (strategy, alpha), values in groups.items():
        pct = percentiles(values)
        table.append({"strategy": strategy, "alpha": alpha, "p5_db": pct[5],
                      "p50_db": pct[50], "p90_db": pct[90], "n": len(values)})
        for i, v in enumerate(np.sort(np.array(values)).tolist(), start=1):
            cdf.append((strategy, alpha, v, i / len(values)))
    return {
        "samples.csv": "drop,user,strategy,alpha,serving_cell,tier,sinr_db\n" + "".join(
            f"{drop},{user},{strategy},{alpha:g},{cell},{tier},{sinr_db:.6f}\n"
            for drop, user, strategy, alpha, _, cell, tier, sinr_db in samples
        ),
        "percentiles.csv": "strategy,alpha,p5_db,p50_db,p90_db,n\n" + "".join(
            f"{row['strategy']},{row['alpha']:g},{row['p5_db']:.6f},"
            f"{row['p50_db']:.6f},{row['p90_db']:.6f},{row['n']}\n"
            for row in table
        ),
        "cdf.csv": "strategy,alpha,sinr_db,fraction\n" + "".join(
            f"{strategy},{alpha:g},{sinr_db:.6f},{fraction:.8f}\n"
            for strategy, alpha, sinr_db, fraction in cdf
        ),
        "summary.txt": _summary_text(scenario, table, runs),
        "scenario.resolved.cfg": scenario_to_ini(scenario),
    }


def test_outputs_equal_row_by_row_writers(tmp_path):
    scenario = replace(
        TINY, strategies=("rsrp", "pl", "cre:0", "interference"), alphas=(0.6, 1.0),
        p0_dbm=(-47.25, -90.0), drops=2, output_dir=str(tmp_path / "out"),
    )
    report, runs = run_campaign(scenario)
    samples = former_drop_samples(scenario, 0) + former_drop_samples(scenario, 1)
    assert [
        (r.drop, u, r.strategy, r.alpha, r.p0_dbm, int(c), str(r.cell_tier[c]), float(x))
        for r in runs for u, (c, x) in enumerate(zip(r.serving_cell, r.sinr_db))
    ] == samples
    assert len(report.samples) == len(samples)
    assert {(r.alpha, r.p0_dbm) for r in runs} == {(0.6, -47.25), (1.0, -90.0)}
    for name, text in former_outputs(scenario, samples, runs).items():
        assert (tmp_path / "out" / name).read_bytes() == text.encode("utf-8"), name
    # the attach columns of summary.txt count each run's users by the tier of their cell
    rows = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8").splitlines()[3:11]
    for row in rows:
        strategy, alpha, macro, pico = row.split()[:4]
        tiers = [s[6] for s in samples if (s[2], f"{s[3]:g}") == (strategy, alpha)]
        assert (float(macro), float(pico)) == (tiers.count("macro") / 2, tiers.count("pico") / 2)


def test_cdf_rows_of_curves_of_different_lengths():
    rng = np.random.default_rng(6)
    runs = [
        SinrRun(0, strategy, 0.8, -90.0, np.zeros(n, dtype=int), rng.normal(size=n), np.array(["macro"]))
        for strategy, n in (("rsrp", 3), ("pl", 7), ("cre6", 3), ("interference", 1))
    ]
    curves = metrics.export_cdf(SinrReport(runs=runs))
    expected = "".join(
        f"{strategy},{alpha:g},{v:.6f},{i / len(values):.8f}\n"
        for strategy, alpha, values, _ in curves
        for i, v in enumerate(values.tolist(), start=1)
    )
    assert "".join(harness._cdf_csv(curves)) == expected


# ---- the cap and the per-drop allocation, on the acc2 shape ----------------------

# Scenario() is the acc2 benchmark's shape: 2 picos and 12 users a sector,
# every strategy at alpha 0.4, 0.6, 0.8 and 1.0, master seed 1

MB = 2**20


def crossing_p0(alpha):
    """P0 by the common-Pmax-crossing rule, from P0 = -90 dBm at alpha = 1; it caps links beyond about 107 dB."""
    return alpha * -90.0 + (1.0 - alpha) * (23.0 - 10.0 * math.log10(4))


def test_capped_users_count_the_served_links_at_the_cap():
    scenario = replace(Scenario(), p0_dbm=tuple(crossing_p0(a) for a in Scenario().alphas))
    gains = compute_gain_matrix(*drop_inputs(scenario, 0), scenario)
    users = np.arange(gains.n_users)
    runs = run_drop(scenario, 0)
    for run in runs:
        served = open_loop_power(scenario.power_config(run.alpha), -gains.g[run.serving_cell, users])
        assert run.capped_users == served.capped.sum()
    assert all(run.capped_users > 0 for run in runs)


def test_capped_follows_a_moved_state():
    # a state that moves reports the cap of its links after the moves
    scenario = Scenario()
    gains = compute_gain_matrix(*drop_inputs(scenario, 0), scenario)
    users = np.arange(gains.n_users)
    cfg = scenario.power_config(1.0)
    state = NetworkState.build(gains, select_rsrp(gains).c, cfg, scenario.noise_model().per_rb_noise_mw)
    before = int(state.capped.sum())
    weakest = gains.g.argmin(axis=0)
    for user in users[::7].tolist():
        state.move_user(user, int(weakest[user]))
    served = open_loop_power(cfg, -gains.g[state.serving, users]).capped
    assert np.array_equal(state.capped, served)
    assert served.sum() > before


def former_drop_runs(scenario, drop_index):
    """One drop's runs as run_drop made them before runs shared a drop's
    work: a fresh rsrp start per search, one state and one set of SINR
    blocks per run."""
    gains = compute_gain_matrix(*drop_inputs(scenario, drop_index), scenario)
    noise_mw = scenario.noise_model().per_rb_noise_mw
    runs = []
    for strategy in scenario.strategy_configs():
        for alpha in scenario.alphas:
            power_cfg = scenario.power_config(alpha)
            if strategy.kind == "interference":
                assignment = former_search(gains, power_cfg, noise_mw, strategy, scenario.total_data_rbs)
            else:
                assignment = _baseline_assignment(strategy, gains)
            state = NetworkState.build(gains, assignment.c, power_cfg, noise_mw, scenario.total_data_rbs)
            runs.append(SinrRun(
                drop_index, strategy.label, alpha, power_cfg.p0_dbm, assignment.c, all_user_sinr_db(state),
                gains.cell_tier, converged=assignment.converged, passes_used=assignment.passes_used,
                moves_total=sum(assignment.moves_per_pass), capped_users=int(state.capped.sum()),
                cycle_period=assignment.cycle_period,
            ))
    return runs


@pytest.mark.parametrize("drop_index", [0, 3])
def test_drop_runs_equal_one_state_per_run(drop_index):
    # at the acceptance operating points, where the cap differs by alpha
    scenario = replace(Scenario(), p0_dbm=tuple(crossing_p0(a) for a in Scenario().alphas))
    runs = run_drop(scenario, drop_index)
    former = former_drop_runs(scenario, drop_index)
    assert tallies(runs) == tallies(former)
    for run, expected in zip(runs, former):
        assert run.serving_cell.tobytes() == expected.serving_cell.tobytes()
        assert run.sinr_db.tobytes() == expected.sinr_db.tobytes()


def test_cached_rsrp_start_is_never_written(monkeypatch):
    # the searches of a drop start from copies of the drop's rsrp cells,
    # and select_rsrp hands out a copy too
    drops = []

    def keep_gains(*args):
        drops.append(compute_gain_matrix(*args))
        return drops[-1]

    monkeypatch.setattr(harness, "compute_gain_matrix", keep_gains)
    scenario = Scenario()
    runs = run_drop(scenario, 0)
    (gains,) = drops
    rsrp = np.argmax(gains.rs_power_dbm[:, None] + gains.g, axis=0)
    assert any(run.moves_total for run in runs)
    assert np.array_equal(_rsrp_cells(gains), rsrp)
    noise = scenario.noise_model().per_rb_noise_mw
    for alpha in scenario.alphas:
        result = select_interference_based(
            gains, scenario.power_config(alpha), noise, StrategyConfig("interference"), scenario.total_data_rbs
        )
        assert sum(result.moves_per_pass)
        assert np.array_equal(_rsrp_cells(gains), rsrp)
    select_rsrp(gains).c[:] = 0
    assert np.array_equal(_rsrp_cells(gains), rsrp)
    assert np.array_equal(select_rsrp(gains).c, rsrp)


def test_drop_allocation_peaks():
    # tracemalloc peaks on acc2 drop 0: the gain matrix builds no full-size
    # temporaries, and a search, once the drop's per-slot gains exist (its
    # first search builds them), holds its rows and its mW table
    scenario = Scenario()
    layout, nodes, rng = drop_inputs(scenario, 0)
    noise = scenario.noise_model().per_rb_noise_mw
    search = StrategyConfig("interference")
    tracemalloc.start()
    try:
        gains = compute_gain_matrix(layout, nodes, rng, scenario)
        gain_peak = tracemalloc.get_traced_memory()[1]
        select_interference_based(gains, scenario.power_config(0.4), noise, search, scenario.total_data_rbs)
        in_use = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        select_interference_based(gains, scenario.power_config(0.6), noise, search, scenario.total_data_rbs)
        search_peak = tracemalloc.get_traced_memory()[1] - in_use
    finally:
        tracemalloc.stop()
    assert gain_peak <= 6 * MB
    assert search_peak <= 3.5 * MB


def test_campaign_without_users_writes_empty_tables(tmp_path):
    scenario = replace(
        TINY, picos_per_sector=0, users_per_sector=0, drops=1, output_dir=str(tmp_path / "out")
    )
    report, _ = run_campaign(scenario)
    assert len(report.samples) == 0
    assert report.percentile_table() == []
    assert (tmp_path / "out" / "cdf.csv").read_text(encoding="utf-8") == "strategy,alpha,sinr_db,fraction\n"


def test_campaign_builds_no_samples(tmp_path):
    # the samples are counted from the run columns; there is no per-sample record to build
    scenario = replace(TINY, output_dir=str(tmp_path / "out"))
    report, _ = run_campaign(scenario)
    assert len(report.samples) == 2 * len(TINY.strategies) * len(TINY.alphas) * 57 * TINY.users_per_sector
    assert len(SinrReport(runs=[]).samples) == 0
    with pytest.raises(TypeError):
        iter(report.samples)


def test_oracle_suite_smoke():
    result = run_oracle_suite(instances=10, seed=3)
    assert result.instances == 10
    assert result.containment_failures == 0
    assert result.converged + len(result.non_converged_instances) == 10


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_instances_equal_the_former_draws(seed, monkeypatch):
    # the tiers drawn in one call and alpha drawn by index consume the
    # generator as one draw per tier and rng.choice did: the same
    # instances, and the same generator state after 3,000 of them
    default_rng = np.random.default_rng
    generators = []

    def capture(s):
        generators.append(default_rng(s))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", capture)
    pairs = list(zip(harness.oracle_instances(3000, seed), former_oracle_instances(3000, seed), strict=True))
    assert len(pairs) == 3000 and len(generators) == 2
    for (gains, power), (former, former_power) in pairs:
        assert gains.g.tobytes() == former.g.tobytes()
        assert gains.cell_tier.dtype == former.cell_tier.dtype
        assert gains.cell_tier.tolist() == former.cell_tier.tolist()
        assert gains.rs_power_dbm.dtype == former.rs_power_dbm.dtype
        assert gains.rs_power_dbm.tobytes() == former.rs_power_dbm.tobytes()
        assert power == former_power and type(power.alpha) is float
    assert generators[0].bit_generator.state == generators[1].bit_generator.state


def test_infeasible_placement_carries_drop_context():
    # 80 picos at 35 m spacing cannot fit in one sector
    scenario = replace(Scenario(), picos_per_sector=80, users_per_sector=80, drops=1)
    with pytest.raises(DropError, match="drop 0"):
        run_drop(scenario, 0)
    with pytest.raises(RuntimeError, match="failed drops"):
        run_campaign(scenario)


def test_search_failure_names_strategy_and_alpha(monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("metric overflow")

    monkeypatch.setattr(harness, "select_interference_based", broken)
    scenario = replace(TINY, alphas=(0.4, 0.8), drops=1)
    with pytest.raises(DropError) as info:
        run_drop(scenario, 0)
    assert str(info.value) == "drop 0 failed in selection interference α=0.4: metric overflow"
    assert info.value.stage == "selection interference α=0.4"
    assert isinstance(info.value.cause, FloatingPointError)
    with pytest.raises(RuntimeError, match="drop 0 failed in selection interference α=0.4"):
        run_campaign(scenario)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_drops_name_their_stage(workers):
    # no pico fits 10 km from every site: both drops fail while placing
    scenario = replace(TINY, min_pico_to_macro_m=1e4)
    with pytest.raises(RuntimeError) as info:
        run_campaign(replace(scenario, workers=workers))
    lines = str(info.value).splitlines()[1:]
    assert [line.strip().split(":")[0] for line in lines] == [
        "drop 0 failed in placement", "drop 1 failed in placement",
    ]
    error = DropError(1, "placement", ValueError("no room"))
    again = pickle.loads(pickle.dumps(error))
    assert (str(again), again.drop_index, again.stage) == (str(error), 1, "placement")


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
    stdout = capsys.readouterr().out
    assert "outputs written" in stdout
    # the printed percentile lines are summary.txt's, without the indent
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    listed = summary.split("percentiles (dB):\n")[1]
    assert stdout.startswith(listed.replace("  ", ""))
    assert stdout.count("\n") == listed.count("\n") + 1


def test_cli_unusable_out_fails_before_any_drop(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a drop ran")

    monkeypatch.setattr(harness, "run_drop", refuse)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    for out in (taken, taken / "sub"):
        assert cli_main(["run", "--drops", "1", "--strategies", "rsrp", "--alphas", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: output_dir {out}: {taken} is not a writable directory")
        assert err.count("\n") == 1


def test_cli_alphas_override_must_match_p0_list(tmp_path, capsys):
    path = tmp_path / "s.cfg"
    path.write_text("[power]\nalphas = 0.4, 1.0\np0_dbm = -25.8, -90\n", encoding="utf-8")
    assert load_scenario(str(path)).power_config(0.4).p0_dbm == -25.8
    with pytest.raises(ConfigError, match="p0_dbm"):
        load_scenario(str(path), {"alphas": (0.4, 0.8, 1.0)})
    code = cli_main(["run", "--config", str(path), "--alphas", "0.8", "--drops", "1"])
    assert code == 2
    assert "p0_dbm" in capsys.readouterr().err


def test_cli_run_options_override_their_fields():
    from hetsim.cli import _build_parser, _scenario_from_args

    args = _build_parser().parse_args([
        "run", "--drops", "3", "--seed", "7", "--out", "o%1", "--strategies", "rsrp, cre:3",
        "--alphas", "0.4,1", "--picos-per-sector", "1", "--workers", "2",
    ])
    assert _scenario_from_args(args) == replace(
        Scenario(), drops=3, master_seed=7, output_dir="o%1", strategies=("rsrp", "cre:3"),
        alphas=(0.4, 1.0), picos_per_sector=1, workers=2,
    )


def test_cli_failed_campaign_prints_an_error_line(tmp_path, capsys):
    # no pico fits 10 km from every site: the drop fails while placing
    path = tmp_path / "s.cfg"
    path.write_text("[radio]\nmin_pico_to_macro_m = 10000\n", encoding="utf-8")
    assert cli_main(["run", "--config", str(path), "--drops", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: campaign aborted: drop 0 failed in placement: ")
    assert err.count("\n") == 1


def test_cli_oracle(capsys):
    assert cli_main(["oracle", "--instances", "5", "--seed", "1"]) == 0
    assert "instances=5" in capsys.readouterr().out


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_cli_oracle_rejects_no_instances(capsys, instances):
    assert cli_main(["oracle", "--instances", instances]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --instances must be >= 1, got {instances}\n"


@pytest.mark.parametrize("command,error", [
    (["run", "--drops", "1"], "master_seed must be >= 0, got -1"),
    (["oracle", "--instances", "5"], "--seed must be >= 0, got -1"),
])
def test_cli_rejects_a_negative_seed(capsys, command, error):
    # numpy's own message would name neither the key nor the flag
    assert cli_main(command + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
