import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsim.uplink_power import STANDARD_ALPHAS, PowerConfig, UserPower, open_loop_power


def cfg(alpha, p0=-90.0):
    return PowerConfig(p0_dbm=p0, alpha=alpha)


def test_uncapped_example():
    up = open_loop_power(cfg(0.8), pl_db=100.0, n_rb=4)
    assert up.total_dbm == pytest.approx(-90.0 + 10 * math.log10(4) + 80.0, abs=1e-12)
    assert up.total_dbm == pytest.approx(-3.98, abs=0.005)
    assert not up.capped
    # per-RB power collapses to P0 + alpha*PL when uncapped
    assert up.per_rb_dbm == pytest.approx(-10.0, abs=1e-12)


def test_capped_example():
    up = open_loop_power(cfg(1.0), pl_db=140.0, n_rb=4)
    assert up.total_dbm == 23.0
    assert up.capped
    assert up.per_rb_dbm == pytest.approx(23.0 - 10 * math.log10(4), abs=1e-12)
    assert up.per_rb_dbm == pytest.approx(16.98, abs=0.005)


def test_zero_alpha_removes_pl_dependence():
    with pytest.warns(UserWarning):
        # alpha=0 is signalled, so exercise it via a non-standard value too
        PowerConfig(p0_dbm=-90.0, alpha=0.55)
    a = open_loop_power(cfg(0.0), pl_db=60.0, n_rb=4)
    b = open_loop_power(cfg(0.0), pl_db=160.0, n_rb=4)
    assert a.total_dbm == b.total_dbm == pytest.approx(-83.98, abs=0.005)


def test_single_block_per_rb_equals_total():
    up = open_loop_power(cfg(0.8), pl_db=90.0, n_rb=1)
    assert up.per_rb_dbm == up.total_dbm


def test_power_split_identity():
    for pl in (60.0, 100.0, 150.0):
        for alpha in (0.4, 0.8, 1.0):
            up = open_loop_power(cfg(alpha), pl_db=pl, n_rb=4)
            assert up.per_rb_dbm + 10 * math.log10(4) == pytest.approx(up.total_dbm, abs=1e-12)
            assert up.total_dbm <= 23.0


def test_monotonicity():
    pls = np.linspace(40.0, 160.0, 25)
    alphas = (0.0, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    p0s = (-100.0, -90.0, -80.0)
    for p0 in p0s:
        for alpha in alphas:
            totals = [open_loop_power(cfg(alpha, p0), pl, 4).total_dbm for pl in pls]
            assert np.all(np.diff(totals) >= -1e-12)
    for pl in pls:
        totals = [open_loop_power(cfg(a), pl, 4).total_dbm for a in alphas]
        assert np.all(np.diff(totals) >= -1e-12)


def test_bad_inputs():
    with pytest.raises(ValueError):
        open_loop_power(cfg(0.8), pl_db=100.0, n_rb=0)
    with pytest.raises(ValueError):
        open_loop_power(cfg(0.8), pl_db=float("nan"), n_rb=4)
    with pytest.raises(ValueError):
        PowerConfig(p0_dbm=-90.0, alpha=1.5)
    with pytest.raises(ValueError):
        PowerConfig(p0_dbm=-90.0, alpha=-0.1)


def test_default_nrb_from_config():
    up = open_loop_power(cfg(0.8), pl_db=100.0)
    assert up.total_dbm == open_loop_power(cfg(0.8), pl_db=100.0, n_rb=4).total_dbm


def test_userpower_is_plain_record():
    up = UserPower(total_dbm=3.0, per_rb_dbm=-3.0, capped=False)
    assert up.total_dbm == 3.0 and not up.capped


@settings(max_examples=100, deadline=None)
@given(
    pls=st.lists(st.floats(40.0, 170.0), min_size=1, max_size=30),
    alpha=st.sampled_from(STANDARD_ALPHAS),
    p0=st.floats(-110.0, -20.0),
    pmax=st.floats(10.0, 30.0),
    n_rb=st.integers(1, 12),
)
def test_array_law_equals_scalar_law(pls, alpha, p0, pmax, n_rb):
    # one law: an array call is the scalar call entry by entry, bit for bit,
    # and a length-1 slice gives the same entry as the whole array
    config = PowerConfig(p0_dbm=p0, alpha=alpha, pmax_dbm=pmax, rbs_per_user=n_rb)
    pl = np.array(pls)
    arr = open_loop_power(config, pl)
    for i, value in enumerate(pls):
        up = open_loop_power(config, value)
        assert type(up.total_dbm) is float and type(up.capped) is bool
        assert (up.total_dbm, up.per_rb_dbm, up.capped) == (arr.total_dbm[i], arr.per_rb_dbm[i], arr.capped[i])
        one = open_loop_power(config, pl[i:i + 1])
        assert (one.total_dbm[0], one.per_rb_dbm[0], one.capped[0]) == (arr.total_dbm[i], arr.per_rb_dbm[i], arr.capped[i])


def test_array_law_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        open_loop_power(cfg(0.8), np.array([100.0, float("inf")]))
