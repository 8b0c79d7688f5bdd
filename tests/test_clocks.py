"""Unit and property tests for the clock models (paper Figure 1 behaviour)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.clocks import ClockSpec, GlobalClock, LocalClock
from repro.cluster.engine import NS_PER_SEC
from tests.conftest import max_examples


def test_zero_drift_clock_is_identity_plus_offset():
    clock = LocalClock(ClockSpec(offset_ns=5000))
    assert clock.read(0) == 5000
    assert clock.read(NS_PER_SEC) == NS_PER_SEC + 5000


def test_positive_drift_gains_time():
    clock = LocalClock(ClockSpec(drift_ppm=20.0))
    # +20 ppm over 1 s of true time -> +20 us of local time.
    assert clock.read(NS_PER_SEC) == NS_PER_SEC + 20_000


def test_negative_drift_loses_time():
    clock = LocalClock(ClockSpec(drift_ppm=-50.0))
    assert clock.read(NS_PER_SEC) == NS_PER_SEC - 50_000


def test_discrepancy_grows_linearly_with_elapsed_time():
    """The core Figure 1 phenomenon: accumulated discrepancy between two
    local clocks is proportional to elapsed time."""
    a = LocalClock(ClockSpec(drift_ppm=18.0))
    b = LocalClock(ClockSpec(drift_ppm=-32.0))
    d10 = a.discrepancy_ns(10 * NS_PER_SEC, b)
    d140 = a.discrepancy_ns(140 * NS_PER_SEC, b)
    assert d140 == pytest.approx(14 * d10, rel=1e-9)
    # 50 ppm relative drift over 140 s -> 7 ms accumulated discrepancy.
    assert d140 == pytest.approx(140 * 50_000, rel=1e-6)


@given(
    drift=st.floats(min_value=-200, max_value=200),
    offset=st.integers(min_value=-10**9, max_value=10**9),
    t1=st.integers(min_value=0, max_value=10**12),
    dt=st.integers(min_value=1, max_value=10**10),
)
@settings(max_examples=max_examples(200))
def test_local_clock_strictly_monotonic(drift, offset, t1, dt):
    clock = LocalClock(ClockSpec(offset_ns=offset, drift_ppm=drift))
    assert clock.read(t1 + dt) > clock.read(t1)


@given(
    drift=st.floats(min_value=-200, max_value=200),
    wobble=st.floats(min_value=0, max_value=5),
    t=st.integers(min_value=0, max_value=10**12),
)
@settings(max_examples=max_examples(200))
def test_rate_stays_near_one(drift, wobble, t):
    clock = LocalClock(ClockSpec(drift_ppm=drift, wobble_ppm=wobble))
    rate = clock.rate_at(t)
    assert abs(rate - 1.0) <= (abs(drift) + wobble) * 1e-6 + 1e-12


def test_wobble_changes_rate_over_time():
    clock = LocalClock(ClockSpec(wobble_ppm=10.0, wobble_period_s=100.0))
    quarter = 25 * NS_PER_SEC
    assert clock.rate_at(quarter) == pytest.approx(1.0 + 10e-6, rel=1e-9)
    assert clock.rate_at(3 * quarter) == pytest.approx(1.0 - 10e-6, rel=1e-9)


def test_wobble_bounded_deviation_from_linear():
    """The wobble integral is bounded by amp/omega: the clock never runs away."""
    spec = ClockSpec(wobble_ppm=5.0, wobble_period_s=60.0)
    clock = LocalClock(spec)
    bound = 2 * (5e-6) / (2 * math.pi / (60 * NS_PER_SEC))
    for t_s in range(0, 600, 7):
        t = t_s * NS_PER_SEC
        assert abs(clock.read(t) - t) <= bound + 1


def test_global_clock_is_true_time():
    clock = GlobalClock()
    assert clock.read(0) == 0
    assert clock.read(123456789) == 123456789
