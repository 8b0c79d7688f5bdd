"""Tests for the clock-ratio estimators and timestamp adjustment."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocksync import (
    ClockAdjustment,
    ClockPair,
    PiecewiseAdjustment,
    adjustment_from_pairs,
    filter_outliers,
    last_slope_ratio,
    pairs_from_events,
    rms_anchored_ratio,
    rms_segment_ratio,
    segment_slopes,
)
from repro.cluster.clocks import ClockSpec, LocalClock
from repro.cluster.engine import NS_PER_SEC
from repro.errors import MergeError
from repro.tracing.events import dispatch_event, global_clock_event
from tests.conftest import max_examples


def pairs_for_clock(spec: ClockSpec, *, n=10, period_s=1.0, jitter=()):
    """Sample a simulated clock the way the global-clock sampler does.

    ``jitter`` lists (index, delay_ns) local-read delays to inject.
    """
    clock = LocalClock(spec)
    delays = dict(jitter)
    out = []
    for i in range(n):
        g = int(i * period_s * NS_PER_SEC)
        l = clock.read(g) + delays.get(i, 0)
        out.append(ClockPair(global_ts=g, local_ts=l))
    return out


class TestEstimators:
    def test_perfect_clock_gives_ratio_one(self):
        pairs = pairs_for_clock(ClockSpec())
        assert rms_segment_ratio(pairs) == pytest.approx(1.0, abs=1e-9)

    def test_drifting_clock_recovered(self):
        # +40 ppm local drift -> global/local ratio 1/(1+40e-6).
        pairs = pairs_for_clock(ClockSpec(drift_ppm=40.0))
        expected = 1.0 / (1.0 + 40e-6)
        assert rms_segment_ratio(pairs) == pytest.approx(expected, rel=1e-9)
        assert last_slope_ratio(pairs) == pytest.approx(expected, rel=1e-9)
        assert rms_anchored_ratio(pairs) == pytest.approx(expected, rel=1e-9)

    def test_offset_does_not_affect_ratio(self):
        for offset in (0, 10**9, -(10**6)):
            pairs = pairs_for_clock(ClockSpec(offset_ns=offset, drift_ppm=-25.0))
            assert rms_segment_ratio(pairs) == pytest.approx(
                1.0 / (1.0 - 25e-6), rel=1e-9
            )

    def test_segment_rms_beats_anchored_rms_with_bad_first_point(self):
        """The paper's reason for rejecting the anchored variant: an error in
        the first pair contaminates every anchored slope but only one
        segment slope."""
        true_ratio = 1.0 / (1.0 + 30e-6)
        pairs = pairs_for_clock(
            ClockSpec(drift_ppm=30.0), n=20, jitter=[(0, 400_000)]
        )
        err_segment = abs(rms_segment_ratio(pairs) - true_ratio)
        err_anchored = abs(rms_anchored_ratio(pairs) - true_ratio)
        assert err_segment < err_anchored

    def test_two_pairs_minimum(self):
        with pytest.raises(MergeError):
            rms_segment_ratio([ClockPair(0, 0)])

    def test_non_monotonic_pairs_rejected(self):
        bad = [ClockPair(0, 0), ClockPair(10, 10), ClockPair(20, 5)]
        with pytest.raises(MergeError, match="not strictly increasing"):
            rms_segment_ratio(bad)

    def test_segment_slopes_values(self):
        pairs = [ClockPair(0, 0), ClockPair(100, 50), ClockPair(200, 150)]
        assert segment_slopes(pairs) == [2.0, 1.0]

    @given(drift=st.floats(min_value=-100, max_value=100))
    @settings(max_examples=max_examples(50))
    def test_estimators_agree_for_constant_drift(self, drift):
        pairs = pairs_for_clock(ClockSpec(drift_ppm=drift), n=8)
        r1 = rms_segment_ratio(pairs)
        r2 = last_slope_ratio(pairs)
        assert r1 == pytest.approx(r2, rel=1e-9)


class TestOutlierFilter:
    def test_clean_sequence_untouched(self):
        pairs = pairs_for_clock(ClockSpec(drift_ppm=10.0))
        assert filter_outliers(pairs) == pairs

    def test_jittered_sample_removed(self):
        pairs = pairs_for_clock(
            ClockSpec(drift_ppm=10.0), n=12, jitter=[(5, 500_000)]
        )
        kept = filter_outliers(pairs)
        assert len(kept) == 11
        assert pairs[5] not in kept

    def test_filter_recovers_ratio(self):
        true_ratio = 1.0 / (1.0 + 10e-6)
        pairs = pairs_for_clock(
            ClockSpec(drift_ppm=10.0), n=12, jitter=[(4, 800_000), (9, 600_000)]
        )
        dirty = abs(rms_segment_ratio(pairs) - true_ratio)
        clean = abs(rms_segment_ratio(filter_outliers(pairs)) - true_ratio)
        assert clean < dirty
        assert clean < 1e-9

    def test_short_sequences_returned_as_is(self):
        pairs = [ClockPair(0, 0), ClockPair(10, 999)]
        assert filter_outliers(pairs) == pairs


class TestAdjustment:
    def test_linear_adjustment_maps_origin(self):
        adj = ClockAdjustment(origin_global=1000, origin_local=5000, ratio=2.0)
        assert adj.adjust(5000) == 1000
        assert adj.adjust(5010) == 1020
        assert adj.adjust_duration(7) == 14

    def test_roundtrip_recovers_true_time(self):
        """Adjusting local timestamps must recover global time to sub-ppm."""
        spec = ClockSpec(offset_ns=3_000_000, drift_ppm=-44.0)
        pairs = pairs_for_clock(spec, n=20)
        adj = adjustment_from_pairs(pairs)
        clock = LocalClock(spec)
        for t_s in (0.5, 3.25, 17.9):
            true_ns = int(t_s * NS_PER_SEC)
            recovered = adj.adjust(clock.read(true_ns))
            assert abs(recovered - true_ns) < 1000  # < 1 us over ~20 s

    def test_piecewise_handles_rate_change(self):
        """A clock whose rate changes mid-run is tracked much better by the
        piecewise adjuster than by any single global ratio."""
        # Build pairs by hand: rate 1+50ppm for 5 s, then 1-50ppm for 5 s.
        pairs = []
        local = 0.0
        for i in range(11):
            g = i * NS_PER_SEC
            pairs.append(ClockPair(g, int(local)))
            rate = 1 + 50e-6 if i < 5 else 1 - 50e-6
            local += rate * NS_PER_SEC
        piecewise = adjustment_from_pairs(pairs, mode="piecewise")
        single = adjustment_from_pairs(pairs, mode="rms_segment")
        # Probe inside the second regime.
        probe_global = int(7.5 * NS_PER_SEC)
        probe_local = pairs[7].local_ts + int(0.5 * NS_PER_SEC * (1 - 50e-6))
        err_piece = abs(piecewise.adjust(probe_local) - probe_global)
        err_single = abs(single.adjust(probe_local) - probe_global)
        assert err_piece < err_single
        assert err_piece < 10_000  # 10 us

    def test_piecewise_monotonic(self):
        pairs = pairs_for_clock(ClockSpec(drift_ppm=33.0), n=6)
        adj = PiecewiseAdjustment(pairs)
        samples = [adj.adjust(pairs[0].local_ts + k * 100_000_000) for k in range(60)]
        assert samples == sorted(samples)

    def test_unknown_mode_rejected(self):
        pairs = pairs_for_clock(ClockSpec())
        with pytest.raises(MergeError, match="unknown clock-sync mode"):
            adjustment_from_pairs(pairs, mode="banana")

    def test_duration_scaling(self):
        pairs = pairs_for_clock(ClockSpec(drift_ppm=100.0))
        adj = adjustment_from_pairs(pairs)
        # Local durations shrink slightly when mapped to global time.
        assert adj.adjust_duration(10_000_000) < 10_000_000


def test_pairs_from_events_extracts_only_clock_records():
    events = [
        dispatch_event(100, 1, 0),
        global_clock_event(local_ts=105, global_ts=100),
        dispatch_event(200, 1, 0),
        global_clock_event(local_ts=1105, global_ts=1100),
    ]
    pairs = pairs_from_events(events)
    assert pairs == [ClockPair(100, 105), ClockPair(1100, 1105)]


class TestAdjustDurationAtLocalTs:
    """Regression: ``PiecewiseAdjustment.adjust_duration`` silently applied
    segment 0's slope to every duration.  The position argument is now
    required (keyword-only), and the slope must follow the clock's rate at
    the record's own timestamp, not the run's start."""

    def rate_change_pairs(self):
        # Clock runs at 2x global rate for the first 3 segments, then 0.5x:
        # local ticks 0, 2000, 4000, 6000, 6500, 7000 against a uniform
        # 1000-tick global grid.
        locals_ = [0, 2000, 4000, 6000, 6500, 7000]
        return [
            ClockPair(global_ts=i * 1000, local_ts=l)
            for i, l in enumerate(locals_)
        ]

    def test_position_is_required(self):
        adj = PiecewiseAdjustment(self.rate_change_pairs())
        with pytest.raises(TypeError):
            adj.adjust_duration(1000)  # pre-fix: returned segment 0's answer

    def test_position_is_keyword_only(self):
        adj = PiecewiseAdjustment(self.rate_change_pairs())
        with pytest.raises(TypeError):
            adj.adjust_duration(1000, 6200)

    def test_mid_run_rate_change_uses_local_slope(self):
        adj = PiecewiseAdjustment(self.rate_change_pairs())
        # Before the rate change: 2000 local ticks per 1000 global.
        assert adj.adjust_duration(1000, at_local_ts=500) == 500
        # After it: 500 local ticks per 1000 global.
        assert adj.adjust_duration(1000, at_local_ts=6200) == 2000
        # Segment-0 slope applied everywhere was the bug.
        assert adj.adjust_duration(1000, at_local_ts=6200) != adj.adjust_duration(
            1000, at_local_ts=500
        )

    def test_global_adjustment_accepts_position_uniformly(self):
        adj = ClockAdjustment(origin_global=0, origin_local=0, ratio=0.5)
        assert adj.adjust_duration(1000) == 500
        assert adj.adjust_duration(1000, at_local_ts=999_999) == 500
