"""Unit tests for capture policies (per-boundary scheme state)."""

import pytest

from repro.core.checking_period import CheckingPeriod
from repro.errors import ConfigurationError
from repro.pipeline.schemes import (
    CanaryPolicy,
    DcfPolicy,
    PlainPolicy,
    RazorPolicy,
    TimberFFPolicy,
    TimberLatchPolicy,
)

CP = CheckingPeriod.with_tb(1000, 30)


class TestPlain:
    def test_any_violation_fails(self):
        policy = PlainPolicy(3)
        assert policy.capture(0, 10).failed
        assert policy.capture(1, 0).correct_state

    def test_no_borrow_budget(self):
        assert PlainPolicy(2).max_borrowable_ps() == 0


class TestTimberFFPolicy:
    def test_relay_carries_select_downstream(self):
        policy = TimberFFPolicy(3, CP)
        outcome = policy.capture(0, 60)  # error at boundary 0
        assert outcome.masked
        policy.end_of_cycle([outcome])
        assert policy.select_in(1) == 1  # downstream boundary armed
        assert policy.select_in(0) == 0

    def test_armed_boundary_masks_two_stage(self):
        policy = TimberFFPolicy(3, CP)
        policy.end_of_cycle([policy.capture(0, 60)])
        outcome = policy.capture(1, 150)
        assert outcome.masked and outcome.flagged
        assert outcome.borrowed_intervals == 2

    def test_select_resets_after_clean_cycle(self):
        policy = TimberFFPolicy(3, CP)
        policy.end_of_cycle([policy.capture(0, 60)])
        policy.end_of_cycle([policy.capture(0, 0)])
        assert policy.select_in(1) == 0

    def test_relay_wraps_around_pipeline(self):
        policy = TimberFFPolicy(3, CP)
        policy.capture(2, 60)  # last boundary errors
        policy.end_of_cycle([])
        assert policy.select_in(0) == 1  # circular pipeline

    def test_max_borrow_is_checking_period(self):
        assert TimberFFPolicy(2, CP).max_borrowable_ps() == CP.checking_ps

    def test_num_boundaries_validated(self):
        with pytest.raises(ConfigurationError):
            TimberFFPolicy(0, CP)


class TestTimberLatchPolicy:
    def test_stateless_continuous_masking(self):
        policy = TimberLatchPolicy(3, CP)
        outcome = policy.capture(0, 250)
        assert outcome.masked and outcome.flagged
        assert outcome.borrowed_ps == 250

    def test_no_select_carryover(self):
        policy = TimberLatchPolicy(3, CP)
        policy.end_of_cycle([policy.capture(0, 250)])
        # A later boundary sees no select state; lateness is all it needs.
        outcome = policy.capture(1, 60)
        assert outcome.masked and not outcome.flagged


class TestRazorPolicy:
    def test_detection_and_penalty(self):
        policy = RazorPolicy(2, window_ps=300, replay_penalty=5)
        outcome = policy.capture(0, 100)
        assert outcome.detected
        assert policy.replay_penalty_cycles == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RazorPolicy(2, window_ps=0)
        with pytest.raises(ConfigurationError):
            RazorPolicy(2, window_ps=100, replay_penalty=0)


class TestCanaryPolicy:
    def test_prediction(self):
        policy = CanaryPolicy(2, guard_ps=150)
        assert policy.capture(0, -50).predicted
        assert policy.capture(0, 10).failed

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CanaryPolicy(2, guard_ps=0)


class TestDcfPolicy:
    def test_masking(self):
        policy = DcfPolicy(2, detect_window_ps=150, resample_delay_ps=300)
        outcome = policy.capture(0, 100)
        assert outcome.masked
        assert outcome.borrowed_ps == 300

    def test_max_borrow(self):
        policy = DcfPolicy(2, detect_window_ps=150, resample_delay_ps=300)
        assert policy.max_borrowable_ps() == 300
