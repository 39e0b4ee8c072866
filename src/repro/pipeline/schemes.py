"""Capture policies: per-boundary state machines over the masking rules.

A :class:`CapturePolicy` wraps the pure capture functions of
:mod:`repro.core.masking` with the per-boundary state each scheme needs —
most importantly the TIMBER flip-flop's select relay, which carries the
"how many intervals did my fanin already borrow" information from one
boundary to the next between cycles.
"""

from __future__ import annotations

import abc

from repro.core.checking_period import CheckingPeriod
from repro.core.masking import (
    CaptureOutcome,
    canary_capture,
    clock_stall_capture,
    dcf_capture,
    plain_ff_capture,
    razor_capture,
    soft_edge_capture,
    timber_ff_capture,
    timber_latch_capture,
)
from repro.errors import ConfigurationError


class CapturePolicy(abc.ABC):
    """Capture semantics + state for every boundary of a pipeline."""

    #: Human-readable scheme name (used in reports).
    name: str = "abstract"

    def __init__(self, num_boundaries: int) -> None:
        if num_boundaries < 1:
            raise ConfigurationError("need at least one boundary")
        self.num_boundaries = num_boundaries

    @abc.abstractmethod
    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        """Outcome of capturing at ``boundary`` with the given lateness."""

    def end_of_cycle(self, outcomes: list[CaptureOutcome]) -> None:
        """Advance inter-cycle state (relay selects, etc.)."""

    @property
    def replay_penalty_cycles(self) -> int:
        """Recovery cycles charged per detected error (Razor only)."""
        return 0

    def max_borrowable_ps(self) -> int:
        """Worst-case output delay the scheme can impose on a boundary
        (used for hold/short-path budgeting)."""
        return 0

    # -- vector-kernel screening hooks ----------------------------------
    def relay_idle(self) -> bool:
        """No inter-cycle relay state pending.

        When this holds (and no boundary carries borrowed time), a cycle
        whose latenesses all stay at or below
        :meth:`clean_lateness_threshold_ps` is provably all-CLEAN with
        no state change, so the blocked vector loop may account whole
        runs of such cycles without invoking :meth:`capture`.
        """
        return True

    def clean_lateness_threshold_ps(self) -> int:
        """Largest idle-state lateness that still captures CLEAN."""
        return 0


class PlainPolicy(CapturePolicy):
    """Conventional flip-flops: no tolerance at all."""

    name = "plain"

    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        return plain_ff_capture(lateness_ps)


class TimberFFPolicy(CapturePolicy):
    """TIMBER flip-flops with the error relay between boundaries."""

    name = "timber-ff"

    def __init__(self, num_boundaries: int, cp: CheckingPeriod) -> None:
        super().__init__(num_boundaries)
        self.cp = cp
        self._select_in = [0] * num_boundaries
        self._next_select_in = [0] * num_boundaries

    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        outcome = timber_ff_capture(
            lateness_ps, self._select_in[boundary], self.cp,
        )
        # select_out = select_in + 1 on error, else 0; the relay hands it
        # to the *next* boundary for the *next* cycle.
        select_out = outcome.borrowed_intervals if outcome.masked else 0
        downstream = (boundary + 1) % self.num_boundaries
        self._next_select_in[downstream] = select_out
        return outcome

    def end_of_cycle(self, outcomes: list[CaptureOutcome]) -> None:
        self._select_in = self._next_select_in
        self._next_select_in = [0] * self.num_boundaries

    def select_in(self, boundary: int) -> int:
        return self._select_in[boundary]

    def relay_idle(self) -> bool:
        return not any(self._select_in)

    def max_borrowable_ps(self) -> int:
        return self.cp.checking_ps


class TimberLatchPolicy(CapturePolicy):
    """TIMBER latches: continuous borrowing, no relay state."""

    name = "timber-latch"

    def __init__(self, num_boundaries: int, cp: CheckingPeriod) -> None:
        super().__init__(num_boundaries)
        self.cp = cp

    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        return timber_latch_capture(lateness_ps, self.cp)

    def max_borrowable_ps(self) -> int:
        return self.cp.checking_ps


class RazorPolicy(CapturePolicy):
    """Razor flip-flops: detect + architecture-level replay."""

    name = "razor"

    def __init__(self, num_boundaries: int, window_ps: int,
                 replay_penalty: int = 1) -> None:
        super().__init__(num_boundaries)
        if window_ps <= 0:
            raise ConfigurationError("razor window must be > 0")
        if replay_penalty < 1:
            raise ConfigurationError("replay penalty must be >= 1 cycle")
        self.window_ps = window_ps
        self._replay_penalty = replay_penalty

    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        return razor_capture(lateness_ps, self.window_ps)

    @property
    def replay_penalty_cycles(self) -> int:
        return self._replay_penalty


class CanaryPolicy(CapturePolicy):
    """Canary flip-flops: predict inside a standing guard band."""

    name = "canary"

    def __init__(self, num_boundaries: int, guard_ps: int) -> None:
        super().__init__(num_boundaries)
        if guard_ps <= 0:
            raise ConfigurationError("canary guard band must be > 0")
        self.guard_ps = guard_ps

    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        return canary_capture(lateness_ps, self.guard_ps)

    def clean_lateness_threshold_ps(self) -> int:
        # Arrivals inside the guard band predict (and flag) even though
        # they meet timing, so "boring" starts a guard band early.
        return -self.guard_ps


class LogicalMaskingPolicy(CapturePolicy):
    """Logical error masking (approximate-circuit style; paper ref. [13]).

    Redundant logic computes each covered output with a smaller delay
    whenever a critical path is exercised, so violations at *covered*
    boundaries are masked combinationally — immediately, with **zero
    time borrowed** and no sequential element at all.  Boundaries
    outside the coverage set behave like plain flip-flops.

    Coverage is deterministic per boundary (a cone either received its
    redundant cover at synthesis time or it did not): boundary ``i`` is
    covered iff its seeded hash falls below ``coverage``.
    """

    name = "logical"

    def __init__(self, num_boundaries: int, coverage: float,
                 seed: int = 0) -> None:
        super().__init__(num_boundaries)
        if not 0 <= coverage <= 1:
            raise ConfigurationError("coverage must be in [0, 1]")
        self.coverage = coverage
        from repro.variability.base import stable_hash

        threshold = int(coverage * 2**32)
        self.covered = frozenset(
            index for index in range(num_boundaries)
            if stable_hash(seed, "logical-cover", index) < threshold
        )

    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        if lateness_ps <= 0:
            return plain_ff_capture(lateness_ps)
        if boundary in self.covered:
            # Combinationally masked: correct output was already there.
            return CaptureOutcome(correct_state=True, masked=True)
        return plain_ff_capture(lateness_ps)


class ClockStallPolicy(CapturePolicy):
    """Clock-stall masking: freeze the next edge after a detection.

    ``consolidation_fits`` encodes whether error consolidation across
    all flip-flops completes within one cycle at this clock — the
    assumption the paper challenges for high-performance designs.  Each
    successful stall costs one penalty cycle.
    """

    name = "clock-stall"

    def __init__(self, num_boundaries: int, window_ps: int,
                 consolidation_fits: bool = True) -> None:
        super().__init__(num_boundaries)
        if window_ps <= 0:
            raise ConfigurationError("stall window must be > 0")
        self.window_ps = window_ps
        self.consolidation_fits = consolidation_fits

    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        return clock_stall_capture(lateness_ps, self.window_ps,
                                   self.consolidation_fits)

    @property
    def replay_penalty_cycles(self) -> int:
        return 1  # one stalled cycle per masked error


class SoftEdgePolicy(CapturePolicy):
    """Soft-edge flip-flops: fixed silent window, no observability."""

    name = "soft-edge"

    def __init__(self, num_boundaries: int, window_ps: int) -> None:
        super().__init__(num_boundaries)
        if window_ps <= 0:
            raise ConfigurationError("soft-edge window must be > 0")
        self.window_ps = window_ps

    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        return soft_edge_capture(lateness_ps, self.window_ps)

    def max_borrowable_ps(self) -> int:
        return self.window_ps


class DcfPolicy(CapturePolicy):
    """Delay-compensation flip-flops: one fixed resample, no relay."""

    name = "dcf"

    def __init__(self, num_boundaries: int, detect_window_ps: int,
                 resample_delay_ps: int) -> None:
        super().__init__(num_boundaries)
        self.detect_window_ps = detect_window_ps
        self.resample_delay_ps = resample_delay_ps

    def capture(self, boundary: int, lateness_ps: int) -> CaptureOutcome:
        return dcf_capture(lateness_ps, self.detect_window_ps,
                           self.resample_delay_ps)

    def max_borrowable_ps(self) -> int:
        return self.resample_delay_ps
