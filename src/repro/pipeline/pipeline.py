"""Cycle-accurate linear-pipeline timing simulation.

The simulation advances cycle by cycle.  On cycle ``n`` the data launched
at boundary ``i-1`` (possibly delayed by time borrowed there) traverses
stage ``i`` and is captured at boundary ``i``:

    ``lateness = borrow[i-1] + stage_delay(n) - period(n)``

The capture policy decides the outcome (clean / masked / detected /
predicted / failed), time borrowed at ``i`` becomes next cycle's launch
offset, flags feed the central error controller, and the controller's
temporary frequency reduction feeds back into ``period(n)`` — the full
TIMBER control loop of the paper's Sec. 4.

Two executions of that loop exist.  The scalar reference walks every
cycle through :meth:`PipelineSimulation._simulate_cycle`.  The vector
path (default when numpy is available; disable with
``REPRO_SCALAR_KERNELS=1``) evaluates stage delays for whole blocks of
cycles through :class:`repro.kernels.pipeline.CompiledStages`, screens
each block for cycles that could capture anything but CLEAN, accounts
the clean runs in bulk, and replays only the interesting cycles through
the same scalar state machine — with the precomputed delays, so both
paths produce bit-identical results.
"""

from __future__ import annotations

import dataclasses

from repro import kernels, obs
from repro.core.masking import CaptureOutcome
from repro.errors import ConfigurationError, TimingViolationError
from repro.pipeline.controller import CentralErrorController
from repro.pipeline.hooks import CaptureObserver, FaultOverlayLike
from repro.pipeline.schemes import CapturePolicy
from repro.pipeline.stage import PipelineStage
from repro.variability.base import (
    ConstantVariation,
    VariabilityModel,
    supports_batch,
)

# Semantic outcome counters: incremented only in the shared scalar
# state machine, which both execution modes route every non-clean
# capture through — so scalar and vector runs agree bit-for-bit.
_OBS_OUTCOMES = obs.REGISTRY.counter(
    "repro_pipeline_outcomes_total",
    "Non-clean pipeline capture outcomes",
    labelnames=("outcome",))
_OBS_MASKED = _OBS_OUTCOMES.labels(outcome="masked")
_OBS_MASKED_FLAGGED = _OBS_OUTCOMES.labels(outcome="masked_flagged")
_OBS_DETECTED = _OBS_OUTCOMES.labels(outcome="detected")
_OBS_PREDICTED = _OBS_OUTCOMES.labels(outcome="predicted")
_OBS_FAILED = _OBS_OUTCOMES.labels(outcome="failed")


@dataclasses.dataclass
class PipelineResult:
    """Aggregated outcome of one pipeline simulation run."""

    scheme: str
    cycles: int
    period_ps: int
    clean: int = 0
    masked: int = 0
    masked_flagged: int = 0
    detected: int = 0
    predicted: int = 0
    failed: int = 0
    replay_cycles: int = 0
    slow_cycles: int = 0
    total_time_ps: int = 0
    max_borrow_ps: int = 0
    borrow_chain_max: int = 0

    @property
    def captures(self) -> int:
        return (self.clean + self.masked + self.detected + self.predicted
                + self.failed)

    @property
    def error_rate(self) -> float:
        """Violations (masked + detected + failed) per capture."""
        if self.captures == 0:
            return 0.0
        return (self.masked + self.detected + self.failed) / self.captures

    @property
    def nominal_time_ps(self) -> int:
        return self.cycles * self.period_ps

    @property
    def throughput_factor(self) -> float:
        """Achieved throughput relative to an error-free nominal run.

        1.0 means no cycles or time were lost to recovery or slowdown."""
        if self.total_time_ps == 0:
            return 1.0
        return self.nominal_time_ps / self.total_time_ps

    @property
    def ipc_loss_percent(self) -> float:
        return 100.0 * (1.0 - self.throughput_factor)


class PipelineSimulation:
    """A linear pipeline with one capture policy at every boundary."""

    def __init__(
        self,
        stages: list[PipelineStage],
        policy: CapturePolicy,
        *,
        period_ps: int,
        controller: CentralErrorController | None = None,
        variability: VariabilityModel | None = None,
        fail_fast: bool = False,
        faults: "FaultOverlayLike | None" = None,
        capture_observer: "CaptureObserver | None" = None,
    ) -> None:
        if not stages:
            raise ConfigurationError("need at least one stage")
        if policy.num_boundaries != len(stages):
            raise ConfigurationError(
                f"policy covers {policy.num_boundaries} boundaries but the "
                f"pipeline has {len(stages)} stages"
            )
        if period_ps <= 0:
            raise ConfigurationError("period must be > 0")
        self.stages = stages
        self.policy = policy
        self.period_ps = period_ps
        self.controller = controller
        self.variability = variability or ConstantVariation(1.0)
        self.fail_fast = fail_fast
        #: Optional fault overlay adding extra delay on selected
        #: (cycle, stage) pairs; keys are stage names.
        self.faults = faults
        #: Optional callback invoked for every non-clean capture as
        #: ``observer(cycle, boundary_index, outcome, lateness_ps)``.
        #: Clean captures never fire it, so the event stream is
        #: identical between the scalar and vector paths (bulk-skipped
        #: cycles are provably clean).
        self.capture_observer = capture_observer
        #: Launch offset (time borrowed) at each boundary, carried across
        #: cycles: boundary i's borrow delays the data it launches into
        #: stage i+1 next cycle.
        self._borrow = [0] * len(stages)
        self._compiled = None

    def run(self, num_cycles: int) -> PipelineResult:
        """Simulate cycles ``[0, num_cycles)`` and aggregate."""
        if num_cycles < 1:
            raise ConfigurationError("need at least one cycle")
        result = PipelineResult(
            scheme=self.policy.name, cycles=num_cycles,
            period_ps=self.period_ps,
        )
        with obs.trace_span("pipeline.run", scheme=self.policy.name,
                            cycles=num_cycles,
                            kernel=kernels.kernel_mode()):
            if kernels.vectorized_enabled() and self._vectorizable():
                self._run_vector(num_cycles, result)
            else:
                chain = 0
                for cycle in range(num_cycles):
                    chain = self._simulate_cycle(cycle, result, chain,
                                                 None)
        result.total_time_ps += result.replay_cycles * self.period_ps
        return result

    def background_rows(self, num_cycles: int):
        """Fault-free stage-delay rows for campaign lane evaluation.

        One vectorized pass over ``[0, num_cycles)`` (see
        :func:`repro.kernels.pipeline.background_rows`); the overlay is
        deliberately excluded — lanes add their own fault deltas.
        """
        from repro.kernels.pipeline import CompiledStages, background_rows

        if self._compiled is None:
            self._compiled = CompiledStages.for_stages(self.stages)
        return background_rows(self._compiled, self.variability,
                               num_cycles)

    def _vectorizable(self) -> bool:
        """Can this configuration run on the block kernel?

        The vector path precomputes a whole block of stage delays and
        accounts clean runs through the controller's slowdown windows,
        so it needs batch-capable variability and (when a controller is
        attached) the ``CentralErrorController`` window interface.
        Duck-typed feedback controllers — e.g. the adaptive voltage
        scaler, whose delay factor depends on flags raised earlier in
        the block — must take the scalar loop.
        """
        if not supports_batch(self.variability):
            return False
        return self.controller is None or (
            hasattr(self.controller, "slowdown_factor")
            and hasattr(self.controller, "windows"))

    # -- shared per-cycle state machine ---------------------------------
    def _period_at(self, cycle: int) -> int:
        if self.controller is None:
            return self.period_ps
        return self.controller.period_at(cycle)

    def _simulate_cycle(
        self,
        cycle: int,
        result: PipelineResult,
        chain_length: int,
        delay_row,
    ) -> int:
        """One cycle of capture/borrow/relay bookkeeping.

        ``delay_row`` optionally supplies precomputed per-stage delays
        (from the vector kernel); ``None`` computes them per stage.
        Returns the updated borrow-chain length.
        """
        period = self._period_at(cycle)
        if period > self.period_ps:
            result.slow_cycles += 1
        outcomes: list[CaptureOutcome] = []
        new_borrow = [0] * len(self.stages)
        cycle_flagged = False
        cycle_masked = False
        for index, stage in enumerate(self.stages):
            upstream = (index - 1) % len(self.stages)
            delay = (int(delay_row[index]) if delay_row is not None
                     else stage.delay_ps(cycle, self.variability))
            if self.faults is not None:
                # The overlay rides on top of the base delay in both
                # execution modes: the vector kernel precomputes only
                # the fault-free rows and forces overlay-active cycles
                # onto this scalar replay, so adding the extra here
                # keeps the two paths bit-identical.
                delay += self.faults.extra_delay_ps(cycle, stage.name)
            lateness = self._borrow[upstream] + delay - period
            outcome = self.policy.capture(index, lateness)
            outcomes.append(outcome)
            self._account(result, outcome)
            if self.capture_observer is not None and (
                    outcome.masked or outcome.detected
                    or outcome.predicted or outcome.flagged
                    or outcome.failed):
                self.capture_observer(cycle, index, outcome, lateness)
            if outcome.masked:
                cycle_masked = True
                new_borrow[index] = outcome.borrowed_ps
                result.max_borrow_ps = max(result.max_borrow_ps,
                                           outcome.borrowed_ps)
            if outcome.flagged:
                cycle_flagged = True
            if outcome.failed and self.fail_fast:
                raise TimingViolationError(
                    f"unmaskable violation at boundary {index} "
                    f"(stage {stage.name!r}) on cycle {cycle}: "
                    f"lateness {lateness} ps"
                )
            if outcome.detected:
                result.replay_cycles += self.policy.replay_penalty_cycles
        chain_length = chain_length + 1 if cycle_masked else 0
        result.borrow_chain_max = max(result.borrow_chain_max,
                                      chain_length)
        if cycle_flagged and self.controller is not None:
            self.controller.notify_flag(cycle)
        self.policy.end_of_cycle(outcomes)
        self._borrow = new_borrow
        result.total_time_ps += period
        return chain_length

    # -- vector main loop ------------------------------------------------
    def _idle(self) -> bool:
        """No carried state: every lateness equals delay - period."""
        return not any(self._borrow) and self.policy.relay_idle()

    def _run_vector(self, num_cycles: int,
                    result: PipelineResult) -> None:
        import numpy as np

        from repro.kernels.pipeline import CompiledStages, screen_block
        from repro.kernels.schedule import (
            BlockSizer,
            block_spans,
            slow_cycles_between,
        )

        if self._compiled is None:
            self._compiled = CompiledStages.for_stages(self.stages)
        threshold = self.policy.clean_lateness_threshold_ps()
        num_stages = len(self.stages)
        slow_period = (
            int(round(self.period_ps * self.controller.slowdown_factor))
            if self.controller is not None else self.period_ps)
        sizer = BlockSizer()
        chain = 0
        for pos, count in block_spans(num_cycles, sizer):
            cycles = np.arange(pos, pos + count, dtype=np.int64)
            delays = self._compiled.delay_block(cycles, self.variability)
            # Screen against the *nominal* period: slowdown windows only
            # lengthen the period, so this marks a superset of the
            # cycles that could capture anything but CLEAN while idle.
            # Fault-bearing cycles are forced interesting — the screen
            # sees only the fault-free delays.
            forced = (self.faults.active_mask(cycles)
                      if self.faults is not None else None)
            interesting = screen_block(delays, self.period_ps, threshold,
                                       forced)
            k = 0
            while k < count:
                if self._idle():
                    ahead = np.flatnonzero(interesting[k:])
                    nxt = k + int(ahead[0]) if ahead.size else count
                    if nxt > k:
                        clean = nxt - k
                        slow = (slow_cycles_between(
                                    self.controller.windows,
                                    pos + k, pos + nxt)
                                if self.controller is not None else 0)
                        result.slow_cycles += slow
                        result.clean += clean * num_stages
                        result.total_time_ps += (
                            (clean - slow) * self.period_ps
                            + slow * slow_period)
                        chain = 0
                        k = nxt
                        if k >= count:
                            break
                chain = self._simulate_cycle(pos + k, result, chain,
                                             delays[k])
                k += 1
            sizer.update(float(interesting.mean()))

    @staticmethod
    def _account(result: PipelineResult, outcome: CaptureOutcome) -> None:
        if outcome.failed:
            result.failed += 1
            _OBS_FAILED.inc()
        elif outcome.masked:
            result.masked += 1
            _OBS_MASKED.inc()
            if outcome.flagged:
                result.masked_flagged += 1
                _OBS_MASKED_FLAGGED.inc()
        elif outcome.detected:
            result.detected += 1
            _OBS_DETECTED.inc()
        elif outcome.predicted:
            result.predicted += 1
            _OBS_PREDICTED.inc()
        else:
            result.clean += 1
