"""Fault-lane batched window evaluation for fault campaigns.

Every fault of a campaign is a small perturbation of one shared
fault-free background, so a whole chunk of faults — a
:class:`~repro.campaign.faults.FaultBatch` of columns — is evaluated as
**one numpy batch with a lane axis**: per-lane ``(lanes, window_cycles,
columns)`` disturbance deltas, built with array operations over the
batch's columns, ride on top of the shared background rows, and a
vectorized borrow/select/relay state machine — the array form of the
simulators' ``_simulate_cycle`` — advances every lane per cycle step.

Each lane starts at its fault's injection cycle with **idle** carried
state (zero borrow, zero relay selects).  That is exact, not an
approximation: carried state only forms after a late capture, and the
campaign evaluator checks once, at construction, that the background
has no positive idle-state lateness (:meth:`PipelineLaneMachine.
idle_lateness_ps`).  By induction from the idle cycle 0, a run with no
fault active is idle entering every cycle, so the state a fault finds
at its injection cycle is empty — there is no state to snapshot.

Inside the batch, every semantic counter increment the scalar state
machine would have made within the fault's window is reproduced
exactly (bulk ``inc`` per outcome class, per-event relay depth
observations), so the counters sum to the classified events.
"""

from __future__ import annotations

import typing

import numpy as np

from repro import obs
from repro.campaign.outcomes import (
    BENIGN,
    CLASS_CODE,
    ESCAPED,
    FALSE_POSITIVE,
    MASKED_ED,
    MASKED_TB,
    RELAYED,
)
from repro.errors import ConfigurationError
from repro.kernels.graph import CompiledTopology
from repro.kernels.pipeline import CaptureParams, capture_block

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.faults import FaultBatch

#: :func:`repro.campaign.outcomes.classify_flags`'s precedence ladder,
#: as class codes (indices into ``OUTCOME_CLASSES``) that ``np.select``
#: resolves each lane to.
_LADDER_CODES = [CLASS_CODE[name] for name in (
    ESCAPED, RELAYED, MASKED_ED, MASKED_TB, FALSE_POSITIVE, BENIGN)]

#: Sentinel for "no evaluated arrival" lateness cells; large enough to
#: never win a max against a real lateness, small enough that adding a
#: borrow offset cannot overflow int64.
_BIG_NEG = -(2 ** 60)

# Lane-path internals (``repro_kernel_`` namespace: zero on scalar
# runs, excluded from cross-mode byte-identity checks).
_OBS_LANES = obs.REGISTRY.counter(
    "repro_kernel_fault_lanes_total",
    "Campaign fault lanes evaluated by the lane machine",
    labelnames=("kernel",))
_OBS_GROUP = obs.REGISTRY.histogram(
    "repro_kernel_lane_group_faults",
    "Fault lanes evaluated together per lane-machine call",
    labelnames=("kernel",),
    buckets=(1, 2, 4, 8, 16, 32, 64))

# Semantic simulator counters, re-obtained from the registry (family
# registration is idempotent) so the lane machines can reproduce the
# exact increments the scalar state machine would have made.
_PIPE_OUTCOMES = obs.REGISTRY.counter(
    "repro_pipeline_outcomes_total",
    "Non-clean pipeline capture outcomes",
    labelnames=("outcome",))
_PIPE_MASKED = _PIPE_OUTCOMES.labels(outcome="masked")
_PIPE_MASKED_FLAGGED = _PIPE_OUTCOMES.labels(outcome="masked_flagged")
_PIPE_DETECTED = _PIPE_OUTCOMES.labels(outcome="detected")
_PIPE_PREDICTED = _PIPE_OUTCOMES.labels(outcome="predicted")
_PIPE_FAILED = _PIPE_OUTCOMES.labels(outcome="failed")
_GRAPH_MASKED = obs.REGISTRY.counter(
    "repro_graph_masked_total",
    "Masked graph captures by checking-period interval class",
    labelnames=("interval",))
_GRAPH_MASKED_TB = _GRAPH_MASKED.labels(interval="tb")
_GRAPH_MASKED_ED = _GRAPH_MASKED.labels(interval="ed")
_GRAPH_RELAYED = obs.REGISTRY.counter(
    "repro_graph_relayed_total",
    "Masked captures whose >=2-interval borrow proves an upstream "
    "relay increment").labels()
_GRAPH_ESCAPED = obs.REGISTRY.counter(
    "repro_graph_escaped_total",
    "Failed (unmasked) graph captures",
    labelnames=("protected",))
_GRAPH_ESCAPED_PROT = _GRAPH_ESCAPED.labels(protected="yes")
_GRAPH_ESCAPED_UNPROT = _GRAPH_ESCAPED.labels(protected="no")
_GRAPH_RELAY_DEPTH = obs.REGISTRY.histogram(
    "repro_graph_relay_depth_intervals",
    "Borrowed intervals per masked capture (select-chain depth)",
    buckets=(1, 2, 3, 4, 6, 8)).labels()


def _lane_window(batch: "FaultBatch", relay_horizon: int,
                 num_rows: int) -> "tuple[np.ndarray, np.ndarray]":
    """``(L, W)`` absolute cycle per lane step and ``(L, W)`` mask of
    the steps inside each lane's own window.

    A lane's window runs from its injection cycle through its last
    fault cycle plus ``relay_horizon``, clipped to the background.
    Dead steps past a lane's window read a valid (clipped) row whose
    values are masked out of every aggregate.
    """
    steps = batch.window_steps(relay_horizon, num_rows)
    offsets = np.arange(int(steps.max()), dtype=np.int64)[None, :]
    cycles = np.minimum(batch.cycle[:, None] + offsets, num_rows - 1)
    return cycles, offsets < steps[:, None]


def _lane_deltas(batch: "FaultBatch", site_cols: "np.ndarray",
                 width: int, num_cols: int) -> "np.ndarray":
    """``(L, W, C)`` extra-delay deltas: each lane's magnitude on the
    columns of the sites it perturbs, for its fault-active steps, zero
    elsewhere.  ``site_cols`` maps site index to column (``-1``: the
    site has no column, so it contributes no delta)."""
    first, stop = batch.affected_sites()
    site_index = np.arange(len(site_cols), dtype=np.int64)[None, :]
    hit_sites = (site_index >= first[:, None]) & (site_index < stop[:, None])
    has_col = site_cols >= 0
    hit = np.zeros((len(batch), num_cols), dtype=bool)
    hit[:, site_cols[has_col]] = hit_sites[:, has_col]
    active = (np.arange(width, dtype=np.int64)[None, :]
              < batch.duration_cycles[:, None])
    return np.where(active[:, :, None] & hit[:, None, :],
                    batch.magnitude_ps[:, None, None], 0)


def _collect(event: "np.ndarray", lateness: "np.ndarray",
             masked: "np.ndarray", detected: "np.ndarray",
             predicted: "np.ndarray", flagged: "np.ndarray",
             failed: "np.ndarray", intervals: "np.ndarray",
             ) -> "tuple[np.ndarray, ...]":
    """Fold the per-capture arrays into per-lane outcome columns.

    Returns ``(classification, events, worst_lateness_ps,
    max_borrowed_intervals)``, each of shape ``(L,)``;
    ``classification`` indexes :data:`OUTCOME_CLASSES`.  ``event`` must
    already be masked to live steps; aggregation is order-free, exactly
    like ``outcome_from_events`` over the observer stream.
    """
    axes = (1, 2)
    events = event.sum(axes)
    worst = np.where(event, lateness, _BIG_NEG).max(axes)
    worst = np.where(events > 0, worst, 0)
    max_intervals = np.where(event, intervals, 0).max(axes)
    any_failed = (failed & event).any(axes)
    any_relayed = (masked & (intervals >= 2) & event).any(axes)
    any_masked_ed = (((masked & flagged) | detected) & event).any(axes)
    any_masked = (masked & event).any(axes)
    any_warned = ((predicted | flagged) & event).any(axes)
    # classify_flags, vectorized: one np.select down the same severity
    # ladder instead of a python call per lane.
    classification = np.select(
        [any_failed, any_relayed, any_masked_ed, any_masked, any_warned],
        _LADDER_CODES[:-1], default=_LADDER_CODES[-1])
    return classification, events, worst, max_intervals


class _LaneMachineBase:
    """Shared lane bookkeeping for both targets."""

    kernel: str = "abstract"
    #: Site name -> state column, set by each machine.
    _col: dict[str, int]

    def site_columns(self, sites: "typing.Sequence[str]") -> "np.ndarray":
        """Column of each site, ``-1`` for a site the machine has no
        column for (its faults add no delta)."""
        return np.array([self._col.get(name, -1) for name in sites],
                        dtype=np.int64)

    def _note_lanes(self, count: int) -> None:
        if obs.REGISTRY.enabled:
            _OBS_LANES.labels(kernel=self.kernel).inc(count)
            _OBS_GROUP.labels(kernel=self.kernel).observe(count)


class PipelineLaneMachine(_LaneMachineBase):
    """Vectorized borrow/select relay machine for the linear pipeline.

    The lane-axis form of ``PipelineSimulation._simulate_cycle``:
    boundary ``i`` launches into ``i+1`` (circularly) with the time it
    borrowed, and the TIMBER relay hands ``select_out`` one boundary
    downstream per cycle — both are a roll by one along the stage axis,
    done as a gather through ``_upstream``.
    """

    kernel = "pipeline"

    def __init__(self, params: CaptureParams, stage_names:
                 "typing.Sequence[str]", period_ps: int,
                 relay_horizon: int) -> None:
        self.params = params
        self.stage_names = list(stage_names)
        self._col = {name: index
                     for index, name in enumerate(stage_names)}
        self.num_cols = len(self.stage_names)
        self.period_ps = period_ps
        self.relay_horizon = relay_horizon
        #: Column ``i`` reads column ``i - 1`` (circularly).
        self._upstream = np.roll(np.arange(self.num_cols), 1)

    def idle_lateness_ps(self, rows: "np.ndarray") -> int:
        """Largest idle-state lateness anywhere in the background."""
        return int(rows.max()) - self.period_ps

    def evaluate(self, batch: "FaultBatch",
                 rows: "typing.Any") -> "tuple[np.ndarray, ...]":
        """Advance every fault of ``batch`` through its window as one
        lane each.

        ``rows`` is the ``(cycles, stages)`` background delay array;
        each lane reads its own window of it, starting idle.  Returns
        the per-lane outcome columns of :func:`_collect`.
        """
        delays_all = rows
        cycles, live = _lane_window(batch, self.relay_horizon,
                                    delays_all.shape[0])
        count, width = cycles.shape
        delays = delays_all[cycles] + _lane_deltas(
            batch, self.site_columns(batch.sites), width, self.num_cols)
        shape = (count, width, self.num_cols)
        lateness = np.empty(shape, dtype=np.int64)
        masked = np.empty(shape, dtype=bool)
        detected = np.empty(shape, dtype=bool)
        predicted = np.empty(shape, dtype=bool)
        flagged = np.empty(shape, dtype=bool)
        failed = np.empty(shape, dtype=bool)
        intervals = np.empty(shape, dtype=np.int64)
        borrow = np.zeros((count, self.num_cols), dtype=np.int64)
        select_in = np.zeros((count, self.num_cols), dtype=np.int64)
        upstream = self._upstream
        for w in range(width):
            late = borrow[:, upstream] + delays[:, w, :] - self.period_ps
            caps = capture_block(self.params, late, select_in)
            lateness[:, w] = late
            masked[:, w] = caps.masked
            detected[:, w] = caps.detected
            predicted[:, w] = caps.predicted
            flagged[:, w] = caps.flagged
            failed[:, w] = caps.failed
            intervals[:, w] = caps.borrowed_intervals
            borrow = caps.borrowed_ps
            if self.params.kind == "timber-ff":
                # select_out relays to the next boundary for the next
                # cycle (borrowed intervals on a mask, else zero).
                select_in = caps.borrowed_intervals[:, upstream]
        event = ((masked | detected | predicted | flagged | failed)
                 & live[:, :, None])
        if obs.REGISTRY.enabled:
            self._apply_counters(event, masked, detected, predicted,
                                 flagged, failed)
            self._note_lanes(count)
        return _collect(event, lateness, masked, detected, predicted,
                        flagged, failed, intervals)

    @staticmethod
    def _apply_counters(event, masked, detected, predicted, flagged,
                        failed) -> None:
        """Reproduce ``_account``'s per-capture increments in bulk.

        Only the lane's live window is accounted, class by class with
        ``_account``'s exact precedence (failed before masked, masked
        before detected/predicted), so the four classes sum to the
        lane's events.
        """
        _PIPE_FAILED.inc(int((failed & event).sum()))
        live_masked = masked & ~failed & event
        _PIPE_MASKED.inc(int(live_masked.sum()))
        _PIPE_MASKED_FLAGGED.inc(int((live_masked & flagged).sum()))
        _PIPE_DETECTED.inc(int((detected & ~failed & ~masked
                                & event).sum()))
        _PIPE_PREDICTED.inc(int((predicted & ~failed & ~masked
                                 & ~detected & event).sum()))


class GraphLaneMachine(_LaneMachineBase):
    """Vectorized arrival/capture/relay machine for the whole graph.

    The lane-axis form of ``GraphPipelineSimulation._simulate_cycle``:
    per-edge evaluation gates on carried launch offsets or
    sensitization, per-destination lateness is a segment max, protected
    endpoints capture with the scheme (relay select = max over relay
    sources), the rest capture plain.
    """

    kernel = "graph"

    def __init__(self, params: CaptureParams, topology: CompiledTopology,
                 dst_names: "typing.Sequence[str]",
                 period_ps: int, relay_horizon: int) -> None:
        self.params = params
        self.topology = topology
        # Faults on non-candidate destinations never get evaluated (the
        # scalar loop adds the extra only when an in-edge fired), so
        # those sites simply have no column.
        self._col = {name: index
                     for index, name in enumerate(dst_names)}
        self.num_cols = topology.num_dsts
        self.period_ps = period_ps
        self.relay_horizon = relay_horizon
        self._plain = CaptureParams(kind="plain")

    def idle_lateness_ps(self, rows: "typing.Any") -> int:
        """Largest idle-state lateness of any sensitized edge."""
        sens, arrival = rows
        if not sens.any():
            return -self.period_ps
        return int(arrival[sens].max()) - self.period_ps

    def evaluate(self, batch: "FaultBatch",
                 rows: "typing.Any") -> "tuple[np.ndarray, ...]":
        """Advance every fault of ``batch`` through its window as one
        lane each.

        ``rows`` is the background's ``(sens, arrival)`` pair; each
        lane reads its own window of background rows, starting idle.
        Returns the per-lane outcome columns of :func:`_collect`.
        """
        topo = self.topology
        sens_all, arrival_all = rows
        cycles, live = _lane_window(batch, self.relay_horizon,
                                    sens_all.shape[0])
        count, width = cycles.shape
        sens = sens_all[cycles]
        arrival = arrival_all[cycles]
        extra = _lane_deltas(batch, self.site_columns(batch.sites), width,
                             self.num_cols)
        num_dsts = self.num_cols
        prot = topo.protected[None, :]
        shape = (count, width, num_dsts)
        lateness = np.empty(shape, dtype=np.int64)
        masked = np.empty(shape, dtype=bool)
        flagged = np.empty(shape, dtype=bool)
        failed = np.empty(shape, dtype=bool)
        failed_prot = np.empty(shape, dtype=bool)
        intervals = np.empty(shape, dtype=np.int64)
        never = np.zeros(shape, dtype=bool)
        # State columns are candidate destinations plus one sentinel
        # column (always zero) standing in for every other FF name.
        borrow = np.zeros((count, num_dsts + 1), dtype=np.int64)
        select = np.zeros((count, num_dsts + 1), dtype=np.int64)
        for w in range(width):
            offsets = borrow[:, topo.src_cols]
            evaluated = (offsets != 0) | sens[:, w, :]
            late_edge = np.where(evaluated,
                                 offsets + arrival[:, w, :]
                                 - self.period_ps,
                                 _BIG_NEG)
            evaluated_dst = topo.per_dst_any(evaluated)
            late = np.where(evaluated_dst,
                            topo.per_dst_max(late_edge) + extra[:, w, :],
                            _BIG_NEG)
            select_in = topo.relay_select_in(select)
            caps = capture_block(self.params, late, select_in)
            caps_plain = capture_block(self._plain, late)
            step_masked = caps.masked & prot
            step_failed_prot = caps.failed & prot
            step_failed = step_failed_prot | (caps_plain.failed & ~prot)
            lateness[:, w] = late
            masked[:, w] = step_masked
            flagged[:, w] = caps.flagged & prot
            failed[:, w] = step_failed
            failed_prot[:, w] = step_failed_prot
            step_intervals = np.where(step_masked,
                                      caps.borrowed_intervals, 0)
            intervals[:, w] = step_intervals
            borrow[:, :num_dsts] = np.where(step_masked,
                                            caps.borrowed_ps, 0)
            select[:, :num_dsts] = step_intervals
        # Every violating capture is an event (the graph observer has
        # no clean filter to apply — it only ever sees violations).
        event = (masked | failed) & live[:, :, None]
        if obs.REGISTRY.enabled:
            self._apply_counters(event, masked, flagged, failed_prot,
                                 failed, intervals)
            self._note_lanes(count)
        return _collect(event, lateness, masked, never, never, flagged,
                        failed, intervals)

    @staticmethod
    def _apply_counters(event, masked, flagged, failed_prot, failed,
                        intervals) -> None:
        """Reproduce ``_simulate_cycle``'s semantic increments in bulk.

        Counter totals are order-free sums; the relay-depth histogram
        is observed per masked event exactly as the scalar loop does
        (events are few — the loop is over violations, not cycles).
        """
        live_masked = masked & event
        _GRAPH_MASKED_ED.inc(int((live_masked & flagged).sum()))
        _GRAPH_MASKED_TB.inc(int((live_masked & ~flagged).sum()))
        _GRAPH_RELAYED.inc(int((live_masked & (intervals >= 2)).sum()))
        _GRAPH_ESCAPED_PROT.inc(int((failed_prot & event).sum()))
        _GRAPH_ESCAPED_UNPROT.inc(int((failed & ~failed_prot
                                       & event).sum()))
        for depth in intervals[live_masked & (intervals > 0)].tolist():
            _GRAPH_RELAY_DEPTH.observe(depth)


def pipeline_machine(sim: "typing.Any",
                     relay_horizon: int) -> PipelineLaneMachine:
    """The lane machine for a campaign ``PipelineSimulation`` whose
    faults are attributed ``relay_horizon`` cycles past their last.

    Raises :class:`~repro.errors.ConfigurationError` for dynamics the
    batch does not model: an attached controller (period feedback),
    fail-fast semantics, or a policy type without array semantics.
    """
    params = CaptureParams.for_policy(sim.policy)
    if sim.controller is not None or sim.fail_fast or params is None:
        raise ConfigurationError(
            f"no lane machine for pipeline policy {sim.policy.name!r} "
            f"with this simulator configuration")
    return PipelineLaneMachine(params,
                               [stage.name for stage in sim.stages],
                               sim.period_ps, relay_horizon)


def graph_machine(sim: "typing.Any",
                  relay_horizon: int) -> GraphLaneMachine:
    """The lane machine for a campaign ``GraphPipelineSimulation``
    whose faults are attributed ``relay_horizon`` cycles past their
    last.

    Raises :class:`~repro.errors.ConfigurationError` when a controller
    or workload trace is attached (feedback the batch does not model)
    or when the graph has no candidate endpoint to perturb.
    """
    if sim.controller is not None or sim.trace is not None or not sim._rows:
        raise ConfigurationError(
            "no lane machine for a graph simulation with a controller, "
            "a workload trace or no candidate endpoints")
    params = (CaptureParams(kind="plain") if sim.scheme == "plain"
              else CaptureParams.from_checking_period(sim.scheme, sim.cp))
    dst_names = [ff for ff, _ in sim._rows]
    return GraphLaneMachine(params, CompiledTopology.from_sim(sim),
                            dst_names, sim.graph.period_ps, relay_horizon)
