"""Campaign execution: chunk evaluation plus exec-layer fan-out.

A campaign slices its seeded fault population into chunks, wraps every
chunk as a :class:`~repro.exec.runner.SweepTask` (so it flows through
the cache / retry / checkpoint machinery like any other sweep), and
each worker draws its slice of the population deterministically as one
:class:`~repro.campaign.faults.FaultBatch` of columns and classifies
it with one ``evaluate_chunk`` call — the only entry point either
evaluator has (a single fault is a one-element chunk).  The chunk
comes back as :class:`~repro.campaign.outcomes.OutcomeColumns`, which
the result cache stores as one compact entry and the coverage report
counts directly; per-fault :class:`FaultOutcome` records are built only
when a caller asks for :attr:`CampaignResult.outcomes`.

Three targets are supported:

* ``pipeline`` — :class:`~repro.pipeline.pipeline.PipelineSimulation`
  with any registered architecture (``plain``, ``timber-ff``,
  ``razor``, ``canary``, ...);
* ``graph`` — :class:`~repro.pipeline.graph_sim.
  GraphPipelineSimulation` on a synthetic near-critical chain
  (``plain`` / ``timber-ff`` / ``timber-latch``);
* ``netlist`` — the event-driven simulator with behavioural elements
  (:class:`~repro.sequential.timber_ff.TimberFlipFlop` vs
  :class:`~repro.sequential.flipflop.DFlipFlop`) and real
  :class:`~repro.sim.faults.FaultInjector` pulses (``seu`` / ``delay``
  kinds only — droop and correlated slowdowns are cycle-level notions).

Every fault runs with variability pinned to 1.0, so the only
violations (canary's intentional guard-band predictions aside) are the
injected ones — attribution is exact, and the per-fault event stream
is bit-identical between the scalar and vector kernel paths because
injected cycles always replay through the scalar state machine (see
:mod:`repro.pipeline.hooks`).

Cycle-level targets evaluate faults on the **lane machine**
(:mod:`repro.kernels.fault_batch`): one evaluator per configuration
and worker process holds the fault-free background rows (warm-cache
kind ``"trajectory"``), and a whole chunk of faults advances as one
numpy batch, each lane over
only its own window ``[spec.cycle, window_end]`` starting from idle
carried state.  The idle start is proven once per evaluator: campaign
backgrounds must have no positive idle-state lateness, so no state
ever forms before a fault lands.  The full-run evaluators are preserved
as the single executable spec (``FULL_RUN_TARGETS``), pinned against
the lane machine by hypothesis properties and golden campaign
captures; they serve the netlist target and scalar-kernel runs
(``REPRO_SCALAR_KERNELS=1``).
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro import obs
from repro.baselines.architectures import architecture_by_key
from repro.campaign.faults import (
    FAULT_KINDS,
    FaultBatch,
    FaultOverlay,
    FaultSpec,
    iter_population,
    population_batch,
)
from repro.campaign.outcomes import (
    CaptureEvent,
    FaultOutcome,
    OutcomeColumns,
    outcome_from_events,
)
from repro.core.checking_period import CheckingPeriod
from repro.errors import ConfigurationError
from repro.exec.runner import (
    SweepRunner,
    SweepTask,
    TaskPayload,
    derive_seed,
    task_key,
)
from repro.variability.base import ConstantVariation

#: Dotted task-function name (module-level, worker-importable).
CAMPAIGN_TASK = "repro.campaign.engine:campaign_chunk_task"

_TARGETS = ("pipeline", "graph", "netlist")

#: Kinds with an event-driven (pulse/transition) realisation.
_NETLIST_KINDS = ("seu", "delay")

# The outcome counter is semantic: classes are a pure function of the
# seeded population and the simulators.
_OBS_OUTCOMES = obs.REGISTRY.counter(
    "repro_campaign_outcomes_total",
    "Classified fault outcomes",
    labelnames=("target", "scheme", "classification"))


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines one campaign (JSON-able, seed included).

    ``num_cycles`` bounds the cycle range faults land in; every fault
    simulates only up to its own window end, so the per-fault cost is
    independent of the population spread.
    """

    target: str = "pipeline"
    scheme: str = "timber-ff"
    num_faults: int = 1000
    num_cycles: int = 2000
    period_ps: int = 1000
    checking_percent: float = 30.0
    num_stages: int = 5
    sensitization_prob: float = 0.4
    seed: int = 2010
    faults_per_task: int = 25
    kinds: tuple[str, ...] = FAULT_KINDS
    magnitude_range_ps: tuple[int, int] = (20, 220)
    relay_horizon: int = 4

    def __post_init__(self) -> None:
        if self.target not in _TARGETS:
            raise ConfigurationError(
                f"target must be one of {_TARGETS}, got {self.target!r}")
        if self.num_faults < 1:
            raise ConfigurationError("need at least one fault")
        if self.faults_per_task < 1:
            raise ConfigurationError("faults_per_task must be >= 1")
        if self.num_stages < 2:
            raise ConfigurationError("need at least two stages")
        if self.relay_horizon < 1:
            raise ConfigurationError("relay_horizon must be >= 1")
        if self.target == "pipeline":
            try:
                architecture_by_key(self.scheme)
            except KeyError as error:
                raise ConfigurationError(str(error)) from error
        elif self.target == "graph":
            if self.scheme not in ("plain", "timber-ff", "timber-latch"):
                raise ConfigurationError(
                    f"graph campaigns support plain/timber-ff/"
                    f"timber-latch, got {self.scheme!r}")
        elif self.scheme not in ("plain", "timber-ff"):
            raise ConfigurationError(
                f"netlist campaigns support plain/timber-ff, "
                f"got {self.scheme!r}")

    # -- derived ---------------------------------------------------------
    @property
    def checking_period(self) -> CheckingPeriod:
        return CheckingPeriod.with_tb(self.period_ps,
                                      self.checking_percent)

    @property
    def margin_ps(self) -> int:
        """The recovered margin ``t = c/k`` the report is keyed to."""
        return self.checking_period.interval_ps

    def sites(self) -> list[str]:
        """Ordered injection sites of this campaign's target."""
        if self.target == "pipeline":
            return [f"cs{i}" for i in range(self.num_stages)]
        if self.target == "graph":
            # g0 only launches; faults land on capturing flip-flops.
            return [f"g{i}" for i in range(1, self.num_stages + 1)]
        return ["d"]

    def effective_kinds(self) -> tuple[str, ...]:
        if self.target != "netlist":
            return tuple(self.kinds)
        allowed = tuple(k for k in self.kinds if k in _NETLIST_KINDS)
        return allowed or _NETLIST_KINDS

    def iter_population(self, start: int = 0,
                        stop: int | None = None
                        ) -> typing.Iterator[FaultSpec]:
        """Stream faults ``[start, stop)`` — counter-based, so any
        slice is byte-identical to the same range of the full
        population, and workers never materialize more than their own
        chunk."""
        stop = self.num_faults if stop is None else stop
        if stop > self.num_faults:
            raise ConfigurationError(
                f"stop {stop} past population end {self.num_faults}")
        return iter_population(
            num_faults=stop,
            sites=self.sites(),
            num_cycles=self.num_cycles,
            seed=self.seed,
            kinds=self.effective_kinds(),
            magnitude_range_ps=self.magnitude_range_ps,
            start=start,
        )

    def population(self) -> list[FaultSpec]:
        return list(self.iter_population())

    def population_batch(self, start: int = 0,
                         stop: int | None = None) -> FaultBatch:
        """Faults ``[start, stop)`` as one :class:`FaultBatch` — the
        column twin of :meth:`iter_population`, and what chunk tasks
        evaluate."""
        stop = self.num_faults if stop is None else stop
        if stop > self.num_faults:
            raise ConfigurationError(
                f"stop {stop} past population end {self.num_faults}")
        return population_batch(
            num_faults=stop,
            sites=self.sites(),
            num_cycles=self.num_cycles,
            seed=self.seed,
            kinds=self.effective_kinds(),
            magnitude_range_ps=self.magnitude_range_ps,
            start=start,
        )

    def background_params(self) -> dict:
        """Everything the fault-free background rows depend on.

        Part of the content-hash key of the lane evaluator (warm-cache
        kind ``"trajectory"``), so a changed background can never alias
        stale rows.  Fault and chunking parameters are deliberately
        absent: the background is fault-free and shared by the whole
        population.
        """
        return {
            "target": self.target,
            "scheme": self.scheme,
            "num_cycles": self.num_cycles,
            "period_ps": self.period_ps,
            "checking_percent": self.checking_percent,
            "num_stages": self.num_stages,
            "sensitization_prob": self.sensitization_prob,
            "seed": self.seed,
        }

    # -- (de)serialisation ----------------------------------------------
    def to_params(self) -> dict:
        params = dataclasses.asdict(self)
        params["kinds"] = list(self.kinds)
        params["magnitude_range_ps"] = list(self.magnitude_range_ps)
        return params

    @classmethod
    def from_params(cls, params: typing.Mapping) -> "CampaignConfig":
        fields = dict(params)
        fields["kinds"] = tuple(fields["kinds"])
        fields["magnitude_range_ps"] = tuple(
            fields["magnitude_range_ps"])
        return cls(**fields)


# ---------------------------------------------------------------------------
# Per-fault simulation, one function per target
# ---------------------------------------------------------------------------

def _window_end(config: CampaignConfig, spec: FaultSpec) -> int:
    """Last cycle attributable to ``spec`` (relay effects included)."""
    return min(config.num_cycles - 1,
               spec.last_cycle + config.relay_horizon)


def _collecting_observer(
    config: CampaignConfig,
    spec: FaultSpec,
    events: list[CaptureEvent],
    site_names: list[str] | None,
) -> typing.Callable:
    """Observer recording events inside the fault's influence window."""
    end = _window_end(config, spec)

    def observe(cycle: int, site: typing.Any, outcome: typing.Any,
                lateness_ps: int) -> None:
        if not spec.cycle <= cycle <= end:
            return
        name = site_names[site] if site_names is not None else str(site)
        events.append(CaptureEvent(
            cycle=cycle, site=name, lateness_ps=lateness_ps,
            masked=outcome.masked, detected=outcome.detected,
            predicted=outcome.predicted, flagged=outcome.flagged,
            failed=outcome.failed,
            borrowed_intervals=outcome.borrowed_intervals,
        ))

    return observe


def _build_pipeline_sim(config: CampaignConfig, *,
                        faults: "FaultOverlay | None" = None,
                        capture_observer: typing.Callable | None = None):
    """A fresh linear-pipeline simulation for this campaign config."""
    from repro.pipeline.pipeline import PipelineSimulation
    from repro.pipeline.stage import PipelineStage

    stages = [
        PipelineStage(
            name=site,
            critical_delay_ps=int(config.period_ps * 0.95),
            typical_delay_ps=int(config.period_ps * 0.70),
            sensitization_prob=config.sensitization_prob,
            seed=config.seed + index,
        )
        for index, site in enumerate(config.sites())
    ]
    policy = architecture_by_key(config.scheme).build_policy(
        config.num_stages, config.period_ps, config.checking_percent)
    return PipelineSimulation(
        stages, policy,
        period_ps=config.period_ps,
        variability=ConstantVariation(1.0),
        faults=faults,
        capture_observer=capture_observer,
    )


def _build_graph_sim(config: CampaignConfig, *,
                     faults: "FaultOverlay | None" = None,
                     capture_observer: typing.Callable | None = None):
    """A fresh whole-graph simulation on the synthetic chain."""
    from repro.pipeline.graph_sim import GraphPipelineSimulation
    from repro.timing.graph import TimingGraph

    graph = TimingGraph("campaign-chain", config.period_ps)
    graph.add_ff("g0")
    for index in range(1, config.num_stages + 1):
        graph.add_ff(f"g{index}")
        graph.add_edge(f"g{index - 1}", f"g{index}",
                       int(config.period_ps * 0.9))
    return GraphPipelineSimulation(
        graph,
        scheme=config.scheme,
        percent_checking=config.checking_percent,
        sensitization_prob=config.sensitization_prob,
        variability=ConstantVariation(1.0),
        seed=config.seed,
        faults=faults,
        capture_observer=capture_observer,
    )


_SIM_BUILDERS = {
    "pipeline": _build_pipeline_sim,
    "graph": _build_graph_sim,
}


def full_run_pipeline_fault(config: CampaignConfig,
                            spec: FaultSpec) -> tuple[FaultOutcome, int]:
    """Full-run reference: fresh simulation from cycle 0 (spec)."""
    sites = config.sites()
    events: list[CaptureEvent] = []
    simulation = _build_pipeline_sim(
        config,
        faults=FaultOverlay([spec], sites),
        capture_observer=_collecting_observer(config, spec, events,
                                              sites),
    )
    result = simulation.run(_window_end(config, spec) + 1)
    return outcome_from_events(spec, events), result.captures


def full_run_graph_fault(config: CampaignConfig,
                         spec: FaultSpec) -> tuple[FaultOutcome, int]:
    """Full-run reference: fresh simulation from cycle 0 (spec)."""
    events: list[CaptureEvent] = []
    simulation = _build_graph_sim(
        config,
        faults=FaultOverlay([spec], config.sites()),
        capture_observer=_collecting_observer(config, spec, events,
                                              None),
    )
    result = simulation.run(_window_end(config, spec) + 1)
    return (outcome_from_events(spec, events),
            result.cycles * result.num_ffs)


def full_run_netlist_fault(config: CampaignConfig,
                           spec: FaultSpec) -> tuple[FaultOutcome, int]:
    from repro.circuit.logic import Logic
    from repro.sequential.flipflop import DFlipFlop
    from repro.sequential.timber_ff import TimberFlipFlop
    from repro.sim.clocks import ClockGenerator
    from repro.sim.engine import Simulator
    from repro.sim.faults import FaultInjector

    period = config.period_ps
    cp = config.checking_period
    end = _window_end(config, spec)
    sim = Simulator()
    ClockGenerator(sim, "clk", period)
    sim.set_initial("d", 0)
    if config.scheme == "timber-ff":
        element: typing.Any = TimberFlipFlop(
            sim, name="u1", d="d", clk="clk", q="q", err="err",
            interval_ps=cp.interval_ps, num_intervals=cp.num_intervals,
            num_tb_intervals=cp.num_tb,
        )
    else:
        element = DFlipFlop(sim, name="u1", d="d", clk="clk", q="q")

    # Functional stimulus: capture edge n (at n*period) samples the
    # alternating value n & 1, normally driven a quarter period early.
    # A delay fault postpones the affected cycles' arrivals past the
    # edge instead; an SEU rides a pulse straddling the target edge.
    lead = period // 4
    faulty_cycles = (set(range(spec.cycle, spec.cycle
                               + spec.duration_cycles))
                     if spec.kind == "delay" else set())
    for n in range(1, end + 2):
        arrival = (n * period + spec.magnitude_ps if n in faulty_cycles
                   else n * period - lead)
        sim.drive("d", n & 1, arrival, label=f"stim:{n}")
    injector = FaultInjector(sim)
    if spec.kind == "seu":
        edge = spec.cycle * period
        injector.inject_seu("d", at_ps=edge - spec.magnitude_ps // 2,
                            width_ps=spec.magnitude_ps)

    # Sample Q after the whole capture window (M1 + mux, falling-edge
    # error latch) has settled but before the next stimulus arrives.
    checks: dict[int, Logic] = {}

    def make_check(n: int) -> typing.Callable:
        def check(inner: Simulator) -> None:
            checks[n] = inner.value("q")
        return check

    for n in range(max(1, spec.cycle), end + 1):
        sim.at(n * period + period // 2 + 100, make_check(n),
               label=f"check:{n}")
    sim.run((end + 1) * period)

    events: list[CaptureEvent] = []
    for n in sorted(checks):
        if checks[n] is not Logic.from_value(n & 1):
            events.append(CaptureEvent(
                cycle=n, site=spec.site,
                lateness_ps=spec.magnitude_ps, failed=True))
    if config.scheme == "timber-ff":
        for masking in element.events:
            cycle = masking.cycle_edge_ps // period
            if spec.cycle <= cycle <= end:
                events.append(CaptureEvent(
                    cycle=cycle, site=spec.site,
                    lateness_ps=spec.magnitude_ps, masked=True,
                    flagged=masking.flagged,
                    borrowed_intervals=masking.borrowed_intervals,
                ))
    return outcome_from_events(spec, events), sim.events_processed


#: The preserved full-run evaluators — the executable spec the lane
#: machine is pinned against (hypothesis properties and golden campaign
#: captures compare the two streams byte-for-byte).
FULL_RUN_TARGETS = {
    "pipeline": full_run_pipeline_fault,
    "graph": full_run_graph_fault,
    "netlist": full_run_netlist_fault,
}


def _count_outcomes(config: CampaignConfig,
                    columns: OutcomeColumns) -> None:
    """Add a classified chunk to ``repro_campaign_outcomes_total``.

    Both evaluators call this once per chunk, so the counter is
    identical on the lane and full-run paths.
    """
    if not obs.REGISTRY.enabled:
        return
    for classification, count in columns.class_counts().items():
        if count:
            _OBS_OUTCOMES.labels(
                target=config.target, scheme=config.scheme,
                classification=classification,
            ).inc(count)


class _FullRunEvaluator:
    """Chunk evaluation through the full-run reference, fault by fault."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self._fn = FULL_RUN_TARGETS[config.target]

    def evaluate_chunk(
            self, batch: FaultBatch) -> "tuple[OutcomeColumns, int]":
        """Classify ``batch``; outcome columns in batch order + work."""
        outcomes: list[FaultOutcome] = []
        work = 0
        for spec in batch.specs():
            outcome, units = self._fn(self.config, spec)
            outcomes.append(outcome)
            work += units
        columns = OutcomeColumns.from_outcomes(outcomes, batch.sites)
        _count_outcomes(self.config, columns)
        return columns, work


class _LaneEvaluator:
    """Fault-lane batched evaluation on the fault-free background rows.

    Every fault of a chunk becomes one lane of a single
    :mod:`repro.kernels.fault_batch` machine call: disturbance deltas
    built from the :class:`FaultBatch` columns on the background rows,
    a vectorized borrow/select/relay machine advancing every lane per
    cycle, and per-lane outcome columns that become the chunk's
    :class:`OutcomeColumns` directly.

    Each lane starts idle at its injection cycle.  The only state a
    cycle-level simulator carries is borrowed time and relay selects,
    and both form only after a late capture; construction checks that
    the background has no positive idle-state lateness, so (by
    induction from the idle cycle 0) the full run reaches every fault's
    injection cycle idle, and the lane reproduces it exactly.

    The evaluator is immutable after construction and reads only the
    fields of :func:`_evaluator_key`, which is what lets
    :func:`fault_runner` share one per worker process.
    """

    def __init__(self, config: CampaignConfig) -> None:
        from repro.kernels import fault_batch

        self.config = config
        sim = _SIM_BUILDERS[config.target](config)
        if config.target == "pipeline":
            self.machine = fault_batch.pipeline_machine(
                sim, config.relay_horizon)
            self._units_per_cycle = len(sim.stages)
        else:
            self.machine = fault_batch.graph_machine(
                sim, config.relay_horizon)
            self._units_per_cycle = sim.graph.num_ffs
        self.rows = sim.background_rows(config.num_cycles)
        lateness = self.machine.idle_lateness_ps(self.rows)
        if lateness > 0:
            raise ConfigurationError(
                f"campaign background is late by {lateness} ps while "
                f"idle; lanes cannot start from idle state")

    def evaluate_chunk(
            self, batch: FaultBatch) -> "tuple[OutcomeColumns, int]":
        """Classify ``batch`` in one machine call; outcome columns in
        batch order + work."""
        if not len(batch):
            return OutcomeColumns.concat([], batch.sites), 0
        classification, events, worst, intervals = self.machine.evaluate(
            batch, self.rows)
        columns = OutcomeColumns(
            sites=list(batch.sites),
            fault_id=batch.fault_id.tolist(),
            kind=batch.kind.tolist(),
            site=batch.site.tolist(),
            cycle=batch.cycle.tolist(),
            magnitude_ps=batch.magnitude_ps.tolist(),
            classification=classification.tolist(),
            events=events.tolist(),
            worst_lateness_ps=worst.tolist(),
            max_borrowed_intervals=intervals.tolist(),
        )
        _count_outcomes(self.config, columns)
        steps = batch.window_steps(self.config.relay_horizon,
                                   self.config.num_cycles)
        return columns, int(steps.sum()) * self._units_per_cycle


@functools.lru_cache(maxsize=256)
def _evaluator_key(config: CampaignConfig, kernel_mode: str) -> str:
    """Content hash of everything a :class:`_LaneEvaluator` reads.

    The background parameters (rows, machine, idle check, counter
    labels), the attribution horizon and the kernel mode; population
    and chunking fields are absent, so every chunk of every campaign
    and soak round over one background shares the evaluator.  Memoized
    per (frozen) config: every chunk task asks for it.
    """
    from repro.exec.cache import stable_key

    return stable_key("campaign-lane-evaluator",
                      config.background_params(), config.relay_horizon,
                      kernel_mode)


def fault_runner(
        config: CampaignConfig,
) -> "_LaneEvaluator | _FullRunEvaluator":
    """The chunk evaluator for ``config``.

    Cycle-level targets run on the lane machine, one memoized
    evaluator per worker process (warm-cache kind ``"trajectory"``,
    keyed by :func:`_evaluator_key`), so the background rows, the
    machine and the idle-start check are built once, not per chunk.
    The netlist target — and everything when the vector kernels are
    off (``REPRO_SCALAR_KERNELS=1`` or no numpy) — takes the full-run
    reference path behind the same interface.
    """
    from repro import kernels
    from repro.exec.worker import WARM

    if config.target == "netlist" or not kernels.vectorized_enabled():
        return _FullRunEvaluator(config)
    return WARM.get_or_build(
        "trajectory", _evaluator_key(config, kernels.kernel_mode()),
        lambda: _LaneEvaluator(config))


# ---------------------------------------------------------------------------
# Exec-layer integration
# ---------------------------------------------------------------------------

def campaign_chunk_task(params: dict) -> TaskPayload:
    """Sweep task: classify one contiguous chunk of the population.

    The payload's value is the chunk's :class:`OutcomeColumns`, in
    population order on every evaluation path.
    """
    config = CampaignConfig.from_params(params["config"])
    batch = config.population_batch(params["start"], params["stop"])
    runner = fault_runner(config)
    with obs.trace_span("campaign.chunk", target=config.target,
                        scheme=config.scheme, start=params["start"],
                        stop=params["stop"]):
        columns, work = runner.evaluate_chunk(batch)
    return TaskPayload(value=columns, events_processed=work)


def campaign_tasks(config: CampaignConfig) -> list[SweepTask]:
    """Wrap the population chunks as exec-layer sweep tasks."""
    tasks: list[SweepTask] = []
    config_params = config.to_params()
    for index, start in enumerate(range(0, config.num_faults,
                                        config.faults_per_task)):
        stop = min(start + config.faults_per_task, config.num_faults)
        tasks.append(SweepTask(
            experiment=CAMPAIGN_TASK,
            params={"config": config_params, "start": start,
                    "stop": stop},
            index=index,
            seed=derive_seed(config.seed, CAMPAIGN_TASK, start, stop),
            key=task_key(CAMPAIGN_TASK, {
                "target": config.target, "scheme": config.scheme,
                "chunk": index,
            }),
        ))
    return tasks


@dataclasses.dataclass
class CampaignResult:
    """Classified population plus the coverage report and run summary.

    ``columns`` holds every classified fault; :attr:`outcomes`
    materializes them as :class:`FaultOutcome` records on first use.
    """

    config: CampaignConfig
    columns: OutcomeColumns
    report: "typing.Any"
    summary: dict

    @functools.cached_property
    def outcomes(self) -> list[FaultOutcome]:
        return self.columns.outcomes()


def run_campaign(config: CampaignConfig, *,
                 runner: SweepRunner | None = None,
                 publisher: typing.Any = None) -> CampaignResult:
    """Run the full campaign through the exec layer and classify it.

    ``publisher`` (an opened, telemetry-attached
    :class:`~repro.obs.stream.EventPublisher`) gets the scheme named as
    the current phase, so the ``phase_start``/``phase_end`` events the
    runner's telemetry emits are labelled with the scheme boundary a
    multi-scheme campaign is crossing.
    """
    from repro.campaign.report import build_report

    runner = runner or SweepRunner()
    if publisher is not None:
        publisher.set_phase(config.scheme)
    with obs.trace_span("campaign.run", target=config.target,
                        scheme=config.scheme,
                        faults=config.num_faults):
        run = runner.run(campaign_tasks(config))
    # None = chunk quarantined as poisoned.
    columns = OutcomeColumns.concat(
        [value for value in run.values if value is not None],
        config.sites())
    return CampaignResult(
        config=config,
        columns=columns,
        report=build_report(config, columns),
        summary=run.summary,
    )
