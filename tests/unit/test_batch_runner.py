"""Unit tests for the campaign evaluator's wiring.

Covers the evaluator-selection matrix (every scheme of the cycle-level
targets on the lane machine; full runs for ``netlist`` and
``REPRO_SCALAR_KERNELS=1``), lane accounting, the construction-time
idle-start check, and the semantic outcome counters — the
byte-identity of the outcomes themselves is pinned by
``tests/property/test_batch_props.py`` and the campaign goldens.
"""

import pytest

from repro import obs
from repro.baselines.architectures import ARCHITECTURES
from repro.campaign import (
    CampaignConfig,
    FaultBatch,
    fault_runner,
    run_campaign,
)
from repro.campaign import engine
from repro.campaign.engine import _FullRunEvaluator, _LaneEvaluator
from repro.errors import ConfigurationError
from repro.kernels import HAVE_NUMPY, SCALAR_ENV

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane batching needs the vector kernels")

#: Every (target, scheme) pair the cycle-level targets accept.
LANE_CONFIGURATIONS = (
    [("pipeline", architecture.key) for architecture in ARCHITECTURES]
    + [("graph", scheme)
       for scheme in ("plain", "timber-ff", "timber-latch")])


def _config(**overrides):
    base = dict(num_faults=8, num_cycles=200, faults_per_task=8, seed=99)
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture
def observed():
    """Enable a fresh registry for one test, restoring the prior state."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    yield obs.REGISTRY
    obs.reset()
    if not was_enabled:
        obs.disable()


def _series(registry, name: str) -> dict:
    """Non-zero series of one metric family, keyed by sorted labels."""
    family = registry.snapshot().get(name, {"series": []})
    return {tuple(sorted(series["labels"].items())): series["value"]
            for series in family["series"] if series["value"]}


class TestRunnerSelectionMatrix:
    def test_default_vector_runner_is_batched(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert isinstance(fault_runner(_config()), _LaneEvaluator)

    @pytest.mark.parametrize("target,scheme", LANE_CONFIGURATIONS)
    def test_every_cycle_level_scheme_takes_the_lane_machine(
            self, target, scheme, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        config = _config(target=target, scheme=scheme)
        assert isinstance(fault_runner(config), _LaneEvaluator)
        monkeypatch.setenv(SCALAR_ENV, "1")
        assert isinstance(fault_runner(config), _FullRunEvaluator)

    def test_scalar_kernels_disable_batching(self, monkeypatch):
        monkeypatch.setenv(SCALAR_ENV, "1")
        assert isinstance(fault_runner(_config()), _FullRunEvaluator)

    def test_netlist_always_takes_full_runs(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        for scheme in ("plain", "timber-ff"):
            runner = fault_runner(_config(target="netlist", scheme=scheme,
                                          num_faults=2))
            assert isinstance(runner, _FullRunEvaluator)


class TestLaneAccounting:
    def test_every_fault_is_one_lane(self, observed):
        config = _config()
        batch = config.population_batch()
        _LaneEvaluator(config).evaluate_chunk(batch)
        lanes = _series(observed, "repro_kernel_fault_lanes_total")
        assert lanes == {(("kernel", "pipeline"),): len(batch)}
        assert len(batch) == config.num_faults

    def test_single_fault_evaluate_uses_one_lane_group(self, observed):
        config = _config()
        runner = _LaneEvaluator(config)
        spec = config.population()[0]
        columns, units = runner.evaluate_chunk(
            FaultBatch.from_specs([spec], config.sites()))
        [outcome] = columns.outcomes()
        lanes = _series(observed, "repro_kernel_fault_lanes_total")
        assert lanes == {(("kernel", "pipeline"),): 1}
        assert outcome.fault_id == spec.fault_id
        steps = engine._window_end(config, spec) + 1 - spec.cycle
        assert units == steps * config.num_stages

    def test_unsupported_policy_is_rejected(self, monkeypatch):
        # A subclass may override ``capture``: it has no array
        # semantics, and the evaluator refuses it instead of guessing.
        from repro.pipeline.schemes import PlainPolicy

        class Custom(PlainPolicy):
            pass

        build = engine._build_pipeline_sim

        def build_custom(config, **kwargs):
            sim = build(config, **kwargs)
            sim.policy = Custom(config.num_stages)
            return sim

        monkeypatch.setitem(engine._SIM_BUILDERS, "pipeline",
                            build_custom)
        with pytest.raises(ConfigurationError):
            _LaneEvaluator(_config())


class TestIdleStartCheck:
    """A background that is late while idle would break the idle start."""

    def test_late_pipeline_background_is_rejected(self, monkeypatch):
        from repro.pipeline.stage import PipelineStage

        build = engine._build_pipeline_sim

        def build_late(config, **kwargs):
            sim = build(config, **kwargs)
            sim.stages[2] = PipelineStage(
                name=sim.stages[2].name,
                critical_delay_ps=int(config.period_ps * 1.05),
                typical_delay_ps=int(config.period_ps * 0.70),
                sensitization_prob=config.sensitization_prob,
                seed=config.seed + 2)
            return sim

        monkeypatch.setitem(engine._SIM_BUILDERS, "pipeline", build_late)
        # A seed no other test uses, so the warm row cache misses.
        with pytest.raises(ConfigurationError, match="late"):
            _LaneEvaluator(_config(seed=424242))

    def test_late_graph_background_is_rejected(self, monkeypatch):
        from repro.pipeline.graph_sim import GraphPipelineSimulation
        from repro.timing.graph import TimingGraph
        from repro.variability.base import ConstantVariation

        def build_late(config, **kwargs):
            graph = TimingGraph("late-chain", config.period_ps)
            graph.add_ff("g0")
            for index in range(1, config.num_stages + 1):
                graph.add_ff(f"g{index}")
                graph.add_edge(f"g{index - 1}", f"g{index}",
                               int(config.period_ps * 1.02))
            return GraphPipelineSimulation(
                graph, scheme=config.scheme,
                percent_checking=config.checking_percent,
                sensitization_prob=config.sensitization_prob,
                variability=ConstantVariation(1.0), seed=config.seed,
                **kwargs)

        monkeypatch.setitem(engine._SIM_BUILDERS, "graph", build_late)
        with pytest.raises(ConfigurationError, match="late"):
            _LaneEvaluator(_config(target="graph", seed=434343))

    @pytest.mark.parametrize("target,scheme", LANE_CONFIGURATIONS)
    def test_campaign_backgrounds_start_idle(self, target, scheme):
        for sensitization in (0.4, 1.0):
            config = _config(target=target, scheme=scheme,
                             sensitization_prob=sensitization)
            runner = _LaneEvaluator(config)
            assert runner.machine.idle_lateness_ps(runner.rows) <= 0


class TestSemanticCounters:
    """The pipeline outcome counters count exactly the classified events.

    They are semantic: chunking (a pure performance knob) must not move
    them.  Canary flags guard-band predictions in a fault-free
    background too, so a counter that also saw cycles outside each
    fault's window would count predictions that belong to no fault.
    """

    @pytest.mark.parametrize("scheme", [a.key for a in ARCHITECTURES])
    def test_outcome_counters_equal_events_at_any_chunking(
            self, scheme, observed):
        totals = []
        for faults_per_task in (7, 25):
            obs.reset()
            config = _config(scheme=scheme, num_faults=50,
                             num_cycles=400,
                             faults_per_task=faults_per_task)
            result = run_campaign(config)
            series = _series(observed, "repro_pipeline_outcomes_total")
            counted = sum(
                series.get((("outcome", outcome),), 0)
                for outcome in ("failed", "masked", "detected",
                                "predicted"))
            assert counted == sum(o.events for o in result.outcomes)
            totals.append(series)
        assert totals[0] == totals[1]
