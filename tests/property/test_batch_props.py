"""Property: lane-machine evaluation is byte-identical to full runs.

The lane evaluator advances every fault of a chunk through a vectorized
borrow/select/relay machine over the shared background rows, each lane
starting idle at its injection cycle.  The full-run reference simulates
every fault from cycle 0.  The encoded :class:`FaultOutcome` stream
must match byte for byte — across every (target, scheme) pair the
cycle-level targets accept, seeds, sensitizations and relay horizons
(long ones included), faults at the very first and last background
cycle, and whole campaigns chunked through the exec layer.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.architectures import ARCHITECTURES
from repro.campaign import (
    CampaignConfig,
    FaultBatch,
    FaultSpec,
    OutcomeColumns,
    fault_runner,
    run_campaign,
)
from repro.campaign.engine import (
    FULL_RUN_TARGETS,
    _LaneEvaluator,
    _window_end,
)
from repro.campaign.report import build_report
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane batching needs the vector kernels")

#: Every (target, scheme) pair the cycle-level targets accept.
CONFIGURATIONS = (
    [("pipeline", architecture.key) for architecture in ARCHITECTURES]
    + [("graph", scheme)
       for scheme in ("plain", "timber-ff", "timber-latch")])


def _encoded(outcome) -> str:
    return json.dumps(encode_result(outcome), sort_keys=True)


def _full_run(config: CampaignConfig, specs) -> list:
    reference = FULL_RUN_TARGETS[config.target]
    return [reference(config, spec)[0] for spec in specs]


def _lanes(evaluator, config: CampaignConfig, specs) -> list:
    """``specs`` as one chunk through ``evaluator``, as outcomes."""
    columns, _ = evaluator.evaluate_chunk(
        FaultBatch.from_specs(specs, config.sites()))
    return columns.outcomes()


@settings(max_examples=30, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    relay_horizon=st.one_of(st.integers(min_value=1, max_value=8),
                            st.just(100)),
    sensitization=st.sampled_from([0.4, 1.0]),
)
def test_lane_chunk_matches_full_runs(configuration, seed, relay_horizon,
                                      sensitization):
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=12, num_cycles=150,
        seed=seed, relay_horizon=relay_horizon,
        sensitization_prob=sensitization,
    )
    specs = config.population()
    outcomes = _lanes(_LaneEvaluator(config), config, specs)
    for spec, outcome, full in zip(specs, outcomes,
                                   _full_run(config, specs)):
        assert _encoded(outcome) == _encoded(full), spec


def _fault_at(config: CampaignConfig, cycle: int, kind: str,
              magnitude: int) -> FaultSpec:
    return FaultSpec(fault_id=0, kind=kind, site=config.sites()[0],
                     cycle=cycle, duration_cycles=2, magnitude_ps=magnitude,
                     span=2 if kind == "correlated" else 1)


def _assert_single_fault_matches(config: CampaignConfig,
                                 spec: FaultSpec) -> None:
    outcomes = _lanes(_LaneEvaluator(config), config, [spec])
    assert _encoded(outcomes) == _encoded(_full_run(config, [spec]))


EDGE_FAULTS = dict(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    kind=st.sampled_from(["seu", "delay", "droop", "correlated"]),
    magnitude=st.integers(min_value=20, max_value=400),
)


@settings(max_examples=12, deadline=None)
@given(**EDGE_FAULTS)
def test_fault_at_first_background_cycle_matches(configuration, seed, kind,
                                                 magnitude):
    # Cycle 0 has no fault-free prefix at all: the lane is injected on
    # the very first background row.
    target, scheme = configuration
    config = CampaignConfig(target=target, scheme=scheme, num_faults=2,
                            num_cycles=120, seed=seed)
    _assert_single_fault_matches(config,
                                 _fault_at(config, 0, kind, magnitude))


@settings(max_examples=12, deadline=None)
@given(**EDGE_FAULTS)
def test_fault_at_last_background_cycle_matches(configuration, seed, kind,
                                                magnitude):
    # The last cycle's window is clipped to the background's end.
    target, scheme = configuration
    config = CampaignConfig(target=target, scheme=scheme, num_faults=2,
                            num_cycles=120, seed=seed)
    _assert_single_fault_matches(
        config, _fault_at(config, config.num_cycles - 1, kind, magnitude))


@settings(max_examples=6, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    relay_horizon=st.integers(min_value=64, max_value=300),
)
def test_oversized_windows_match_full_runs(configuration, seed,
                                           relay_horizon):
    # The machine takes a window of any width: relay horizons far past
    # the handful of cycles a background fault needs still match.
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=8, num_cycles=300,
        seed=seed, relay_horizon=relay_horizon,
    )
    specs = config.population()
    assert any(_window_end(config, spec) + 1 - spec.cycle > 64
               for spec in specs)
    outcomes = _lanes(_LaneEvaluator(config), config, specs)
    assert _encoded(outcomes) == _encoded(_full_run(config, specs))


@settings(max_examples=10, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    relay_horizon=st.integers(min_value=1, max_value=8),
)
def test_fault_runner_outcomes_match_full_runs(configuration, seed,
                                               relay_horizon):
    # fault_runner is what the exec layer calls; over the population
    # batch chunk tasks draw, its outcomes must equal the reference
    # run over the scalar population stream.
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=10, num_cycles=150,
        seed=seed, relay_horizon=relay_horizon,
    )
    runner = fault_runner(config)
    assert isinstance(runner, _LaneEvaluator)
    specs = list(config.iter_population())
    columns, _ = runner.evaluate_chunk(config.population_batch())
    outcomes = columns.outcomes()
    assert len(outcomes) == len(specs)
    for spec, outcome, full in zip(specs, outcomes,
                                   _full_run(config, specs)):
        assert _encoded(outcome) == _encoded(full), spec


@settings(max_examples=8, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_chunk_walk_equals_per_fault_evaluation(configuration, seed):
    # A whole chunk is one machine call; one-element chunks are
    # one-lane calls.  Batch shape must never leak into an outcome.
    target, scheme = configuration
    config = CampaignConfig(target=target, scheme=scheme, num_faults=10,
                            num_cycles=200, seed=seed)
    specs = config.population()
    chunked = _lanes(_LaneEvaluator(config), config, specs)
    single = _LaneEvaluator(config)
    singles = [_lanes(single, config, [spec])[0] for spec in specs]
    assert _encoded(chunked) == _encoded(singles)


@settings(max_examples=10, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    faults_per_task=st.sampled_from([4, 7, 12]),
)
def test_campaign_matches_full_run_reference(configuration, seed,
                                             faults_per_task):
    # End to end: the whole campaign, chunked through the exec layer,
    # must equal the full-run reference fault by fault and in its
    # coverage report.
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=12, num_cycles=150,
        faults_per_task=faults_per_task, seed=seed,
    )
    result = run_campaign(config)
    reference = _full_run(config, config.population())
    assert _encoded(result.outcomes) == _encoded(reference)
    assert _encoded(result.report) == _encoded(build_report(
        config, OutcomeColumns.from_outcomes(reference, config.sites())))
