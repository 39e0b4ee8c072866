"""Unit tests for the campaign's fault-free background: the shared
per-process lane evaluator and per-run carried state."""

from repro.campaign import CampaignConfig
from repro.campaign.engine import (
    _LaneEvaluator,
    _build_graph_sim,
    fault_runner,
)
from repro.exec.worker import WARM


def _config(**overrides):
    defaults = dict(target="graph", scheme="timber-ff", num_faults=10,
                    num_cycles=400, seed=9)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestTrajectoryCaching:
    def test_warm_cache_kind_trajectory(self):
        # One lane evaluator (background rows, machine, idle check) per
        # configuration and process: the second chunk reuses the first
        # one's, whatever its population and chunking fields.
        config = _config(seed=12345)
        WARM.clear()
        before = WARM.counters()
        first = fault_runner(config)
        second = fault_runner(_config(seed=12345, num_faults=99,
                                      faults_per_task=7,
                                      kinds=("seu", "droop"),
                                      magnitude_range_ps=(5, 50)))
        assert isinstance(first, _LaneEvaluator)
        assert first is second
        assert first.rows is second.rows
        delta = WARM.delta(before, WARM.counters())
        assert delta["trajectory"] == [1, 1]

    def test_key_changes_with_any_background_param(self):
        # Every background parameter is part of the content key: a
        # change is a fresh miss, never an alias of stale rows.
        base = _config(seed=4321)
        WARM.clear()
        fault_runner(base)
        for field, value in (("scheme", "plain"), ("num_cycles", 399),
                             ("seed", 1), ("period_ps", 1100),
                             ("checking_percent", 20.0),
                             ("num_stages", 4),
                             ("sensitization_prob", 0.5)):
            changed = _config(**{"seed": 4321, field: value})
            assert changed.background_params() != base.background_params()
            before = WARM.counters()
            fault_runner(changed)
            delta = WARM.delta(before, WARM.counters())
            assert delta["trajectory"] == [0, 1], field

    def test_key_changes_with_relay_horizon(self):
        # The attribution horizon shapes every lane's window, so it is
        # part of the evaluator key although the rows do not need it.
        base = _config(seed=4321)
        WARM.clear()
        evaluator = fault_runner(base)
        before = WARM.counters()
        longer = fault_runner(_config(seed=4321, relay_horizon=9))
        assert WARM.delta(before, WARM.counters())["trajectory"] == [0, 1]
        assert longer is not evaluator
        assert longer.machine.relay_horizon == 9


class TestGraphSnapshot:
    """Carried state never leaks from one graph run into the next."""

    def test_full_run_resets_carried_state(self):
        config = _config()
        sim = _build_graph_sim(config)
        first = sim.run(400)
        second = sim.run(400)
        assert first == second


class TestForkedEvaluatorFallbacks:
    """The netlist target has no shared background: it always runs each
    fault in full."""

    def test_netlist_always_full_run(self):
        from repro.campaign.engine import _FullRunEvaluator, fault_runner

        config = _config(target="netlist", scheme="timber-ff",
                         kinds=("seu", "delay"))
        assert isinstance(fault_runner(config), _FullRunEvaluator)
