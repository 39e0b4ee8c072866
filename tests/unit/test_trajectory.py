"""Unit tests for the campaign's fault-free background: shared rows and
per-run carried state."""

from repro.campaign import CampaignConfig
from repro.campaign.engine import _background_rows, _build_graph_sim
from repro.exec.worker import WARM
from repro.kernels.fault_batch import graph_machine


def _config(**overrides):
    defaults = dict(target="graph", scheme="timber-ff", num_faults=10,
                    num_cycles=400, seed=9)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _rows(config):
    sim = _build_graph_sim(config)
    return _background_rows(config, sim, graph_machine(sim))


class TestTrajectoryCaching:
    def test_warm_cache_kind_trajectory(self):
        config = _config(seed=12345)
        sim = _build_graph_sim(config)
        WARM.clear()
        before = WARM.counters()
        first = _background_rows(config, sim, graph_machine(sim))
        second = _background_rows(config, sim, graph_machine(sim))
        assert first is second
        delta = WARM.delta(before, WARM.counters())
        assert delta["trajectory"] == [1, 1]

    def test_key_changes_with_any_background_param(self):
        # Every background parameter is part of the content key: a
        # change is a fresh miss, never an alias of stale rows.
        base = _config(seed=4321)
        WARM.clear()
        _rows(base)
        for field, value in (("scheme", "plain"), ("num_cycles", 399),
                             ("seed", 1), ("period_ps", 1100),
                             ("checking_percent", 20.0),
                             ("num_stages", 4),
                             ("sensitization_prob", 0.5)):
            changed = _config(**{"seed": 4321, field: value})
            assert changed.background_params() != base.background_params()
            before = WARM.counters()
            _rows(changed)
            delta = WARM.delta(before, WARM.counters())
            assert delta["trajectory"] == [0, 1], field


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
