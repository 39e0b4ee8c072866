"""The event spool and the run summary report the same counts.

A run's task dispositions are counted once, by ``RunTelemetry``; the
summary projects that tally and the event publisher ships it.  Folding
a finished run's spool from disk must therefore give back the numbers
the summary wrote — for a fresh sweep, one replayed from the result
cache, one resumed from a checkpoint, and a multi-scheme campaign.
"""

import json

import pytest

from repro import cli
from repro.obs import fold_events, read_events

SWEEP = ["sweep", "resilience", "--cycles", "300"]


def assert_agree(spool, summary):
    _header, events = read_events(spool)
    health = fold_events(events)
    assert health.status == "done"
    folded = {
        "done": health.done, "executed": health.executed,
        "cached": health.cached, "resumed": health.resumed,
        "poisoned": health.poisoned, "retries": health.retries,
        "batches": health.batches,
        "events_processed": health.events_processed,
    }
    written = {
        "done": summary["tasks"], "executed": summary["cache_misses"],
        "cached": summary["cache_hits"],
        "resumed": summary["resumed_tasks"],
        "poisoned": len(summary["poisoned"]),
        "retries": len(summary["retries"]),
        "batches": summary["batches"],
        "events_processed": summary["events_processed"],
    }
    assert folded == written
    # The spool rounds busy time to the microsecond.
    assert health.busy_s == pytest.approx(
        summary["task_wall_time_s"]["total"], abs=1e-6)


def run_sweep(tmp_path, name, *flags):
    spool = tmp_path / f"{name}.jsonl"
    summary_path = tmp_path / f"{name}.json"
    assert cli.main([*SWEEP, *flags, "--events", str(spool),
                     "--summary", str(summary_path)]) == 0
    return spool, json.loads(summary_path.read_text())


class TestSweep:
    def test_fresh(self, tmp_path, capsys):
        spool, summary = run_sweep(tmp_path, "fresh", "--no-cache",
                                   "--workers", "2")
        assert summary["cache_misses"] == summary["tasks"] > 0
        assert summary["events_processed"] > 0
        assert summary["batches"] > 0
        assert_agree(spool, summary)

    def test_replayed_from_cache(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        run_sweep(tmp_path, "cold", *cache)
        spool, summary = run_sweep(tmp_path, "warm", *cache)
        assert summary["cache_hits"] == summary["tasks"] > 0
        assert_agree(spool, summary)

    def test_resumed_from_checkpoint(self, tmp_path, capsys):
        checkpoint = ["--no-cache", "--checkpoint",
                      str(tmp_path / "checkpoint.json")]
        run_sweep(tmp_path, "first", *checkpoint)
        spool, summary = run_sweep(tmp_path, "resumed", *checkpoint,
                                   "--resume")
        assert summary["resumed_tasks"] == summary["tasks"] > 0
        assert_agree(spool, summary)
        # Replayed work is not this process's work.
        assert summary["events_processed"] == 0


class TestCampaign:
    def test_two_schemes(self, tmp_path, capsys, monkeypatch):
        runners = []
        make_runner = cli._make_runner

        def capture(*args, **kwargs):
            runners.append(make_runner(*args, **kwargs))
            return runners[-1]

        monkeypatch.setattr(cli, "_make_runner", capture)
        spool = tmp_path / "events.jsonl"
        out = tmp_path / "out.json"
        assert cli.main([
            "campaign", "--schemes", "plain,timber-ff", "--faults", "30",
            "--cycles", "200", "--chunk", "10", "--no-cache",
            "--events", str(spool), "--out", str(out)]) == 0
        (runner,) = runners
        run = runner.telemetry.run_summary()
        assert run["tasks"] == run["cache_misses"] == 6
        assert_agree(spool, run)
        telemetry = json.loads(out.read_text())["telemetry"]
        for key in ("tasks", "cache_hits", "cache_misses",
                    "resumed_tasks", "batches", "warm_cache"):
            assert telemetry[key] == run[key], key
