"""Golden tests: campaign output is pinned to the full-run reference.

``tests/golden/campaign_outcomes.json`` (TIMBER pipeline and graph
schemes) and ``tests/golden/campaign_outcomes_baselines.json`` (the
canary, logical, clock-stall and dcf pipeline baselines) were captured
through the full-run reference functions — every fault simulated from
cycle 0, the executable spec the lane machine must reproduce.  Both the
default campaign path and the reference itself must match the captures
byte for byte: same outcomes, same coverage report.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.campaign import (
    CampaignConfig,
    OutcomeColumns,
    fault_runner,
    run_campaign,
)
from repro.campaign.engine import FULL_RUN_TARGETS, _LaneEvaluator
from repro.campaign.report import build_report
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY, SCALAR_ENV

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"
GOLDENS = ("campaign_outcomes.json", "campaign_outcomes_baselines.json")

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane evaluation needs the vector kernels")


def _captures():
    return [capture for name in GOLDENS
            for capture in json.loads(
                (GOLDEN_DIR / name).read_text())["captures"]]


def _ids(capture):
    return "{target}-{scheme}".format(**capture["config"])


def _config(capture) -> CampaignConfig:
    # The first golden predates the lane machine and still records a
    # retired snapshot-spacing knob that never affected an outcome;
    # keys that are no longer config fields are dropped.
    known = {field.name for field in dataclasses.fields(CampaignConfig)}
    return CampaignConfig(**{key: value
                             for key, value in capture["config"].items()
                             if key in known})


@pytest.mark.parametrize("capture", _captures(), ids=_ids)
def test_batched_campaign_matches_full_run_golden(capture, monkeypatch):
    monkeypatch.delenv(SCALAR_ENV, raising=False)
    config = _config(capture)
    # The default evaluator is the lane machine: this golden pins the
    # batched path, not just "whatever fault_runner returns".
    assert isinstance(fault_runner(config), _LaneEvaluator)
    result = run_campaign(config)
    assert encode_result(result.outcomes) == capture["outcomes"]
    assert encode_result(result.report) == capture["report"]


@pytest.mark.parametrize("capture", _captures(), ids=_ids)
def test_full_run_reference_matches_golden(capture):
    config = _config(capture)
    reference = FULL_RUN_TARGETS[config.target]
    outcomes = [reference(config, spec)[0]
                for spec in config.population()]
    assert encode_result(outcomes) == capture["outcomes"]
    assert encode_result(build_report(
        config, OutcomeColumns.from_outcomes(outcomes, config.sites()))) \
        == capture["report"]
