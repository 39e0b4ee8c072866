"""Randomized fault-campaign engine (paper-scale resilience studies).

``repro.campaign`` answers the paper's headline question at scale: *what
fraction of dynamic timing errors does each scheme mask, detect, or let
escape?*  It generates seeded populations of faults — SEUs, delay
faults, droop pulses, multi-stage correlated slowdowns — injects them
into the cycle-level simulators (linear pipeline and whole graph) and
the event-driven netlist simulator, runs the population through the
exec layer, and classifies every outcome into the TB/ED taxonomy of
:mod:`repro.campaign.outcomes`, producing per-scheme coverage reports
keyed to the recovered timing margin ``c/k``.
"""

from repro.campaign.engine import (
    CAMPAIGN_TASK,
    FULL_RUN_TARGETS,
    CampaignConfig,
    CampaignResult,
    campaign_chunk_task,
    fault_runner,
    run_campaign,
)
from repro.campaign.faults import (
    FAULT_KINDS,
    FaultBatch,
    FaultOverlay,
    FaultSpec,
    draw_runs,
    draw_spec,
    iter_population,
    population_batch,
)
from repro.campaign.outcomes import (
    BENIGN,
    ESCAPED,
    FALSE_POSITIVE,
    MASKED_ED,
    MASKED_TB,
    OUTCOME_CLASSES,
    RELAYED,
    CaptureEvent,
    FaultOutcome,
    OutcomeColumns,
    classify_events,
    classify_flags,
)
from repro.campaign.report import (
    CoverageReport,
    build_report,
    render_reports,
    write_campaign_bench,
)

__all__ = [
    "CAMPAIGN_TASK",
    "FULL_RUN_TARGETS",
    "CampaignConfig",
    "CampaignResult",
    "campaign_chunk_task",
    "fault_runner",
    "run_campaign",
    "FAULT_KINDS",
    "FaultBatch",
    "FaultOverlay",
    "FaultSpec",
    "draw_runs",
    "draw_spec",
    "iter_population",
    "population_batch",
    "BENIGN",
    "ESCAPED",
    "FALSE_POSITIVE",
    "MASKED_ED",
    "MASKED_TB",
    "OUTCOME_CLASSES",
    "RELAYED",
    "CaptureEvent",
    "FaultOutcome",
    "OutcomeColumns",
    "classify_events",
    "classify_flags",
    "CoverageReport",
    "build_report",
    "render_reports",
    "write_campaign_bench",
]
