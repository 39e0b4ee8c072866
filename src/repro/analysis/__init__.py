"""Metrics, shared experiment runners, and table rendering.

Each name below is imported from its submodule on first access, so a
command that only renders a table (``repro-timber soak``) does not pay
for importing the experiment runners and everything they import.
"""

import importlib

#: Public name -> the submodule that defines it.
_SUBMODULES = {
    "format_table": "tables",
    "format_series": "tables",
    "ReportSection": "report",
    "collect_sections": "report",
    "generate_report": "report",
    "SensitivityPoint": "sensitivity",
    "SensitivityResult": "sensitivity",
    "overhead_sensitivity": "sensitivity",
    "energy_per_work": "metrics",
    "failures_per_billion_cycles": "metrics",
    "masked_fraction": "metrics",
    "summarize_results": "metrics",
    "ResiliencePoint": "experiments",
    "fig1_experiment": "experiments",
    "fig8_experiment": "experiments",
    "resilience_sweep": "experiments",
    "throughput_sweep": "experiments",
    "two_stage_waveform_experiment": "experiments",
}


def __getattr__(name: str):
    try:
        submodule = _SUBMODULES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"),
                    name)
    globals()[name] = value
    return value


__all__ = list(_SUBMODULES)
