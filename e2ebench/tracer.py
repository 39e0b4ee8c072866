"""Run one ``repro-timber`` command in this process with per-layer spans.

Usage::

    python3 e2ebench/tracer.py SPANS.json <cli arguments...>

The wrappers live here, outside the program: before the command runs,
the public functions at each layer boundary (listed in ``LAYERS``) are
replaced by timing wrappers.  Spans are kept in memory as
``[name, start, end, parent]`` and written to ``SPANS.json`` together
with the counters when the command returns.  :func:`layer_times` turns
them into self times.  Only the main thread is traced; calls from other
threads (the event publisher's heartbeat) pass through untimed.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import sys
import threading
import time
import typing

#: Span name of the whole traced process; its self time is the part of
#: the wall no layer span covers.
ROOT = "trace.root"


def _lanes(tracer, args, result) -> None:
    tracer.counts["kernels.lanes"] += len(args[1])


def _cache_get(tracer, args, result) -> None:
    tracer.counts["exec.cache_gets"] += 1
    tracer.counts["exec.cache_hits"] += bool(result[0])


def _cache_put(tracer, args, result) -> None:
    # File sizes are read once the command has finished.
    tracer.counts["exec.cache_entries"] += 1
    tracer.written["exec.cache_bytes_written"].add(args[0]._path(args[1]))


def _runner(tracer, args, result) -> None:
    tracer.counts["exec.tasks"] += len(result.outcomes)
    tracer.counts["exec.tasks_failed"] += sum(
        outcome.status != "done" for outcome in result.outcomes)


def _journal(tracer, args, result) -> None:
    tracer.written["soak.journal_bytes"].add(args[0].path)


#: (module, attribute, span name, counter hook).  A span name may cover
#: several functions; ``"*"`` before the attribute marks a function
#: that returns an iterator, whose ``next()`` calls are the timed work.
LAYERS: tuple[tuple[str, str, str, typing.Any], ...] = (
    ("repro.campaign.engine", "*CampaignConfig.iter_population",
     "campaign.draw", None),
    ("repro.campaign.engine", "campaign_chunk_task", "campaign.chunk",
     None),
    ("repro.campaign.engine", "fault_runner", "campaign.evaluator", None),
    ("repro.campaign.trajectory", "trajectory_for", "pipeline.trajectory",
     None),
    ("repro.campaign.report", "build_report", "campaign.report", None),
    ("repro.kernels.fault_batch", "PipelineLaneMachine.evaluate",
     "kernels.machine", _lanes),
    ("repro.kernels.fault_batch", "GraphLaneMachine.evaluate",
     "kernels.machine", _lanes),
    ("repro.exec.cache", "ResultCache.get", "exec.cache_get", _cache_get),
    ("repro.exec.cache", "ResultCache.put", "exec.cache_put", _cache_put),
    ("repro.exec.runner", "SweepRunner.run", "exec.runner", _runner),
    ("repro.soak.driver", "soak_chunk_task", "soak.chunk", None),
    ("repro.soak.generator", "spec_for_draw", "soak.draw", None),
    ("repro.soak.journal", "SoakJournal.append", "soak.journal",
     _journal),
    ("repro.soak.journal", "SoakJournal.open_resume", "soak.journal_read",
     None),
    ("repro.soak.driver", "SoakCheckpoint.save", "soak.checkpoint", None),
    ("repro.pipeline.pipeline", "PipelineSimulation.run",
     "pipeline.sim_run", None),
    ("repro.pipeline.graph_sim", "GraphPipelineSimulation.run",
     "pipeline.sim_run", None),
    ("repro.obs.stream", "EventPublisher.emit", "obs.emit", None),
    ("repro.obs.stream", "EventPublisher._on_telemetry", "obs.emit",
     None),
)

#: Modules each command imports anyway; importing them up front (inside
#: the ``startup.import`` span) lets the wrappers go in before the
#: command binds any name.  Layers in modules a command never imports
#: stay unwrapped, so tracing does not add imports.
COMMAND_MODULES = {
    "campaign": ("repro.cli", "repro.campaign.engine",
                 "repro.campaign.report", "repro.kernels.fault_batch",
                 "repro.exec.cache", "repro.exec.runner",
                 "repro.pipeline.pipeline", "repro.pipeline.graph_sim",
                 "repro.obs.stream"),
    "soak": ("repro.cli", "repro.soak.driver", "repro.soak.journal",
             "repro.campaign.report", "repro.kernels.fault_batch",
             "repro.exec.cache", "repro.exec.runner",
             "repro.pipeline.pipeline", "repro.pipeline.graph_sim",
             "repro.obs.stream"),
    "sweep": ("repro.cli", "repro.analysis.experiments",
              "repro.exec.cache", "repro.exec.runner",
              "repro.pipeline.pipeline", "repro.pipeline.graph_sim",
              "repro.obs.stream"),
}


class Tracer:
    """Spans of the main thread, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        #: Counter name -> files whose final sizes it sums.
        self.written: dict[str, set] = collections.defaultdict(set)
        self.main = threading.get_ident()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()


def _timed_call(tracer: Tracer, name: str, func, hook):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if threading.get_ident() != tracer.main:
            return func(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None:
            hook(tracer, args, result)
        return result
    return traced


class _TimedIterator:
    """Times each ``next()`` of a generator, where its work happens."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer, self._name, self._inner = tracer, name, inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        index = self._tracer.begin(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.end(index)


def _timed_generator(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        inner = func(*args, **kwargs)
        if threading.get_ident() != tracer.main:
            return inner
        return _TimedIterator(tracer, name, inner)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer whose module is loaded.

    Functions that other modules imported by name (``from m import f``)
    are replaced in those modules too, so a call through any binding is
    timed.
    """
    for module_name, attribute, name, hook in LAYERS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        generator = attribute.startswith("*")
        owner_name, _, func_name = attribute.lstrip("*").rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[func_name]
        replacement = (_timed_generator(tracer, name, original)
                       if generator
                       else _timed_call(tracer, name, original, hook))
        setattr(owner, func_name, replacement)
        if not owner_name:
            for other_name, other in list(sys.modules.items()):
                if (other_name.startswith("repro")
                        and getattr(other, func_name, None) is original):
                    setattr(other, func_name, replacement)


def traced_main(argv: list[str]) -> dict:
    """Run ``repro.cli.main(argv)`` traced; returns the trace record.

    ``os.environ`` is restored afterwards: the CLI sets variables for
    its worker processes (trajectory cache, observability) that would
    otherwise leak into a later command run in the same process.
    """
    environ = dict(os.environ)
    tracer = Tracer()
    root = tracer.begin(ROOT)
    try:
        index = tracer.begin("startup.import")
        for module in COMMAND_MODULES[argv[0]]:
            importlib.import_module(module)
        tracer.end(index)
        install(tracer)
        from repro.cli import main

        status = main(argv)
    finally:
        tracer.end(root)
        os.environ.clear()
        os.environ.update(environ)
    counts = dict(tracer.counts)
    for name, paths in tracer.written.items():
        counts[name] = sum(os.path.getsize(path) for path in paths
                           if os.path.exists(path))
    return {"status": status, "spans": tracer.spans, "counts": counts}


def layer_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus that of direct children."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = collections.defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] += end - start - covered[index]
    return dict(totals)


if __name__ == "__main__":
    record = traced_main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    sys.exit(record["status"])
