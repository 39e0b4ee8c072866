"""Run telemetry: structured logging plus a machine-readable summary.

Every sweep run records, per task: wall time, events processed, cache
hit/miss, attempts, and the worker that ran it.  The records feed one
:class:`Tally` per scope, and every aggregate view of a run — the
summary, the run-wide summary, the live event stream — is a projection
of a tally.  The summary adds run wall time, cache hit rate, and worker
utilization (busy task seconds divided by ``run wall time x workers``
— 1.0 means the pool never idled).  Records are emitted through the
``repro.exec`` logger with the raw fields attached under ``extra`` so
log processors can consume them without parsing message strings.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pathlib
import time
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.exec.runner import SweepTask, TaskOutcome

logger = logging.getLogger("repro.exec")


@dataclasses.dataclass
class TaskRecord:
    """Telemetry for one executed (or cache-served) task."""

    key: str
    index: int
    wall_time_s: float
    events_processed: int
    cached: bool
    attempts: int
    worker_pid: int
    status: str = "done"
    resumed: bool = False

    def to_dict(self) -> dict:
        """The fields as a JSON-able dict.  They are all scalars, so a
        shallow copy does what ``dataclasses.asdict`` would without its
        per-field deep copy."""
        return dict(self.__dict__)


@dataclasses.dataclass
class Tally:
    """Everything one scope of a run counts: a phase or the whole run.

    Task dispositions are the summary's: ``cached`` and ``resumed``
    tasks were served without running, ``executed`` tasks are the rest
    (cache misses, poisoned ones included), and ``busy_s`` and
    ``events_processed`` are the work of the executed tasks alone.
    """

    tasks: int = 0
    cached: int = 0
    resumed: int = 0
    executed: int = 0
    events_processed: int = 0
    busy_s: float = 0.0
    busy_max_s: float = 0.0
    batches: int = 0
    batch_tasks: int = 0
    batch_max: int = 0
    wall_time_s: float = 0.0
    warm: dict[str, dict[str, int]] = dataclasses.field(
        default_factory=dict)
    retries: list[dict] = dataclasses.field(default_factory=list)
    crashes: list[dict] = dataclasses.field(default_factory=list)
    fallbacks: list[str] = dataclasses.field(default_factory=list)
    poisoned: list[str] = dataclasses.field(default_factory=list)

    def add_task(self, record: TaskRecord) -> None:
        self.tasks += 1
        if record.status == "poisoned":
            self.poisoned.append(record.key)
        if record.resumed:
            self.resumed += 1
        elif record.cached:
            self.cached += 1
        else:
            self.executed += 1
            self.events_processed += record.events_processed
            self.busy_s += record.wall_time_s
            self.busy_max_s = max(self.busy_max_s, record.wall_time_s)

    def add_batch(self, size: int) -> None:
        self.batches += 1
        self.batch_tasks += size
        self.batch_max = max(self.batch_max, size)

    def add_warm(self, kind: str, hits: int, misses: int) -> None:
        entry = self.warm.setdefault(kind, {"hits": 0, "misses": 0})
        entry["hits"] += hits
        entry["misses"] += misses


class RunTelemetry:
    """Counts a run's tasks once and projects the count as summaries.

    Every ``record_*`` call updates two :class:`Tally` scopes: the
    phase (one :meth:`SweepRunner.run <repro.exec.runner.SweepRunner.run>`,
    reset by :meth:`start`) and the whole run (the life of this
    object).  :meth:`summary` projects the phase, :meth:`run_summary`
    the run; the event publisher ships the run tally as it grows.
    Per-task records are kept for the phase only, so a long soak's
    memory does not grow with its round count.
    """

    def __init__(self) -> None:
        self.records: list[TaskRecord] = []
        self.phase_tally = Tally()
        self.run_tally = Tally()
        self.workers = 1
        self.num_tasks = 0
        self.kernel_mode: str | None = None
        self._started: float | None = None
        #: Live observers: ``listener(kind, payload)`` called from the
        #: same sites that feed the tallies, after they are updated, so
        #: a subscriber (the obs event publisher) reads the totals the
        #: summary will report.  Kinds: ``start`` (dict), ``task``
        #: (:class:`TaskRecord`), ``batch``/``retry``/``crash``/
        #: ``fallback`` (dict), ``finish`` (summary dict).  A listener
        #: that raises is logged and skipped — telemetry fan-out must
        #: never abort the run it narrates.
        self.listeners: list[typing.Callable[[str, typing.Any],
                                             None]] = []

    def _notify(self, kind: str, payload: typing.Any) -> None:
        for listener in list(self.listeners):
            try:
                listener(kind, payload)
            except Exception:  # pragma: no cover - defensive
                logger.warning("telemetry listener failed on %r", kind,
                               exc_info=True)

    def _tallies(self) -> tuple[Tally, Tally]:
        return self.phase_tally, self.run_tally

    # -- lifecycle ---------------------------------------------------------
    def start(self, *, workers: int, num_tasks: int) -> None:
        from repro.kernels import kernel_mode

        self.records = []
        self.phase_tally = Tally()
        self.workers = workers
        self.num_tasks = num_tasks
        # Capture once: kernel_mode() reads the environment, which a
        # long-running process may mutate between run and summary.
        self.kernel_mode = kernel_mode()
        self._started = time.perf_counter()
        self._notify("start", {"workers": workers,
                               "num_tasks": num_tasks})
        logger.info(
            "sweep start: %d task(s) on %d worker(s)", num_tasks, workers,
            extra={"repro_sweep": {"tasks": num_tasks,
                                   "workers": workers}},
        )

    def record_task(self, outcome: "TaskOutcome") -> None:
        record = TaskRecord(
            key=outcome.task.key,
            index=outcome.task.index,
            wall_time_s=outcome.wall_time_s,
            events_processed=outcome.events_processed,
            cached=outcome.cached,
            attempts=outcome.attempts,
            worker_pid=outcome.worker_pid,
            status=outcome.status,
            resumed=outcome.resumed,
        )
        self.records.append(record)
        for tally in self._tallies():
            tally.add_task(record)
        if record.status == "poisoned":
            verb = "poisoned"
        elif record.resumed:
            verb = "resumed from checkpoint"
        elif record.cached:
            verb = "cache hit"
        else:
            verb = "executed"
        self._notify("task", record)
        # The structured extra costs a record copy per task; build it
        # only when the line is going to be emitted.
        if logger.isEnabledFor(logging.INFO):
            logger.info(
                "task %s: %s in %.3fs (%d events, attempt %d, pid %d)",
                record.key, verb,
                record.wall_time_s, record.events_processed,
                record.attempts, record.worker_pid,
                extra={"repro_task": record.to_dict()},
            )

    def record_batch(self, *, size: int,
                     warm: dict | None = None) -> None:
        """One batch round-trip completed (``size`` tasks dispatched)."""
        for tally in self._tallies():
            tally.add_batch(size)
        self._notify("batch", {"size": size})
        logger.debug(
            "batch of %d task(s) returned", size,
            extra={"repro_batch": {"size": size, "warm": warm or {}}},
        )
        self.record_warm(warm)

    def record_warm(self, delta: dict | None) -> None:
        """Fold a worker's warm-cache ``{kind: [hits, misses]}`` delta."""
        if not delta:
            return
        for kind, (hits, misses) in delta.items():
            for tally in self._tallies():
                tally.add_warm(kind, hits, misses)

    def record_retry(self, task: "SweepTask", error: BaseException, *,
                     backoff_s: float = 0.0) -> None:
        retry = {"key": task.key, "error": repr(error),
                 "backoff_s": backoff_s}
        for tally in self._tallies():
            tally.retries.append(retry)
        self._notify("retry", retry)
        logger.warning(
            "task %s failed (%s); retrying after %.3fs backoff",
            task.key, error, backoff_s,
            extra={"repro_retry": dict(retry)},
        )

    def record_crash(self, task: "SweepTask",
                     error: BaseException) -> None:
        """One definite worker death attributed to ``task``."""
        crash = {"key": task.key, "error": repr(error)}
        for tally in self._tallies():
            tally.crashes.append(crash)
        self._notify("crash", crash)
        logger.warning(
            "task %s killed its worker (%s)", task.key, error,
            extra={"repro_crash": dict(crash)},
        )

    def record_fallback(self, error: BaseException) -> None:
        for tally in self._tallies():
            tally.fallbacks.append(repr(error))
        self._notify("fallback", {"error": repr(error)})
        logger.warning(
            "process pool unavailable (%s); falling back to serial",
            error,
            extra={"repro_fallback": {"error": repr(error)}},
        )

    def finish(self) -> dict:
        """Freeze the phase and return its machine-readable summary."""
        if self._started is not None:
            wall = time.perf_counter() - self._started
            self._started = None
            self.phase_tally.wall_time_s = wall
            self.run_tally.wall_time_s += wall
        summary = self.summary()
        self._notify("finish", summary)
        logger.info(
            "sweep done: %d task(s) in %.3fs — %d cache hit(s), "
            "%d miss(es), %.0f%% worker utilization",
            summary["tasks"], summary["wall_time_s"],
            summary["cache_hits"], summary["cache_misses"],
            100.0 * summary["worker_utilization"],
            extra={"repro_summary": summary},
        )
        return summary

    # -- aggregation -------------------------------------------------------
    def summary(self) -> dict:
        """The current phase, with its per-task records (JSON-able)."""
        summary = self._project(self.phase_tally)
        summary["per_task"] = [record.to_dict() for record in self.records]
        return summary

    def run_summary(self) -> dict:
        """Every phase so far, in the keys of :meth:`summary` minus
        ``per_task`` (JSON-able)."""
        return self._project(self.run_tally)

    def _project(self, tally: Tally) -> dict:
        if self.kernel_mode is None:  # summary before any start()
            from repro.kernels import kernel_mode

            self.kernel_mode = kernel_mode()
        wall = tally.wall_time_s
        if self._started is not None:  # summary of a still-running phase
            wall += time.perf_counter() - self._started
        executed = tally.executed
        busy = tally.busy_s
        utilization = (busy / (wall * self.workers)
                       if wall > 0 and executed else 0.0)
        return {
            "tasks": tally.tasks,
            "workers": self.workers,
            "kernel_mode": self.kernel_mode,
            "wall_time_s": wall,
            "cache_hits": tally.cached,
            "cache_misses": executed,
            "events_processed": tally.events_processed,
            "task_wall_time_s": {
                "total": busy,
                "max": tally.busy_max_s,
                "mean": busy / executed if executed else 0.0,
            },
            "worker_utilization": min(1.0, utilization),
            "batches": tally.batches,
            "batch_tasks": {
                "max": tally.batch_max,
                "mean": (tally.batch_tasks / tally.batches
                         if tally.batches else 0.0),
            },
            "warm_cache": {kind: dict(tally.warm[kind])
                           for kind in sorted(tally.warm)},
            "retries": list(tally.retries),
            "backoff_s_total": sum(r["backoff_s"] for r in tally.retries),
            "serial_fallbacks": list(tally.fallbacks),
            "crashes": list(tally.crashes),
            "poisoned": list(tally.poisoned),
            "resumed_tasks": tally.resumed,
        }

    def write_summary(self, path: str | os.PathLike) -> None:
        """Write the summary JSON to ``path``."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.summary(), indent=2) + "\n",
                          encoding="utf-8")


def format_summary(summary: dict, *, top_n: int = 5) -> str:
    """Render a run summary for terminal output.

    Shows the aggregate counters plus the ``top_n`` slowest executed
    tasks, so per-task timings and cache behaviour are visible without
    opening the JSON.
    """
    lines = [
        f"tasks: {summary['tasks']}  "
        f"(cache hits: {summary['cache_hits']}, "
        f"misses: {summary['cache_misses']})",
        f"wall time: {summary['wall_time_s']:.3f}s on "
        f"{summary['workers']} worker(s), "
        f"utilization {100.0 * summary['worker_utilization']:.0f}%",
        f"events processed: {summary['events_processed']}  "
        f"task time total/mean/max: "
        f"{summary['task_wall_time_s']['total']:.3f}/"
        f"{summary['task_wall_time_s']['mean']:.3f}/"
        f"{summary['task_wall_time_s']['max']:.3f}s",
    ]
    if summary.get("batches"):
        lines.append(
            f"batches: {summary['batches']} "
            f"(mean {summary['batch_tasks']['mean']:.1f} tasks, "
            f"max {summary['batch_tasks']['max']})")
    warm = summary.get("warm_cache") or {}
    if warm:
        hits = sum(entry["hits"] for entry in warm.values())
        total = hits + sum(entry["misses"] for entry in warm.values())
        lines.append(
            f"warm cache: {hits}/{total} hit(s) across "
            f"{len(warm)} kind(s)")
    if summary["retries"]:
        lines.append(
            f"retries: {len(summary['retries'])} "
            f"(backoff total {summary.get('backoff_s_total', 0.0):.3f}s)")
    if summary.get("poisoned"):
        lines.append(
            f"poisoned: {len(summary['poisoned'])} "
            f"({', '.join(summary['poisoned'])})")
    if summary.get("resumed_tasks"):
        lines.append(f"resumed from checkpoint: "
                     f"{summary['resumed_tasks']}")
    executed = [r for r in summary["per_task"]
                if not r["cached"] and not r.get("resumed")]
    slowest = sorted(executed, key=lambda r: r["wall_time_s"],
                     reverse=True)[:top_n]
    for record in slowest:
        lines.append(
            f"  {record['wall_time_s']:8.3f}s  {record['key']}")
    return "\n".join(lines)
