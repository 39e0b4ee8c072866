"""Durable run-event stream: an append-only JSONL spool with live tails.

Long-running modes (sweep/campaign/soak) were black boxes while they
ran — ``repro.obs`` snapshots flush at exit and each CLI hand-rolled a
status line.  This module is the streaming layer underneath live
monitoring: an :class:`EventPublisher` appends one JSON object per run
event to ``events.jsonl`` inside the run's obs directory, and an
:class:`EventStreamReader` tails that file incrementally (from this or
any other process), tolerating the torn final line an abrupt death can
leave behind.

Event framing
-------------
Line 0 is a header (``type="header"``) carrying the schema version, a
run id, the run kind, and the heartbeat interval.  Every subsequent
event carries:

* ``seq`` — monotone sequence number (gaps mean dropped writes and are
  reported by the reader);
* ``wall`` — ``time.time()`` seconds (cross-process comparable; this is
  what staleness detection measures against);
* ``mono_ns`` — ``time.perf_counter_ns()`` of the *writing* process
  (meaningful only relative to other events in the same file; this is
  what rate estimation measures against, immune to wall-clock steps);
* ``type`` — the event kind (``run_start``, ``phase_start``,
  ``progress``, ``round``, ``retry``, ``crash``, ``quarantine``,
  ``fallback``, ``checkpoint``, ``metrics``, ``heartbeat``, ``drain``,
  ``phase_end``, ``run_end``).

Durability is deliberately weaker than the soak journal's: events are
*telemetry*, not replay state, so ``append`` flushes but does not fsync
per record (the <2% overhead gate in ``BENCH_monitor.json`` depends on
this).  The read side reuses the journal's truncation discipline: only
the final line may fail to parse; damage with complete lines after it
raises :class:`StreamCorrupt`.

The publisher also fans events out to in-process listener callbacks —
the CLI's live status line subscribes there, folding the *same* events
``repro-timber monitor`` folds from disk, so the two can never disagree.

A daemon heartbeat thread emits a ``heartbeat`` event whenever nothing
else has been written for half the heartbeat interval; a reader that
sees no event for more than one full interval may therefore conclude
the writer is dead (the ``stale`` rule in :mod:`repro.obs.health`).
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import threading
import time
import typing

from repro.errors import ReproError

logger = logging.getLogger("repro.obs")

STREAM_SCHEMA_VERSION = 1

#: Conventional spool filename inside a run's obs directory.
EVENTS_FILENAME = "events.jsonl"

#: Default heartbeat interval — the liveness contract's unit.
DEFAULT_HEARTBEAT_S = 5.0

#: Minimum seconds between throttled ``progress`` events.
DEFAULT_PROGRESS_EVERY_S = 0.5

#: Minimum seconds between periodic registry snapshot-delta events.
DEFAULT_METRICS_EVERY_S = 5.0


class StreamCorrupt(ReproError):
    """The event spool is damaged in a way a crash cannot explain."""


def _default_run_id(kind: str) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{kind}-{stamp}-{os.getpid()}"


class EventPublisher:
    """Fans run events out to the JSONL spool and in-process listeners.

    Thread-safe: the heartbeat thread, pool-completion callbacks, and
    the main dispatch loop all emit through one re-entrant lock.  A
    failing file sink degrades to listeners-only with a single warning
    — telemetry must never abort the scientific run it narrates.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 kind: str = "run",
                 run_id: str | None = None,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 meta: dict | None = None,
                 registry: typing.Any = None,
                 progress_every_s: float = DEFAULT_PROGRESS_EVERY_S,
                 metrics_every_s: float = DEFAULT_METRICS_EVERY_S) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self.kind = kind
        self.run_id = run_id or _default_run_id(kind)
        self.heartbeat_s = max(0.05, float(heartbeat_s))
        self.meta = dict(meta or {})
        self.registry = registry
        self.progress_every_s = progress_every_s
        self.metrics_every_s = metrics_every_s
        self._lock = threading.RLock()
        self._handle: typing.IO[bytes] | None = None
        self._listeners: list[typing.Callable[[dict], None]] = []
        self._seq = 0
        self._last_emit_ns = time.perf_counter_ns()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._pending_drain: int | None = None
        self._ended = False
        #: The only count the publisher keeps itself: checkpoints never
        #: pass through the telemetry it reads every other total from.
        self._checkpoints = 0
        self._telemetry: typing.Any = None
        self._track_phases = True
        self._phase: str | None = None
        self._total_units: int | None = None
        self._dirty = False
        self._last_progress_ns = 0
        self._last_metrics_ns = time.perf_counter_ns()
        self._metrics_before: dict | None = None

    # -- lifecycle ---------------------------------------------------------
    def open(self) -> "EventPublisher":
        """Write the header, open the spool, start the heartbeat."""
        with self._lock:
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "wb")
            if self.registry is not None:
                self._metrics_before = self.registry.snapshot()
            self._write({
                "type": "header",
                "schema": STREAM_SCHEMA_VERSION,
                "run_id": self.run_id,
                "kind": self.kind,
                "heartbeat_s": self.heartbeat_s,
                "pid": os.getpid(),
                "meta": self.meta,
            })
            if self._handle is not None:
                # One durability point: the header names the run; losing
                # it would orphan the whole spool.
                self._handle.flush()
                os.fsync(self._handle.fileno())
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._heartbeat_loop, name="obs-events-heartbeat",
            daemon=True)
        self._thread.start()
        return self

    def close(self, status: str | None = None, **fields: typing.Any) -> None:
        """Flush pending progress, optionally emit ``run_end``, stop."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        with self._lock:
            if (self._telemetry is not None
                    and self._on_telemetry in self._telemetry.listeners):
                self._telemetry.listeners.remove(self._on_telemetry)
            self._emit_pending_drain()
            self._maybe_progress(force=True)
            if status is not None and not self._ended:
                self.emit("run_end", status=status, **fields)
            if self._handle is not None:
                try:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                    self._handle.close()
                finally:
                    self._handle = None

    def __enter__(self) -> "EventPublisher":
        return self.open()

    def __exit__(self, *exc_info: typing.Any) -> None:
        self.close()

    # -- emission ----------------------------------------------------------
    def add_listener(self, listener: typing.Callable[[dict], None]) -> None:
        """Subscribe an in-process callback to every emitted event."""
        self._listeners.append(listener)

    def emit(self, etype: str, **fields: typing.Any) -> dict:
        """Append one event (spool + listeners) and return it."""
        with self._lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "type": etype,
                "wall": time.time(),
                "mono_ns": time.perf_counter_ns(),
                **fields,
            }
            self._last_emit_ns = event["mono_ns"]
            if etype == "run_end":
                self._ended = True
            self._write(event)
            for listener in list(self._listeners):
                try:
                    listener(event)
                except Exception:  # pragma: no cover - defensive
                    logger.warning("obs event listener failed",
                                   exc_info=True)
            return event

    def _write(self, record: dict) -> None:
        if self._handle is None:
            return
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":"), default=str)
        try:
            self._handle.write(line.encode("utf-8") + b"\n")
            # Flush (so tails see it promptly) but do not fsync: events
            # are telemetry, and per-record fsync would blow the <2%
            # overhead budget on fast sweeps.
            self._handle.flush()
        except OSError:
            logger.warning("obs event spool write failed; disabling "
                           "file sink", exc_info=True)
            try:
                self._handle.close()
            except OSError:  # pragma: no cover
                pass
            self._handle = None

    # -- run lifecycle events ----------------------------------------------
    def run_start(self, *, total: int | None = None,
                  unit: str = "tasks",
                  **fields: typing.Any) -> None:
        with self._lock:
            self._total_units = total
            self.emit("run_start", kind=self.kind, total=total,
                      unit=unit, **fields)

    def run_end(self, status: str = "ok", **fields: typing.Any) -> None:
        with self._lock:
            self._emit_pending_drain()
            self._maybe_progress(force=True)
            self.emit("run_end", status=status, **fields)

    def checkpoint(self, **fields: typing.Any) -> None:
        with self._lock:
            self._checkpoints += 1
            self.emit("checkpoint", total=self._checkpoints, **fields)

    def note_drain(self, signum: int) -> None:
        """Record a drain request from a signal handler.

        Handler-safe: only sets a field; the heartbeat thread (or the
        next emission) writes the actual ``drain`` event.
        """
        self._pending_drain = signum

    def _emit_pending_drain(self) -> None:
        if self._pending_drain is not None:
            signum, self._pending_drain = self._pending_drain, None
            self.emit("drain", signum=signum)

    # -- telemetry bridge --------------------------------------------------
    def attach(self, telemetry: typing.Any, *,
               track_phases: bool = True) -> "EventPublisher":
        """Subscribe to a :class:`~repro.exec.telemetry.RunTelemetry`.

        Batch completions, task outcomes, retries, crashes, and
        quarantines flow into the spool without the runner knowing the
        publisher exists; every total an event carries is read from the
        telemetry's run tally, so the spool and the run summary count
        the same thing.  ``track_phases=False`` suppresses
        ``phase_start``/``phase_end`` for callers whose unit of
        progress is not the runner's (soak emits ``round`` events and
        would otherwise open a phase per round).
        """
        self._track_phases = track_phases
        self._telemetry = telemetry
        telemetry.listeners.append(self._on_telemetry)
        return self

    def _on_telemetry(self, kind: str, payload: typing.Any) -> None:
        with self._lock:
            self._emit_pending_drain()
            run = self._telemetry.run_tally
            if kind == "start":
                if self._track_phases:
                    self.emit("phase_start", phase=self._phase,
                              total=payload["num_tasks"],
                              workers=payload["workers"])
            elif kind in ("task", "batch"):
                if kind == "task" and payload.status == "poisoned":
                    self.emit("quarantine", key=payload.key,
                              total=len(run.poisoned))
                self._dirty = True
                self._maybe_progress()
            elif kind in ("retry", "crash", "fallback"):
                rare = {"retry": run.retries, "crash": run.crashes,
                        "fallback": run.fallbacks}[kind]
                self.emit(kind, **payload, total=len(rare))
            elif kind == "finish":
                self._maybe_progress(force=True)
                if self._track_phases:
                    self.emit("phase_end", phase=self._phase,
                              wall_time_s=payload.get("wall_time_s"))

    def set_phase(self, phase: str | None) -> None:
        """Name the next phase (e.g. the campaign scheme about to run)."""
        with self._lock:
            self._phase = phase

    def _maybe_progress(self, force: bool = False) -> None:
        now_ns = time.perf_counter_ns()
        if self._dirty and (
                force or (now_ns - self._last_progress_ns)
                >= self.progress_every_s * 1e9):
            self._dirty = False
            self._last_progress_ns = now_ns
            telemetry = self._telemetry
            run = telemetry.run_tally
            # The whole cumulative count set, so any prefix of the spool
            # is self-contained.  The heartbeat thread may read a task
            # half-counted; every tally update is followed by a notify
            # that marks the publisher dirty, so the next progress
            # (forced at phase end) carries the settled totals.
            self.emit("progress", phase=self._phase,
                      phase_total=telemetry.num_tasks,
                      total=self._total_units,
                      workers=telemetry.workers,
                      busy_s=round(run.busy_s, 6),
                      done=run.tasks, executed=run.executed,
                      cached=run.cached, resumed=run.resumed,
                      poisoned=len(run.poisoned),
                      retries=len(run.retries),
                      crashes=len(run.crashes),
                      fallbacks=len(run.fallbacks),
                      batches=run.batches,
                      events_processed=run.events_processed,
                      checkpoints=self._checkpoints)
        if (self.registry is not None
                and self._metrics_before is not None
                and (force or (now_ns - self._last_metrics_ns)
                     >= self.metrics_every_s * 1e9)):
            self._last_metrics_ns = now_ns
            after = self.registry.snapshot()
            from repro.obs.registry import snapshot_delta

            delta = snapshot_delta(self._metrics_before, after)
            if delta:
                self._metrics_before = after
                self.emit("metrics", delta=delta)

    # -- heartbeat ---------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        # Tick at a quarter interval and emit whenever nothing has been
        # written for half an interval: a live writer's longest silent
        # gap is therefore ~0.75x heartbeat_s, so a reader observing a
        # gap past one full interval knows the writer is gone.
        tick = max(self.heartbeat_s / 4.0, 0.02)
        while not self._stop.wait(tick):
            with self._lock:
                self._emit_pending_drain()
                self._maybe_progress()
                gap_s = (time.perf_counter_ns()
                         - self._last_emit_ns) / 1e9
                if gap_s >= self.heartbeat_s / 2.0:
                    self.emit("heartbeat")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

class EventStreamReader:
    """Incremental, torn-tail-tolerant reader over an event spool.

    ``poll()`` returns the events appended since the previous call and
    never advances past an incomplete tail, so a live ``--follow`` tail
    and a post-mortem read share one code path.  An unparseable final
    line is presumed torn and left pending; if a later poll finds
    complete lines *after* it, the damage cannot be a crash artefact
    and :class:`StreamCorrupt` is raised — the same discipline as the
    soak journal.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self.header: dict | None = None
        self.last_seq = 0
        #: Sequence gaps observed (count of missing events).
        self.dropped = 0
        self._offset = 0

    def poll(self) -> list[dict]:
        """Parse and return events appended since the last poll."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                raw = handle.read()
        except OSError:
            return []
        if not raw:
            return []
        events: list[dict] = []
        consumed = 0
        segments = raw.split(b"\n")[:-1]
        for index, line in enumerate(segments):
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("event line is not an object")
            except (ValueError, UnicodeDecodeError) as error:
                if index == len(segments) - 1:
                    # Possibly a torn terminated line; leave the offset
                    # before it and re-judge on the next poll.
                    break
                raise StreamCorrupt(
                    f"{self.path}: unreadable event at byte "
                    f"{self._offset + consumed} ({error}) with "
                    f"records after it") from error
            consumed += len(line) + 1
            if self._offset == 0 and index == 0:
                if record.get("type") != "header":
                    raise StreamCorrupt(
                        f"{self.path}: first record is not a header")
                if record.get("schema") != STREAM_SCHEMA_VERSION:
                    raise StreamCorrupt(
                        f"{self.path}: schema {record.get('schema')!r} "
                        f"(expected {STREAM_SCHEMA_VERSION})")
                self.header = record
            else:
                seq = record.get("seq")
                if isinstance(seq, int):
                    if self.last_seq and seq > self.last_seq + 1:
                        self.dropped += seq - self.last_seq - 1
                    self.last_seq = max(self.last_seq, seq)
                events.append(record)
        self._offset += consumed
        return events


def read_events(path: str | os.PathLike
                ) -> tuple[dict | None, list[dict]]:
    """One-shot read: ``(header, events)`` for a spool on disk.

    A missing or empty file yields ``(None, [])``; a torn tail is
    ignored; mid-file damage raises :class:`StreamCorrupt`.
    """
    reader = EventStreamReader(path)
    events = reader.poll()
    return reader.header, events


def events_path(run_dir: str | os.PathLike) -> pathlib.Path:
    """Resolve the spool path for a run directory (or direct file).

    Accepts the ``--obs-out`` directory, a directory holding an ``obs``
    subdirectory, or a path straight to the JSONL file.
    """
    base = pathlib.Path(run_dir)
    if base.is_file():
        return base
    direct = base / EVENTS_FILENAME
    if direct.exists():
        return direct
    nested = base / "obs" / EVENTS_FILENAME
    if nested.exists():
        return nested
    raise FileNotFoundError(
        f"no event stream under {base} (looked for {direct} and "
        f"{nested})")
