"""End-to-end benchmark of the ``repro-timber`` command line.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload campaign|soak|sweep --seed N \\
        --seconds S --trace 0|1

Every command runs as a user runs it: a fresh interpreter started on
``src/`` with default flags (``--workers 1``), in fresh directories
under ``.e2ebench-work/``, with every ``REPRO_*`` variable removed from
its environment.  One iteration runs the workload's smallest input (the
set-up time), the workload cold, and then the identical command again,
``REPLAYS`` times, over the state the cold pass left behind (the replay
passes).  Iterations repeat for ``--seconds``; the metrics summarise
all of them (see :func:`measure`).

The host is a few cores shared with other tenants, and their load
changes the speed of a core by up to half over seconds to minutes; a
run's median follows it.  So every command runs on one pinned core,
and before and after each command the benchmark times a fixed probe
(:func:`probe`) on that core.  Timed metrics are reported at the
probe's reference speed: a command's wall time is scaled by
``PROBE_REFERENCE_S`` over the mean of the probes around it.  A program
change moves them as it moves wall time; host load mostly cancels.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced iterations with iterations run through ``tracer.py``, which
wraps each layer's public functions in the same process as the
command, and prints the per-layer self times and counts plus the
tracing overhead (traced minus untraced wall).

Every pass's outputs (campaign coverage counts, soak estimates and
journal digest, sweep result rows) must equal the reference recorded in
``references.json`` for the seed, or, for a seed without one, the
first cold pass of the run; each pass must also satisfy its workload's
identities.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import typing

import numpy

import tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

#: A hung command is killed after this long, so a run always ends.
COMMAND_TIMEOUT_S = 120.0
#: Replay passes per iteration of an untraced run (see measure()).
REPLAYS = 3
#: About the seconds :func:`probe` takes on an uncontended core of a
#: 2.0 GHz Xeon host; timed metrics are reported at this speed.
PROBE_REFERENCE_S = 0.05

# Sized so one iteration takes about 5 s on a 2-core host: a 40-s run
# then holds about 8 iterations, and each cold pass still spends most
# of its wall in the layers rather than in interpreter start-up.
SCHEMES = ("plain", "timber-ff", "timber-latch")
CAMPAIGN_FAULTS = 3000
SOAK_ROUNDS = 60
SOAK_FAULTS_PER_ROUND = 200
SWEEP_CYCLES = 10000
SWEEP_POINTS = 20


class CheckFailed(Exception):
    """A command's outputs broke a reference or an identity."""


@dataclasses.dataclass(frozen=True)
class Workload:
    """One CLI command, its smallest input, and how to read its outputs.

    ``read(run_dir, stdout)`` returns the outputs the check compares
    (seed-determined) and the pass facts (work items, whether the pass
    only replayed persisted state); ``identities`` raises
    :class:`CheckFailed` when the outputs are inconsistent in
    themselves.
    """

    name: str
    cold: tuple[str, ...]
    setup: tuple[str, ...]
    replay_extra: tuple[str, ...]
    read: typing.Callable[[pathlib.Path, str], tuple[dict, dict]]
    identities: typing.Callable[[dict], None]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _campaign_read(run_dir: pathlib.Path, stdout: str
                   ) -> tuple[dict, dict]:
    data = json.loads((run_dir / "out.json").read_text())
    reports = [{"scheme": report["scheme"],
                "num_faults": report["num_faults"],
                "counts": report["counts"]} for report in data["reports"]]
    telemetry = data["telemetry"]
    return {"reports": reports}, {
        "items": sum(sum(r["counts"].values()) for r in reports),
        "replayed": telemetry["cache_hits"] == telemetry["tasks"],
    }


def _campaign_identities(outputs: dict) -> None:
    reports = outputs["reports"]
    _require([r["scheme"] for r in reports] == list(SCHEMES),
             "campaign: schemes missing from the report")
    for report in reports:
        _require(sum(report["counts"].values()) == report["num_faults"]
                 == CAMPAIGN_FAULTS,
                 f"campaign: {report['scheme']} classified "
                 f"{sum(report['counts'].values())} of "
                 f"{report['num_faults']} faults")
    # Every scheme sees the same population, so the faults that leave
    # the pipeline untouched are the same for all of them.
    _require(len({r["counts"]["benign"] for r in reports}) == 1,
             "campaign: benign counts differ between schemes")


def _soak_read(run_dir: pathlib.Path, stdout: str) -> tuple[dict, dict]:
    data = json.loads((run_dir / "out.json").read_text())
    journal = (run_dir / "journal.jsonl").read_bytes().splitlines()
    outputs = {key: data[key] for key in (
        "rounds", "total_faults", "stop_reason", "overall",
        "per_stratum")}
    outputs["journal_digest"] = json.loads(journal[-1])["digest"]
    outputs["journal_records"] = len(journal) - 1
    return outputs, {"items": data["total_faults"],
                     "replayed": data["faults_evaluated"] == 0}


def _soak_identities(outputs: dict) -> None:
    _require(outputs["stop_reason"] == "max_rounds"
             and outputs["rounds"] == outputs["journal_records"]
             == SOAK_ROUNDS,
             f"soak: stopped by {outputs['stop_reason']} after "
             f"{outputs['rounds']} round(s)")
    _require(outputs["total_faults"] == SOAK_ROUNDS * SOAK_FAULTS_PER_ROUND
             == sum(s["n"] for s in outputs["per_stratum"]),
             "soak: per-stratum samples do not add up to the total")
    strata = outputs["per_stratum"]
    _require(all(sum(s["counts"].values()) == s["n"] for s in strata),
             "soak: stratum class counts do not add up to its samples")
    # The overall estimate weights every stratum equally.
    rates = [s["escaped"] / s["n"] if s["n"] else 0.0 for s in strata]
    _require(abs(sum(rates) / len(rates)
                 - outputs["overall"]["escape_rate"]) < 1e-12,
             "soak: overall escape rate is not the strata's mean")


def _sweep_read(run_dir: pathlib.Path, stdout: str) -> tuple[dict, dict]:
    lines = stdout.splitlines()
    first = next(i for i, line in enumerate(lines)
                 if line.startswith("---")) + 1
    last = lines.index("", first)
    summary = json.loads((run_dir / "summary.json").read_text())
    rows = [line.split() for line in lines[first:last]]
    return {"rows": rows, "poisoned": len(summary["poisoned"]),
            "tasks": summary["tasks"]}, {
        "items": len(rows) * SWEEP_CYCLES,
        "replayed": summary["cache_hits"] == summary["tasks"],
    }


def _sweep_identities(outputs: dict) -> None:
    _require(outputs["poisoned"] == 0
             and len(outputs["rows"]) == outputs["tasks"] == SWEEP_POINTS,
             f"sweep: {len(outputs['rows'])} row(s) from "
             f"{outputs['tasks']} task(s), {outputs['poisoned']} poisoned")


WORKLOADS = {
    "campaign": Workload(
        name="campaign",
        cold=("campaign", "--target", "pipeline",
              "--schemes", ",".join(SCHEMES), "--cycles", "4000",
              "--faults", str(CAMPAIGN_FAULTS), "--cache-dir", "cache",
              "--out", "out.json"),
        setup=("campaign", "--target", "pipeline",
               "--schemes", ",".join(SCHEMES), "--cycles", "4000",
               "--faults", "1", "--cache-dir", "cache",
               "--out", "out.json"),
        replay_extra=(),
        read=_campaign_read,
        identities=_campaign_identities,
    ),
    "soak": Workload(
        name="soak",
        cold=("soak", "--target", "graph", "--scheme", "timber-ff",
              "--cycles", "2000", "--rounds", str(SOAK_ROUNDS),
              "--faults-per-round", str(SOAK_FAULTS_PER_ROUND),
              "--journal", "journal.jsonl",
              "--checkpoint", "checkpoint.json", "--quiet",
              "--out", "out.json"),
        setup=("soak", "--target", "graph", "--scheme", "timber-ff",
               "--cycles", "2000", "--rounds", "1",
               "--faults-per-round", "1", "--journal", "journal.jsonl",
               "--checkpoint", "checkpoint.json", "--quiet"),
        replay_extra=("--resume",),
        read=_soak_read,
        identities=_soak_identities,
    ),
    "sweep": Workload(
        name="sweep",
        cold=("sweep", "resilience", "--cycles", str(SWEEP_CYCLES),
              "--cache-dir", "cache", "--summary", "summary.json"),
        setup=("sweep", "resilience", "--cycles", "1",
               "--cache-dir", "cache"),
        replay_extra=(),
        read=_sweep_read,
        identities=_sweep_identities,
    ),
}

#: Per-layer metric -> the span whose self time it is (see tracer.py).
SPAN_METRICS = {
    "startup.import_s": "startup.import",
    "campaign.draw_s": "campaign.draw",
    "campaign.chunk_self_s": "campaign.chunk",
    "campaign.evaluator_s": "campaign.evaluator",
    "campaign.report_s": "campaign.report",
    "pipeline.trajectory_s": "pipeline.trajectory",
    "pipeline.sim_run_s": "pipeline.sim_run",
    "kernels.machine_s": "kernels.machine",
    "exec.runner_self_s": "exec.runner",
    "exec.cache_get_s": "exec.cache_get",
    "exec.cache_put_s": "exec.cache_put",
    "soak.chunk_self_s": "soak.chunk",
    "soak.draw_s": "soak.draw",
    "soak.journal_s": "soak.journal",
    "soak.journal_read_s": "soak.journal_read",
    "soak.checkpoint_s": "soak.checkpoint",
    "obs.emit_s": "obs.emit",
    "trace.unattributed_s": tracer.ROOT,
}
COUNT_METRICS = ("kernels.lanes", "exec.tasks", "exec.tasks_failed",
                 "exec.cache_entries", "exec.cache_bytes_written",
                 "soak.journal_bytes")
#: Layers reported for the replay pass too, under ``replay.``.
REPLAY_METRICS = ("startup.import_s", "exec.runner_self_s",
                  "exec.cache_get_s", "exec.cache_hit_ratio",
                  "soak.journal_read_s", "obs.emit_s",
                  "trace.unattributed_s", "trace.wall_s")


_PROBE_ROWS = [{"id": i, "values": [i * 0.5] * 8} for i in range(200)]
_PROBE_ARRAY = numpy.linspace(0.0, 2.0, 64 * 256).reshape(64, 256)
#: About the size of one result-cache entry of the campaign workload.
_PROBE_ENTRY = json.dumps(_PROBE_ROWS[:85]).encode("utf-8")


def probe(directory: pathlib.Path) -> float:
    """Seconds a fixed mix of the program's kinds of work takes here.

    An interpreter loop, JSON and SHA-256 (as in the result cache and
    journal), small numpy array operations (as in the lane machines),
    and files written under ``directory`` and renamed into place (as
    the result cache stores entries).  Within a run its time follows
    the commands' wall times (correlation 0.5-0.9 on a 2-core host).
    """
    directory.mkdir(exist_ok=True)
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(30):
        encoded = json.dumps(_PROBE_ROWS).encode("utf-8")
        hashlib.sha256(encoded).hexdigest()
        json.loads(encoded)
    for _ in range(200):
        scaled = _PROBE_ARRAY * 1.5 + _PROBE_ARRAY
        scaled.sum(axis=0)
        numpy.where(scaled > 1.0, scaled, 0.0)
    for i in range(20):
        fd, name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(_PROBE_ENTRY)
        os.replace(name, directory / f"{i}.json")
    return time.perf_counter() - started


def _pin_to_one_core() -> None:
    """Run this process and the commands it starts on one core.

    The probe then measures the core the command runs on.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _digest(outputs: dict) -> str:
    encoded = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclasses.dataclass
class Pass:
    """One finished command: wall time, peak memory, outputs.

    ``host_s`` is the wall time at the probe's reference speed, or the
    wall time itself when the bench does not probe.
    """

    wall_s: float
    rss_mb: float
    outputs: dict
    facts: dict
    trace: dict | None = None
    host_s: float = 0.0


class Bench:
    """Runs one workload's passes and keeps the tallies and checks."""

    def __init__(self, workload: Workload, seed: int,
                 work_root: pathlib.Path, expected: str | None, *,
                 probing: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.work_root = work_root
        #: Digest every pass's outputs must match; ``None`` adopts the
        #: first pass's.
        self.expected = expected
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.probing = probing
        #: Seconds of the probe that ended last, which is the probe
        #: before the next command.
        self._last_probe: float | None = None

    def fresh_dir(self) -> pathlib.Path:
        return pathlib.Path(tempfile.mkdtemp(dir=self.work_root))

    def _launch(self, argv: list[str], run_dir: pathlib.Path
                ) -> tuple[float, float, str]:
        """Run one process to completion; (wall s, peak RSS MB, stdout)."""
        out_path, err_path = run_dir / ".stdout", run_dir / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=run_dir, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise CheckFailed(
                f"{' '.join(argv[1:])} exited {proc.returncode}: "
                f"{err_path.read_text(errors='replace')[-2000:]}")
        # ru_maxrss is in KiB on Linux.
        return wall, usage.ru_maxrss / 1024.0, out_path.read_text()

    def run_pass(self, args: tuple[str, ...], run_dir: pathlib.Path, *,
                 traced: bool = False, check: bool = True
                 ) -> Pass | None:
        """Run one CLI command and check its outputs.

        Returns ``None`` when the command failed or left outputs that
        cannot be read.  Outputs that can be read but break a check
        count as failed and still return the pass, so the timings of a
        run that computes wrong results are reported next to
        ``correct: false``.
        """
        self.attempted += 1
        argv = [sys.executable]
        if traced:
            argv += [str(HERE / "tracer.py"), str(run_dir / ".trace.json")]
        else:
            argv += ["-m", "repro.cli"]
        argv += list(args) + ["--seed", str(self.seed)]
        try:
            probe_dir = self.work_root / "probe"
            if self.probing and self._last_probe is None:
                self._last_probe = probe(probe_dir)
            wall, rss, stdout = self._launch(argv, run_dir)
            host = wall
            if self.probing:
                before, self._last_probe = self._last_probe, probe(probe_dir)
                host *= PROBE_REFERENCE_S * 2 / (before + self._last_probe)
            if not check:
                return Pass(wall, rss, {}, {}, host_s=host)
            outputs, facts = self.workload.read(run_dir, stdout)
            record = (json.loads((run_dir / ".trace.json").read_text())
                      if traced else None)
        except (CheckFailed, OSError, ValueError, KeyError,
                StopIteration) as error:
            self.fail(f"{type(error).__name__}: {error}")
            return None
        try:
            self.workload.identities(outputs)
            if self.expected is None:
                self.expected = _digest(outputs)
            _require(_digest(outputs) == self.expected,
                     f"{self.workload.name}: outputs differ from the "
                     f"reference for seed {self.seed}: "
                     f"{json.dumps(outputs, sort_keys=True)[:600]}")
        except CheckFailed as error:
            self.fail(str(error))
        return Pass(wall, rss, outputs, facts, record, host)

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def iteration(self, *, traced: bool = False, replays: int = 1
                  ) -> tuple[Pass | None, list[Pass]]:
        """The cold pass, then ``replays`` replay passes over its state.

        Replaying leaves the state as it found it, so every replay pass
        does the same work.
        """
        run_dir = self.fresh_dir()
        try:
            cold = self.run_pass(self.workload.cold, run_dir,
                                 traced=traced)
            if cold is None:
                return None, []
            done = []
            for _ in range(replays):
                replay = self.run_pass(
                    self.workload.cold + self.workload.replay_extra,
                    run_dir, traced=traced)
                if replay is None:
                    continue
                if not replay.facts["replayed"]:
                    self.fail(f"{self.workload.name}: the replay pass "
                              f"recomputed work")
                done.append(replay)
            return cold, done
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def setup_pass(self) -> Pass | None:
        run_dir = self.fresh_dir()
        try:
            return self.run_pass(self.workload.setup, run_dir, check=False)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


def _layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = record["spans"]
    times = tracer.layer_times(spans)
    counts = record["counts"]
    metrics = {name: times.get(span, 0.0)
               for name, span in SPAN_METRICS.items()}
    metrics.update({name: float(counts.get(name, 0))
                    for name in COUNT_METRICS})
    gets = counts.get("exec.cache_gets", 0)
    metrics["exec.cache_hit_ratio"] = (
        counts.get("exec.cache_hits", 0) / gets if gets else 0.0)
    _name, start, end, _parent = spans[0]
    metrics["trace.wall_s"] = end - start
    metrics["trace.coverage"] = 1.0 - (metrics["trace.unattributed_s"]
                                       / metrics["trace.wall_s"])
    return metrics


def _iterations(seconds: float) -> typing.Iterator[int]:
    """Iteration numbers while another iteration fits in ``seconds``.

    The first iteration always runs; a later one starts only if, at the
    pace of the last, it ends within the budget.
    """
    started = time.perf_counter()
    index = 0
    while True:
        begun = time.perf_counter()
        yield index
        index += 1
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            return


def _medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(values)
            for name, values in samples.items() if values}


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics over the passes of ``seconds``.

    Times are at the probe's reference speed (``Pass.host_s``).  A
    throughput is the items of all the run's passes of its kind over
    their summed time, which is steadier than a median of per-pass
    rates; set-up time and memory are medians.  The replay pass is
    short, and timing noise on a shared host is correlated over about a
    second, so each iteration runs it ``REPLAYS`` times to give it about
    as much measured time as the cold pass.
    """
    passes: dict[str, list[Pass]] = {"setup": [], "cold": [], "replay": []}
    rss: list[float] = []
    for _ in _iterations(seconds):
        setup = bench.setup_pass()
        if setup is not None:
            passes["setup"].append(setup)
        cold, replays = bench.iteration(replays=REPLAYS)
        if cold is None:
            continue
        passes["cold"].append(cold)
        passes["replay"] += replays
        rss.append(max([cold.rss_mb] + [replay.rss_mb for replay in replays]))
    if not (rss and all(passes.values())):
        return {}
    # Unscaled, for reading how loaded the host was.
    print("median wall s: " + ", ".join(
        f"{kind} {statistics.median(p.wall_s for p in done):.4f}"
        for kind, done in passes.items()), file=sys.stderr)

    def rate(done: list[Pass]) -> float:
        return (sum(p.facts["items"] for p in done)
                / sum(p.host_s for p in done))

    return {
        "throughput_per_s": rate(passes["cold"]),
        "replay_throughput_per_s": rate(passes["replay"]),
        "setup_s": statistics.median(p.host_s for p in passes["setup"]),
        "peak_rss_mb": statistics.median(rss),
        "ok_share": 1.0 - bench.failed / bench.attempted,
    }


def measure_layers(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-layer metrics: traced iterations alternating with untraced."""
    samples: dict[str, list[float]] = collections.defaultdict(list)
    for index in _iterations(seconds):
        order = (False, True) if index % 2 == 0 else (True, False)
        passes = {traced: bench.iteration(traced=traced)
                  for traced in order}
        (cold, replays), (t_cold, t_replays) = passes[False], passes[True]
        if None in (cold, t_cold) or not (replays and t_replays):
            continue
        metrics = _layer_metrics(t_cold.trace)
        replayed = _layer_metrics(t_replays[0].trace)
        metrics.update({f"replay.{name}": replayed[name]
                        for name in REPLAY_METRICS})
        metrics["trace.overhead_s"] = t_cold.wall_s - cold.wall_s
        metrics["trace.overhead_share"] = (metrics["trace.overhead_s"]
                                           / cold.wall_s)
        for name, value in metrics.items():
            samples[name].append(value)
    return _medians(samples)


def _declared(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the running command is killed
    # and reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    _pin_to_one_core()
    work_root = ROOT / ".e2ebench-work"
    work_root.mkdir(exist_ok=True)
    work_root = pathlib.Path(tempfile.mkdtemp(dir=work_root))
    try:
        references = json.loads(REFERENCES.read_text())
        bench = Bench(WORKLOADS[args.workload], args.seed, work_root,
                      references[args.workload].get(str(args.seed)),
                      probing=not args.trace)
        # Compiles the sources to bytecode once, as an installation
        # would, so the first measured pass does not pay for it.
        if bench.setup_pass() is None:
            return 1
        bench.attempted = bench.failed = 0
        metrics = (measure_layers(bench, args.seconds) if args.trace
                   else measure(bench, args.seconds))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if not metrics:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in _declared(args.trace).items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
