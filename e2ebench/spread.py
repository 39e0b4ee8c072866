"""Measure the benchmark's run-to-run spread and its baseline.

Usage, from the root of a checkout::

    python3 e2ebench/spread.py [--runs 10] [--write] [WORKLOAD...]

Runs ``run.py`` once per seed ``1..runs`` on each workload (all by
default) and prints, for every end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, which must stay below a third of the metric's
bound in ``BENCHMARK.json``, and then each run's value in seed order.
``--write`` also stores these figures, and the per-layer metrics of one
traced run at the default seed (counts as they are, self times as
shares of the traced wall), as the baseline in ``ledger.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

#: The CLI's own default seed; the references were recorded with it.
DEFAULT_SEED = 2010
LEDGER = run.HERE / "ledger.json"


def _run(workload: str, seed: int, seconds: int, traced: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(traced)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its output "
                         f"check:\n{completed.stderr}")
    return result


def layer_baseline(workload: str, seconds: int) -> dict[str, float]:
    """Per-layer metrics of one traced run at the default seed.

    Counts and ratios are kept as measured; self times become shares of
    the traced wall of their pass, which stays in seconds, as does the
    tracing overhead.
    """
    result = _run(workload, DEFAULT_SEED, seconds, 1)["metrics"]
    shares = {}
    for name, metric in result.items():
        value = metric["value"]
        if (metric["unit"] == "s" and not name.endswith("trace.wall_s")
                and name != "trace.overhead_s"):
            wall = ("replay.trace.wall_s" if name.startswith("replay.")
                    else "trace.wall_s")
            value /= result[wall]["value"]
        shares[name] = value
    return shares


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=sorted(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {}
    for workload in args.workloads:
        results = [_run(workload, seed, spec["run_seconds"], 0)
                   for seed in range(1, args.runs + 1)]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "n": len(values), "spread": spread}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:9s} {name:24s} median {median:12.4f} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:.4f} "
                  f"bound {bound} {flag}\n{'':9s} {'runs':24s} "
                  + " ".join(f"{value:.5g}" for value in values),
                  flush=True)
        rows["layers_at_default_seed"] = layer_baseline(
            workload, spec["run_seconds"])
        baseline[workload] = rows
    if args.write:
        ledger = json.loads(LEDGER.read_text())
        ledger["baseline"].update(baseline)
        LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
