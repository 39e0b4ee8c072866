"""Record the reference outputs the benchmark checks every pass against.

Usage, from the root of a checkout of the commit whose outputs are the
reference::

    python3 e2ebench/record.py SEED...

Runs each workload's cold pass once per seed and writes the SHA-256 of
its checked outputs to ``references.json``, plus the outputs themselves
for the first seed, so a mismatch can be read against them.  Record
again only when a change is meant to alter what the commands compute,
or when a workload's size changes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile

import run


def main(seeds: list[int]) -> int:
    work_root = run.ROOT / ".e2ebench-work"
    work_root.mkdir(exist_ok=True)
    work_root = pathlib.Path(tempfile.mkdtemp(dir=work_root))
    references: dict = {"seeds": seeds, "outputs": {}}
    try:
        for name, workload in run.WORKLOADS.items():
            references[name] = {}
            for seed in seeds:
                bench = run.Bench(workload, seed, work_root, None)
                run_dir = bench.fresh_dir()
                done = bench.run_pass(workload.cold, run_dir)
                if done is None:
                    return 1
                references[name][str(seed)] = bench.expected
                references["outputs"].setdefault(name, done.outputs)
                print(f"{name} seed {seed}: {bench.expected}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(seed) for seed in sys.argv[1:]]))
