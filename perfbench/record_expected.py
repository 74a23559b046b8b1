"""Record the essential output fields of the first blocks of every workload.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_expected.py

It runs BLOCKS blocks of each workload with the default seed, untraced,
requires every identity check to pass, and writes expected_seed0.json.gz,
which run.py compares reports against whenever it runs with that seed.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import bench_checks
import bench_inputs
from run import DEFAULT_SEED, EXPECTED_FILE, OUT_DIR, ROOT, import_package, run_session

BLOCKS = 12


def main() -> int:
    _package, modules = import_package()
    cli = modules["cli"]
    work_dir = OUT_DIR / f"record-{os.getpid()}"
    work_dir.mkdir(parents=True)
    recorded = {}
    try:
        for workload in bench_inputs.WORKLOADS:
            blocks = []
            for b in range(BLOCKS):
                sessions = bench_inputs.block(workload, DEFAULT_SEED, b)
                argvs = bench_inputs.materialise(sessions, work_dir, f"{workload}-{b}")
                block = []
                for session, session_argvs in zip(sessions, argvs):
                    outcomes, reasons = run_session(cli, session, session_argvs)
                    bad = [r for r in reasons if r]
                    if bad:
                        print(f"{workload} block {b}: {bad[0]}", file=sys.stderr)
                        return 1
                    block.append([bench_checks.essentials(o.report) for o in outcomes])
                blocks.append(block)
            recorded[workload] = blocks
            print(f"{workload}: {BLOCKS} blocks recorded")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    payload = {"seed": DEFAULT_SEED, "commit": commit, "python": sys.version.split()[0],
               "workloads": recorded}
    with gzip.open(EXPECTED_FILE, "wt", encoding="utf-8", compresslevel=9) as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
