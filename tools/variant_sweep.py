"""Variant sweep: is every input variant of the benchmark correct and byte-identical?

The benchmark draws its inputs from one of 16 variants, ``seed % 16``, so a
run at one seed checks the output digests of one variant only.  This runs

    python perfbench/run.py --workload all --seed s --seconds 1 --trace 1

for s = 0..15 and requires, on every workload, ``correct``, no failed
operation and no sha256 mismatch.  One exception is known:
``pipeline-1d`` variant 4 counts one mismatch per batch, on
``d2.select``, whose F2 moved by one ulp from its stored digest.  The
benchmark's result line counts mismatches but does not name the
operation, so that variant passes with exactly one per batch.

    python tools/variant_sweep.py

It prints one line per seed and exits 1 if any variant fails.  All 16
seeds took 4 minutes 29 seconds on 2 vCPU.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(16)
KNOWN = {("pipeline-1d", 4)}  # (workload, variant) with one mismatch per batch


def _batches(workload: str, seed: int) -> int:
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace1.json"
    return sum(json.loads(path.read_text())["batches"].values())


def sweep_seed(seed: int) -> list:
    """The problems of one traced ``--workload all`` run, empty if none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct {result['correct']}, {result['failed']} failed")
    found = {k.split(".")[0]: v["value"] for k, v in result["metrics"].items()
             if k.endswith(".outputs.sha256_mismatches")}
    if len(found) != 3:
        problems.append(f"mismatch counts for {sorted(found)}, not 3 workloads")
    for workload, count in sorted(found.items()):
        allowed = _batches(workload, seed) if (workload, seed % 16) in KNOWN else 0
        if count != allowed:
            problems.append(f"{workload}: {count} sha256 mismatches, expected {allowed}")
    return problems


def main() -> int:
    bad = 0
    for seed in SEEDS:
        problems = sweep_seed(seed)
        print(f"seed {seed}: " + ("; ".join(problems) if problems else "ok"), flush=True)
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
