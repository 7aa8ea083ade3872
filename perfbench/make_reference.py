"""Rebuild the stored reference outputs of the benchmark.

    python3 perfbench/make_reference.py --workload pipeline-1d [--variants 0-15]

Runs one batch of each variant with the program in this checkout,
requires every invariant check to pass, and stores each operation's
checked values and output digest in ``reference/<workload>.json``.  Run
it only on a commit whose outputs are known to be right: every later
run is judged against what it stores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import ROOT, WORK, WORKLOADS, import_program


def build(workload: str, variant: int) -> dict:
    from perfbench import checks, inputs, workloads
    dest = WORK / "work" / f"reference-{workload}-{variant}-{os.getpid()}"
    spec = inputs.generate(workload, variant, str(dest))
    digest = checks.digest_tree(str(dest))
    try:
        os.chdir(dest)
        result = workloads.run_batch(workloads.build_ops(spec), None)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(dest, ignore_errors=True)
    if result["failed"]:
        raise SystemExit(f"{workload} variant {variant} fails its invariants:\n  "
                         + "\n  ".join(result["failures"]))
    return {"inputs_sha256": digest,
            "ops": {name: {"values": obs.values, "sha256": obs.digest}
                    for name, obs in result["observations"].items()}}


def dump(doc: dict) -> str:
    """The store as JSON with one operation per line, so diffs stay readable."""
    lines = ['{"variants": {']
    variants = sorted(doc["variants"], key=int)
    for i, v in enumerate(variants):
        entry = doc["variants"][v]
        lines.append(f' {json.dumps(v)}: {{"inputs_sha256": '
                     f'{json.dumps(entry["inputs_sha256"])}, "ops": {{')
        ops = sorted(entry["ops"])
        lines += [f'  {json.dumps(name)}: {json.dumps(entry["ops"][name], sort_keys=True)}'
                  + ("," if j < len(ops) - 1 else "") for j, name in enumerate(ops)]
        lines.append(" }}" + ("," if i < len(variants) - 1 else ""))
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--variants", default=None, help="range a-b (default: all)")
    args = p.parse_args(argv)
    import_program()
    from perfbench import inputs
    lo, hi = (0, inputs.VARIANTS - 1) if args.variants is None else map(
        int, args.variants.split("-"))
    path = ROOT / "perfbench" / "reference" / f"{args.workload}.json"
    doc = {"variants": {}}
    if path.exists():
        with open(path) as f:
            doc = json.load(f)
    for v in range(lo, hi + 1):
        doc["variants"][str(v)] = build(args.workload, v)
        print(f"{args.workload} variant {v}: {len(doc['variants'][str(v)]['ops'])} ops",
              flush=True)
        with open(path, "w") as f:
            f.write(dump(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
