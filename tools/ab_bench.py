"""A/B benchmark: a parent commit against a change, in alternating pairs.

    python tools/ab_bench.py --parent REV [--change REV] --seed n --pairs 10 \\
        --seconds 30 --out BENCH_<n>.json [--claim riemann-exact:total_s] [--aa FILE]

Both sides are exported with ``git archive`` into fresh directories, so
the checkout under test holds no build or run state.  Each pair copies
both trees to fresh directories again, because the directory alone moved
``pipeline-1d`` by a few per cent; the parent runs first in even pairs and
the change first in odd ones.  Within a pair every workload of
``BENCHMARK.json`` runs untraced on both sides, each run a fresh process of
``perfbench/run.py``, and the sides of one workload run back to back.

The record keeps, per workload and end-to-end metric, each side's runs in
pair order with their median and quartiles, the change/parent ratio of
every pair, the pairs each side won (a tie counts for neither), the
change's median relative to the parent's, the parent's interquartile
range relative to its median, and ``resolved``: that range is narrower
than the metric's bound, so the metric can tell a regression from noise.
With ``--claim``, ``claim.met`` applies the gain rule: the change wins at
least nine tenths of the pairs, and its median beats the parent's by more
than the parent's interquartile range.  ``--change`` equal to ``--parent``
makes an A/A record, the noise floor; ``--aa FILE`` stores the summary of
such a record under ``aa``.  A record of 10 pairs of 30 s runs takes about
35 minutes on 2 vCPU.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
ORDER = ("alternating: parent first in even pairs, change first in odd pairs; each run a "
         "fresh process in a fresh copy of its tree; workloads interleaved within a pair")


def quartiles(runs: list) -> tuple:
    """(q1, median, q3) by linear interpolation between order statistics."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list, change: list, better: str) -> tuple:
    """Pairs won by the parent and by the change; a tie counts for neither."""
    sign = 1 if better == "lower" else -1
    change_won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    parent_won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return parent_won, change_won


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric of one workload: both sides' runs in pair order and the
    statistics that a gain or a regression is read from."""
    sides = {}
    for name, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(runs)
        sides[name] = {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}
    p = sides["parent"]
    parent_won, change_won = wins(parent, change, better)
    iqr_rel = (p["q3"] - p["q1"]) / p["median"]
    return {
        **sides,
        "pair_ratios": [c / q for q, c in zip(parent, change)],
        "change_wins": f"{change_won}/{len(parent)}",
        "parent_wins": f"{parent_won}/{len(parent)}",
        "median_change_rel": sides["change"]["median"] / p["median"] - 1.0,
        "parent_iqr_rel": iqr_rel,
        "resolved": iqr_rel < bound,
    }


def claim_met(summary: dict, better: str) -> bool:
    """The gain rule: the change wins at least 9 of 10 pairs (ties count
    for neither side) and the medians differ, in the better direction, by
    more than the parent's interquartile range."""
    won, pairs = map(int, summary["change_wins"].split("/"))
    p, c = summary["parent"], summary["change"]
    gap = (p["median"] - c["median"]) if better == "lower" else (c["median"] - p["median"])
    return 10 * won >= 9 * pairs and gap > p["q3"] - p["q1"]


def _export(rev: str, dest: Path) -> str:
    """The tree of ``rev`` in ``dest``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``workload`` in ``tree``: its full result record."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} failed in {tree}:\n{proc.stdout}{proc.stderr}")
    path = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", default="HEAD")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", required=True)
    p.add_argument("--claim", help="workload:metric whose gain the record judges")
    p.add_argument("--aa", help="an A/A record whose summary goes under 'aa'")
    p.add_argument("--workdir", help="where the fresh trees go (default: the temp dir)")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {w: {m: {s: [] for s in SIDES} for m in metrics} for w in workloads}
    totals = {k: {s: 0 for s in SIDES} for k in ("failed", "attempted", "sha256_mismatches")}
    environment = None
    with tempfile.TemporaryDirectory(prefix="ab-bench-", dir=args.workdir) as tmp:
        work = Path(tmp)
        commits = {s: _export(rev, work / f"{s}-tree")
                   for s, rev in zip(SIDES, (args.parent, args.change))}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            trees = {s: work / f"{s}-{pair}" for s in SIDES}
            for s in SIDES:
                shutil.copytree(work / f"{s}-tree", trees[s])
            for w in workloads:
                for s in order:
                    doc = _run(trees[s], w, args.seed, args.seconds)
                    environment = environment or doc["environment"]
                    for m in metrics:
                        runs[w][m][s].append(doc["end_to_end"][m])
                    for k in totals:
                        totals[k][s] += doc[k]
                    print(f"pair {pair} {w} {s}: " + ", ".join(
                        f"{m} {doc['end_to_end'][m]:.4g}" for m in metrics), flush=True)
            for s in SIDES:
                shutil.rmtree(trees[s])

    end_to_end = {w: {m: summarize(runs[w][m]["parent"], runs[w][m]["change"],
                                   metrics[m]["better"], metrics[m]["bound"])
                      for m in metrics} for w in workloads}
    claim = None
    if args.claim:
        w, m = args.claim.split(":")
        claim = {"workload": w, "metric": m,
                 "met": claim_met(end_to_end[w][m], metrics[m]["better"])}
    record = {
        "change": subprocess.run(["git", "log", "-1", "--format=%s", commits["change"]],
                                 cwd=ROOT, capture_output=True, text=True).stdout.strip(),
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "seed": args.seed,
        "variant": args.seed % 16,
        "pairs": args.pairs,
        "order": ORDER,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "environment": {k: environment[k] for k in ("python", "numpy", "nproc", "cpu")},
        "claim": claim,
        "end_to_end": end_to_end,
        "failed_ops": totals["failed"],
        "attempted": totals["attempted"],
        "sha256_mismatches": totals["sha256_mismatches"],
        "notes": "",
    }
    if args.aa:
        aa = json.loads(Path(args.aa).read_text())
        record["aa"] = {"parent_commit": aa["parent_commit"], "seed": aa["seed"],
                        "pairs": aa["pairs"], "end_to_end": aa["end_to_end"]}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for w in workloads:
        for m in metrics:
            s = end_to_end[w][m]
            print(f"{w:14s} {m:12s} change {s['median_change_rel']:+.1%} "
                  f"wins {s['change_wins']} parent IQR {s['parent_iqr_rel']:.1%}"
                  f"{'' if s['resolved'] else ' (unresolved)'}")
    if claim:
        print(f"claim {args.claim}: {'met' if claim['met'] else 'NOT met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
