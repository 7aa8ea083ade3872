"""Benchmark of the eulerlab CLI pipelines.

    python3 perfbench/run.py --workload pipeline-2d --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, then runs batches of its
operations (CLI subcommands through ``eulerlab.cli.main`` and
``eulerlab.riemann`` library calls) on those inputs for about
``--seconds`` seconds, checking every output.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``:

* ``--trace 0``: end-to-end metrics, medians over the batches;
* ``--trace 1``: untraced and traced batches alternate, and the metrics
  are the per-layer ones (see tracing.py).

``--workload all`` runs every workload in its own process and prints a
table of every step metric.  Each run is one single-threaded process:
the BLAS and OpenMP pools are pinned to one thread before numpy loads.
A full record of each run goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracing import PER_LAYER, TraceError  # noqa: E402

WORK = ROOT / ".perfbench"
WORKLOADS = ("pipeline-2d", "pipeline-1d", "riemann-exact")
SETUP_PROBES = 5

# The untraced run prints every step metric; its JSON result line carries
# the metrics every workload has (see BENCHMARK.json), since a step that
# a workload does not run has no value there.
RESULT_METRICS = ("setup_s", "total_s", "peak_rss_mb")


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import eulerlab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "eulerlab" / "__init__.py").is_file():
        raise BenchError(f"{src}/eulerlab not found: run from a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import eulerlab
    if Path(eulerlab.__file__).resolve().parent != src / "eulerlab":
        raise BenchError(f"eulerlab imported from {eulerlab.__file__}, not from {src}")


def _reference(workload: str, variant: int) -> dict:
    path = ROOT / "perfbench" / "reference" / f"{workload}.json"
    try:
        with open(path) as f:
            return json.load(f)["variants"][str(variant)]
    except (OSError, KeyError, ValueError) as e:
        raise BenchError(f"no stored reference for {workload} variant {variant} in {path}: {e}")


def setup(workload: str, seed: int, dest: Path):
    """Everything before the first timed call: imports, inputs, reference."""
    import_program()
    from perfbench import checks, inputs, workloads
    variant = inputs.variant_of(seed)
    spec = inputs.generate(workload, variant, str(dest))
    ref = _reference(workload, variant)
    digest = checks.digest_tree(str(dest))
    if digest != ref["inputs_sha256"]:
        raise BenchError(f"inputs of {workload} variant {variant} do not match the stored "
                         "reference; rebuild it with perfbench/make_reference.py")
    return spec, workloads.build_ops(spec), ref["ops"], digest


def _setup_times(workload: str, seed: int, tag: str) -> list:
    """Wall time of SETUP_PROBES fresh processes that only set up."""
    times = []
    for k in range(SETUP_PROBES):
        dest = WORK / "work" / f"{tag}-probe{k}"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--setup-probe", str(dest)],
                              cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(dest, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def _measure(ops: list, ref: dict, seconds: float, trace: bool):
    from perfbench import workloads
    from perfbench.tracing import Tracer
    tracer = Tracer() if trace else None
    batches = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(batches) % 2 == 1
        if traced:
            with tracer.installed(run_id=len(batches)):
                result = workloads.run_batch(ops, ref, tracer)
        else:
            result = workloads.run_batch(ops, ref)
        result["traced"] = traced
        batches.append(result)
        if time.perf_counter() - t0 >= seconds and not (trace and len(batches) % 2):
            return batches, tracer


def run(args) -> dict:
    import_program()
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    dest = WORK / "work" / tag
    setup_times = _setup_times(args.workload, args.seed, tag)
    spec, ops, ref, inputs_digest = setup(args.workload, args.seed, dest)
    from perfbench import environment, workloads
    from perfbench.tracing import layer_metrics
    try:
        os.chdir(dest)
        batches, tracer = _measure(ops, ref, args.seconds, bool(args.trace))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(dest, ignore_errors=True)

    plain = [b for b in batches if not b["traced"]]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    mismatches = sum(b["sha256_mismatches"] for b in batches)
    steps = {f"{s}_s": statistics.median(b["steps"].get(s, 0.0) for b in plain)
             for s in workloads.STEPS}
    e2e = {
        "setup_s": statistics.median(setup_times),
        **{k: (v if v > 0 else None) for k, v in steps.items()},
        "total_s": statistics.median(b["total"] for b in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "failed_ops": failed / attempted,
    }
    if args.trace:
        tracer.require_calls(workloads.REQUIRED_SPANS[args.workload])
        metrics = layer_metrics(tracer, [b["total"] for b in plain], mismatches)
        tracer.save(str(WORK / "traces" / f"{args.workload}-seed{args.seed}.npz"))
    else:
        metrics = {k: e2e[k] for k in RESULT_METRICS}
    return {
        "workload": args.workload, "seed": args.seed, "variant": spec["variant"],
        "seconds": args.seconds, "trace": args.trace,
        "batches": {"untraced": len(plain), "traced": len(batches) - len(plain)},
        "attempted": attempted, "failed": failed, "sha256_mismatches": mismatches,
        "inputs_sha256": inputs_digest,
        "setup_times_s": setup_times, "end_to_end": e2e, "metrics": metrics,
        "batch_totals_s": [b["total"] for b in batches],
        "batch_steps_s": [b["steps"] for b in batches],
        "failures": [m for b in batches for m in b["failures"]][:50],
        "environment": environment.record(),
    }


def _unit(name: str) -> str:
    """Unit of an end-to-end or per-layer metric, also when prefixed by a workload."""
    if name in PER_LAYER:
        return PER_LAYER[name]
    base = name.split(".", 1)[-1] if name.split(".", 1)[0] in WORKLOADS else name
    return PER_LAYER.get(base) or {"peak_rss_mb": "MB", "failed_ops": "ratio"}.get(base, "s")


def _print_report(doc: dict) -> None:
    print(f"perfbench {doc['workload']} seed={doc['seed']} variant={doc['variant']} "
          f"batches={doc['batches']} attempted={doc['attempted']} failed={doc['failed']} "
          f"sha256_mismatches={doc['sha256_mismatches']}")
    shown = doc["end_to_end"] if not doc["trace"] else doc["metrics"]
    for name, value in shown.items():
        text = "not run by this workload" if value is None else f"{value:.6g}"
        print(f"  {name:46s} {text} {_unit(name) if value is not None else ''}")
    for msg in doc["failures"][:10]:
        print(f"  FAILED {msg}")
    env = doc["environment"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, {env['cpu']}, caches {env['caches']}, "
          f"threads {env['threads']}")


def _result_line(doc: dict) -> str:
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in doc["metrics"].items()}
    return json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


def run_all(args) -> int:
    """Every workload in its own process; one table of every step metric."""
    docs = []
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        with open(_result_path(workload, args.seed, args.trace)) as f:
            docs.append(json.load(f))
    names = list(docs[0]["end_to_end"] if not args.trace else docs[0]["metrics"])
    print(f"{'metric':46s} {'unit':6s}" + "".join(f"{d['workload']:>16s}" for d in docs))
    for name in names:
        cells = []
        for d in docs:
            v = (d["end_to_end"] if not args.trace else d["metrics"])[name]
            cells.append(f"{'-' if v is None else format(v, '.6g'):>16s}")
        print(f"{name:46s} {_unit(name):6s}" + "".join(cells))
    merged = {"failed": sum(d["failed"] for d in docs),
              "attempted": sum(d["attempted"] for d in docs),
              "metrics": {f"{d['workload']}.{k}": v for d in docs
                          for k, v in d["metrics"].items()}}
    print(_result_line(merged))
    return 0


def _result_path(workload: str, seed: int, trace: int) -> Path:
    return WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, Path(args.setup_probe))
            return 0
        if args.workload == "all":
            import_program()
            return run_all(args)
        doc = run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TraceError as e:
        print(f"error: the traced run cannot be trusted: {e}", file=sys.stderr)
        return 3
    path = _result_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, default=str)
    _print_report(doc)
    print(_result_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
