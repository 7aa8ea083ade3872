"""Operations of the three workloads: each timed call and its checks.

An operation is one CLI subcommand (through ``eulerlab.cli.main``) or
one ``eulerlab.riemann`` library call, plus the checks of its outputs.
A batch runs every operation of a workload once; the benchmark repeats
batches on the same inputs and reports medians.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from eulerlab import cli, riemann
from eulerlab.eos import GasLaw

from . import checks, inputs
from .checks import Observation

# end-to-end step metrics, named <step>_s
STEPS = ("ensemble", "diagnose", "select", "dt1", "dt2", "riemann", "exact_avg")

ENSEMBLE_RTOL = 1e-9    # energy curves of the written bundles
CERT_RTOL = 1e-9        # certificate and dt1/dt2 report values
SELECT_RTOL = 1e-12     # F1 values
EXACT_RTOL = 1e-12      # exact Riemann solution: star state, profile, sums
# certify sets the tolerance of its round-off-level checks (energy
# monotonicity, defect sign, stress PSD margin, compatibility slack) to
# 1e-10 x the quantity's natural scale; values are compared relative to
# that scale, since their reference sits at round-off level
CERT_TOL_FACTOR = 1e-10
PROFILE_CHECKPOINTS = 21

# spans each workload must record in a traced batch (the zero-call guard)
_PIPELINE_SPANS = (
    "solver.run", "solver.step", "solver.stable_dt", "eos.pressure", "eos.sound_speed",
    "fields.save_state_csv", "fields.load_state_csv", "fields.integrate_energy",
    "trajectory.save_bundle", "trajectory.load_bundle", "trajectory.init",
    "stress.kinetic_tensor", "stress.min_eigenvalue", "stress.save_npz", "stress.load_npz",
    "dissipative.certify", "dissipative.continuity_residual",
    "dissipative.momentum_residual", "dissipative.estimate_reynolds",
    "selection.select", "selection.is_absolute_minimizer", "cli.load_config",
    "cli.ensemble", "cli.diagnose", "cli.select",
)
REQUIRED_SPANS = {
    "pipeline-2d": _PIPELINE_SPANS,
    "pipeline-1d": _PIPELINE_SPANS + ("trajectory.concatenate", "trajectory.stopping_time",
                                      "cli.dt1-demo", "cli.dt2-demo"),
    "riemann-exact": ("riemann.solve_riemann", "riemann.sample_array",
                      "riemann.sample_cell_averages", "cli.load_config", "cli.riemann"),
}


@dataclass
class Op:
    name: str
    step: str
    call: Callable[[dict], object]          # the timed call
    observe: Callable[[object], Observation]
    needs: str | None = None                # op whose success this one needs
    prepare: Callable[[], None] | None = None   # untimed, before the call


def _cli(kind: str, config: str, out: str) -> Callable[[dict], int]:
    return lambda ctx: cli.main([kind, "--config", config, "--out", out])


def _observe_ensemble(rc: int, out: str, cell_mass: float) -> Observation:
    obs = Observation()
    obs.exact("exit", rc)
    bundles = [f"member_{i:02d}" for i in range(len(inputs.NU_LIST))] + ["average"]
    for b in bundles:
        checks.check_mass(obs, os.path.join(out, b), cell_mass)
        obs.close(f"{b}.energy", checks.bundle_energy(os.path.join(out, b)), ENSEMBLE_RTOL)
    checks.check_psd(obs, os.path.join(out, "reynolds.npz"))
    obs.digest = checks.digest_tree(out)
    return obs


def _observe_diagnose(rc: int, out: str) -> Observation:
    obs = Observation()
    obs.exact("exit", rc)
    cert = checks.read_json(os.path.join(out, "certificate.json"))
    obs.exact("passed", cert["passed"])
    for c in cert["checks"]:
        name = c["name"]
        obs.exact(f"{name}.passed", c["passed"])
        floor = 0.0 if name.endswith("_residual") else c["tolerance"] / CERT_TOL_FACTOR
        obs.close(f"{name}.value", c["value"], CERT_RTOL, floor)
    obs.digest = checks.digest_tree(out)
    return obs


def _move_members(ensemble_out: str, candidates: str) -> None:
    os.makedirs(candidates, exist_ok=True)
    for i in range(len(inputs.NU_LIST)):
        name = f"member_{i:02d}"
        os.rename(os.path.join(ensemble_out, name), os.path.join(candidates, name))


def _observe_select(rc: int, out: str) -> Observation:
    obs = Observation()
    obs.exact("exit", rc)
    sel = checks.read_json(os.path.join(out, "selection.json"))
    obs.exact("selected", sel["selected"])
    obs.exact("survivors", sel["survivors"])
    obs.exact("members", sel["members"])
    obs.exact("absolute_minimizer", sel["absolute_minimizer"]["verdict"])
    obs.close("f1_values", sel["f1_values"], SELECT_RTOL)
    obs.digest = checks.digest_tree(out)
    return obs


def _observe_dt1(rc: int, out: str, cell_mass: float) -> Observation:
    obs = Observation()
    obs.exact("exit", rc)
    rep = checks.read_json(os.path.join(out, "report.json"))
    obs.exact("passed", rep["passed"])
    obs.close("delta", rep["delta"], CERT_RTOL)
    obs.close("max_defect", rep["max_defect"], CERT_RTOL, rep["delta"])
    obs.close("resets", rep["resets"], CERT_RTOL)
    checks.check_mass(obs, os.path.join(out, "trajectory"), cell_mass)
    obs.digest = checks.digest_tree(out)
    return obs


def _observe_dt2(rc: int, out: str, cell_mass: float) -> Observation:
    obs = Observation()
    obs.exact("exit", rc)
    rep = checks.read_json(os.path.join(out, "report.json"))
    for key in ("passed", "relation", "coherence_violations"):
        obs.exact(key, rep[key])
    for key in ("T", "epsilon", "witness_T", "witness_delta", "coherence_threshold"):
        obs.close(key, rep[key], CERT_RTOL)
    obs.close("min_gap_on_window", rep["min_gap_on_window"], CERT_RTOL, rep["epsilon"])
    for b in ("base", "competitor"):
        checks.check_mass(obs, os.path.join(out, b), cell_mass)
    obs.digest = checks.digest_tree(out)
    return obs


def _observe_profile(rc: int, out: str) -> Observation:
    obs = Observation()
    obs.exact("exit", rc)
    star = checks.read_json(os.path.join(out, "star.json"))
    obs.close("star", [star["rho_star"], star["u_star"]], EXACT_RTOL, 1.0)
    # stream the file: holding 200k rows would inflate the peak RSS metric
    picks = set(np.linspace(0, inputs.PROFILE_SAMPLES - 1, PROFILE_CHECKPOINTS).astype(int))
    points = []
    rows = -1
    with open(os.path.join(out, "profile.csv")) as f:
        for rows, line in enumerate(f):
            if rows - 1 in picks:
                points.append([float(v) for v in line.split(",")])
    obs.exact("rows", rows)
    obs.close("checkpoints", points, EXACT_RTOL, 1.0)
    obs.digest = checks.digest_tree(out)
    return obs


def _observe_star(sol) -> Observation:
    obs = Observation()
    obs.close("star", [sol.rho_star, sol.u_star], EXACT_RTOL, 1.0)
    return obs


def _observe_averages(result, h: float) -> Observation:
    rho, m = result
    obs = Observation()
    obs.require(bool(np.all(np.isfinite(rho)) and np.all(np.isfinite(m))
                     and np.all(rho > 0)), "cell averages not finite and positive")
    obs.close("mass", float(np.sum(rho) * h), EXACT_RTOL, float(np.sum(np.abs(rho)) * h))
    obs.close("momentum", float(np.sum(m) * h), EXACT_RTOL, float(np.sum(np.abs(m)) * h))
    obs.digest = hashlib.sha256(rho.tobytes() + m.tobytes()).hexdigest()
    return obs


def _pipeline_ops(item: dict) -> list:
    name, d, out, mass = item["name"], item["dir"], item["out"], item["cell_mass"]

    def cfg(step):
        return os.path.join(d, f"{step}.json")

    ens_out = f"{out}/ensemble"
    ops = [
        Op(f"{name}.ensemble", "ensemble", _cli("ensemble", cfg("ensemble"), ens_out),
           lambda rc: _observe_ensemble(rc, ens_out, mass)),
        Op(f"{name}.diagnose", "diagnose",
           _cli("diagnose", cfg("diagnose"), f"{out}/diagnose"),
           lambda rc: _observe_diagnose(rc, f"{out}/diagnose"),
           needs=f"{name}.ensemble"),
        Op(f"{name}.select", "select", _cli("select", cfg("select"), f"{out}/select"),
           lambda rc: _observe_select(rc, f"{out}/select"), needs=f"{name}.ensemble",
           prepare=lambda: _move_members(ens_out, f"{out}/candidates")),
    ]
    if "dt1-demo" in item["steps"]:
        ops += [
            Op(f"{name}.dt1-demo", "dt1", _cli("dt1-demo", cfg("dt1-demo"), f"{out}/dt1"),
               lambda rc: _observe_dt1(rc, f"{out}/dt1", mass)),
            Op(f"{name}.dt2-demo", "dt2", _cli("dt2-demo", cfg("dt2-demo"), f"{out}/dt2"),
               lambda rc: _observe_dt2(rc, f"{out}/dt2", mass)),
        ]
    return ops


def _solve(ctx: dict, key: str, data: dict, law: GasLaw):
    ctx[key] = riemann.solve_riemann(riemann.RiemannData(law=law, **data))
    return ctx[key]


def _riemann_ops(item: dict) -> list:
    name, d, out, data = item["name"], item["dir"], item["out"], item["data"]
    law = GasLaw(**inputs.LAW)
    ops = [
        Op(f"{name}.riemann", "riemann",
           _cli("riemann", os.path.join(d, "riemann.json"), f"{out}/riemann"),
           lambda rc: _observe_profile(rc, f"{out}/riemann")),
        Op(f"{name}.solve", "exact_avg", lambda ctx: _solve(ctx, name, data, law),
           _observe_star),
    ]
    for n in inputs.LADDER:
        h = 2.0 / n
        centers = -1.0 + h * (np.arange(n) + 0.5)
        ops.append(Op(
            f"{name}.avg{n}", "exact_avg",
            lambda ctx, c=centers, h=h: riemann.sample_cell_averages(
                ctx[name], c, h, inputs.T_END),
            lambda res, h=h: _observe_averages(res, h), needs=f"{name}.solve"))
    return ops


def build_ops(spec: dict) -> list:
    build = _riemann_ops if spec["workload"] == "riemann-exact" else _pipeline_ops
    return [op for item in spec["items"] for op in build(item)]


def run_batch(ops: list, reference: dict | None, tracer=None) -> dict:
    """Run every operation once in the working directory.

    Returns the summed wall time per step, the failure messages and the
    observations.  With ``reference`` None (when the reference store is
    built) only the invariants are checked.  With a tracer, spans are
    recorded around the timed calls only, never around the checks.
    """
    shutil.rmtree("out", ignore_errors=True)
    ctx = {}
    steps = {}
    ok = set()
    failures = []
    observations = {}
    mismatches = 0
    for op in ops:
        if op.needs is not None and op.needs not in ok:
            failures.append(f"{op.name}: not run, {op.needs} failed")
            continue
        if op.prepare is not None:
            op.prepare()
        with tracer.recording() if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                result = op.call(ctx)
            except Exception as e:  # a crash is a failed operation, not a benchmark error
                result = e
            elapsed = time.perf_counter() - t0
        steps[op.step] = steps.get(op.step, 0.0) + elapsed
        try:
            if isinstance(result, Exception):
                raise result
            obs = op.observe(result)
            bad = list(obs.failures)
            if reference is not None:
                ref = reference.get(op.name, {})
                bad += checks.compare(obs, ref.get("values", {}))
                mismatches += obs.digest != ref.get("sha256")
        except Exception as e:  # missing or malformed output fails the operation
            bad = [f"{type(e).__name__}: {e}"]
        if bad:
            failures.extend(f"{op.name}: {msg}" for msg in bad)
        else:
            ok.add(op.name)
            observations[op.name] = obs
    return {"steps": steps, "total": sum(steps.values()), "attempted": len(ops),
            "failed": len(ops) - len(ok), "failures": failures,
            "sha256_mismatches": mismatches, "observations": observations}
