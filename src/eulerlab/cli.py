"""Experiment orchestration: config-driven runs, ensembles, diagnostics,
selection and plotting.

Every experiment is described by a strict JSON config (unknown keys are
rejected) and writes its outputs under a single directory.  Every
subcommand is deterministic: with a fixed config all outputs are
byte-identical across reruns, and ``--seed`` (like the ``seed`` key) is
accepted and ignored.

Exit codes: 0 success or certified pass, 1 certified failure, 2 usage
or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from .eos import GasLaw, defect_constant, sound_speed
from .fields import (DataTriple, FluidState, Grid, integrate_energy, load_state_csv,
                     read_csv, write_csv)
from .riemann import RiemannData, solve_riemann
from .solver import SchemeSpec, run
from .stress import ReynoldsField
from .trajectory import (Trajectory, concatenate, improve, load_bundle,
                         save_bundle, stopping_time)
from .dissipative import (CertificateTolerances, certificate_to_json, certify,
                          estimate_reynolds, save_defect_csv)
from .selection import (CandidateSet, check_order_coherence,
                        is_absolute_minimizer, select)
from .svgplot import write_line_svg

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    pass


KINDS = ("run", "ensemble", "diagnose", "select", "riemann", "dt1-demo", "dt2-demo")

_GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["counts", "lower", "upper"],
    "properties": {
        "counts": {"type": "array", "minItems": 1, "maxItems": 2,
                   "items": {"type": "integer", "minimum": 2}},
        "lower": {"type": "array", "minItems": 1, "maxItems": 2,
                  "items": {"type": "number"}},
        "upper": {"type": "array", "minItems": 1, "maxItems": 2,
                  "items": {"type": "number"}},
        "boundary": {"type": "array", "minItems": 1, "maxItems": 2,
                     "items": {"enum": ["periodic", "reflective"]}},
    },
}

_LAW_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["a", "gamma"],
    "properties": {
        "a": {"type": "number", "exclusiveMinimum": 0},
        "gamma": {"type": "number", "exclusiveMinimum": 1},
    },
}

_SCHEME_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "flux": {"enum": ["llf", "hll"]},
        "nu": {"type": "number", "minimum": 0},
        "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    },
}

_INITIAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {"enum": ["constant", "riemann", "acoustic"]},
        "file": {"type": "string"},
        "E0": {"type": ["number", "null"]},
        "rho": {"type": "number", "exclusiveMinimum": 0},
        "u": {"type": ["number", "array"]},
        "rho_l": {"type": "number", "exclusiveMinimum": 0},
        "u_l": {"type": "number"},
        "rho_r": {"type": "number", "exclusiveMinimum": 0},
        "u_r": {"type": "number"},
        "interface": {"type": "number"},
        "rho0": {"type": "number", "exclusiveMinimum": 0},
        "amplitude": {"type": "number"},
        "modes": {"type": "integer", "minimum": 1},
    },
}

_SELECTION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "variant": {"enum": ["full", "momentum-only"]},
        "q": {"type": "number"},
        "tie_tol": {"type": "number", "exclusiveMinimum": 0},
    },
}

_COMMON = {
    "kind": {"enum": list(KINDS)},
    "out": {"type": "string"},
    "seed": {"type": "integer", "minimum": 0},
}

_RUN_PROPS = {
    **_COMMON,
    "grid": _GRID_SCHEMA,
    "law": _LAW_SCHEMA,
    "scheme": _SCHEME_SCHEMA,
    "t_end": {"type": "number", "exclusiveMinimum": 0},
    "sample_dt": {"type": "number", "exclusiveMinimum": 0},
    "initial": _INITIAL_SCHEMA,
    "energy_mode": {"enum": ["envelope", "budget"]},
}

SCHEMAS = {
    "run": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "grid", "law", "t_end", "sample_dt", "initial"],
        "properties": _RUN_PROPS,
    },
    "ensemble": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "grid", "law", "t_end", "sample_dt", "initial", "nu_list"],
        "properties": {
            **_RUN_PROPS,
            "nu_list": {"type": "array", "minItems": 1,
                        "items": {"type": "number", "minimum": 0}},
        },
    },
    "diagnose": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "bundle"],
        "properties": {
            **_COMMON,
            "bundle": {"type": "string"},
            "reynolds": {"type": "string"},
            "residual_factor": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "select": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "candidates"],
        "properties": {
            **_COMMON,
            "candidates": {"type": "string"},
            "selection": _SELECTION_SCHEMA,
        },
    },
    "riemann": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "law", "rho_l", "u_l", "rho_r", "u_r", "time",
                     "x_min", "x_max", "samples"],
        "properties": {
            **_COMMON,
            "law": _LAW_SCHEMA,
            "rho_l": {"type": "number", "exclusiveMinimum": 0},
            "u_l": {"type": "number"},
            "rho_r": {"type": "number", "exclusiveMinimum": 0},
            "u_r": {"type": "number"},
            "time": {"type": "number", "exclusiveMinimum": 0},
            "x_min": {"type": "number"},
            "x_max": {"type": "number"},
            "samples": {"type": "integer", "minimum": 2},
        },
    },
    "dt1-demo": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "grid", "law", "t_end", "sample_dt", "initial", "nu_list"],
        "properties": {
            **_RUN_PROPS,
            "nu_list": {"type": "array", "minItems": 1,
                        "items": {"type": "number", "minimum": 0}},
            "delta": {"type": "number", "exclusiveMinimum": 0},
            "delta_rel": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "dt2-demo": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "grid", "law", "t_end", "sample_dt", "initial", "nu_list"],
        "properties": {
            **_RUN_PROPS,
            "nu_list": {"type": "array", "minItems": 1,
                        "items": {"type": "number", "minimum": 0}},
        },
    },
}


def load_config(path: str, kind: str) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    schema = SCHEMAS[kind]
    if jsonschema is not None:
        validator = jsonschema.Draft202012Validator(schema)
        errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
        if errors:
            e = errors[0]
            where = "/".join(str(p) for p in e.absolute_path) or "<root>"
            raise ConfigError(f"config {path}: at {where}: {e.message}")
    if cfg.get("kind") != kind:
        raise ConfigError(
            f"config kind {cfg.get('kind')!r} does not match the subcommand {kind!r}")
    return cfg


def _build_grid(cfg: dict) -> Grid:
    g = cfg["grid"]
    return Grid(counts=tuple(g["counts"]), lower=tuple(g["lower"]),
                upper=tuple(g["upper"]), boundary=tuple(g.get("boundary", ())))


def _build_law(cfg: dict) -> GasLaw:
    return GasLaw(a=cfg["law"]["a"], gamma=cfg["law"]["gamma"])


def _build_scheme(cfg: dict) -> SchemeSpec:
    s = cfg.get("scheme", {})
    return SchemeSpec(flux=s.get("flux", "llf"), nu=s.get("nu", 0.0),
                      cfl=s.get("cfl", 0.9))


def _build_initial(cfg: dict, grid: Grid, law: GasLaw) -> DataTriple:
    spec = cfg["initial"]
    if "file" in spec:
        state = load_state_csv(grid, spec["file"])
    else:
        preset = spec.get("preset")
        if preset is None:
            raise ConfigError("initial data needs a 'preset' or a 'file'")
        x = grid.meshgrid()[0]
        if preset == "constant":
            state = FluidState.constant(grid, spec["rho"], spec.get("u", 0.0))
        elif preset == "riemann":
            iface = spec.get("interface", 0.5 * (grid.lower[0] + grid.upper[0]))
            rho = np.where(x < iface, spec["rho_l"], spec["rho_r"])
            u = np.where(x < iface, spec["u_l"], spec["u_r"])
            m = np.zeros(grid.counts + (grid.d,))
            m[..., 0] = rho * u
            state = FluidState(grid, rho, m)
        elif preset == "acoustic":
            # right-moving simple wave: the left Riemann invariant is constant
            rho0 = spec["rho0"]
            amp = spec.get("amplitude", 0.01)
            modes = spec.get("modes", 1)
            length = grid.upper[0] - grid.lower[0]
            rho = rho0 * (1.0 + amp * np.sin(2.0 * math.pi * modes
                                             * (x - grid.lower[0]) / length))
            c0 = float(sound_speed(rho0, law))
            u = 2.0 * (sound_speed(rho, law) - c0) / (law.gamma - 1.0)
            m = np.zeros(grid.counts + (grid.d,))
            m[..., 0] = rho * u
            state = FluidState(grid, rho, m)
        else:  # pragma: no cover - schema forbids
            raise ConfigError(f"unknown preset {preset!r}")
    e0 = spec.get("E0")
    if e0 is None:
        e0 = integrate_energy(state, law)
    return DataTriple(state, float(e0))


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _run_ensemble(cfg: dict, energy_mode: str | None = None):
    grid = _build_grid(cfg)
    law = _build_law(cfg)
    scheme = _build_scheme(cfg)
    triple = _build_initial(cfg, grid, law)
    mode = energy_mode or cfg.get("energy_mode", "envelope")
    members = []
    for i, nu in enumerate(cfg["nu_list"]):
        try:
            members.append(run(triple, replace(scheme, nu=float(nu)), law,
                               cfg["t_end"], cfg["sample_dt"], energy_mode=mode))
        except Exception as e:
            raise ConfigError(f"ensemble member {i} (nu={nu}) failed: {e}")
    R, avg = estimate_reynolds(members)
    return members, R, avg, triple, law, scheme


# -- subcommands -------------------------------------------------------

def cmd_run(cfg: dict, out: str) -> int:
    grid = _build_grid(cfg)
    law = _build_law(cfg)
    triple = _build_initial(cfg, grid, law)
    traj = run(triple, _build_scheme(cfg), law, cfg["t_end"], cfg["sample_dt"],
               energy_mode=cfg.get("energy_mode", "envelope"))
    save_bundle(traj, out)
    return 0


def cmd_ensemble(cfg: dict, out: str) -> int:
    members, R, avg, triple, law, _ = _run_ensemble(cfg)
    os.makedirs(out, exist_ok=True)
    for i, tr in enumerate(members):
        save_bundle(tr, os.path.join(out, f"member_{i:02d}"))
    save_bundle(avg, os.path.join(out, "average"))
    R.save_npz(os.path.join(out, "reynolds.npz"))
    r = defect_constant(avg.grid.d, law)
    defects = avg.defects()
    traces = R.trace_integrals()
    save_defect_csv(os.path.join(out, "defect.csv"), avg.times, defects, traces,
                    defects - r * traces)
    return 0


def cmd_diagnose(cfg: dict, out: str) -> int:
    bundle = cfg["bundle"]
    try:
        traj = load_bundle(bundle, check=False)
    except Exception as e:
        raise ConfigError(f"malformed bundle {bundle}: {e}")
    R = None
    if "reynolds" in cfg:
        try:
            R = ReynoldsField.load_npz(cfg["reynolds"], grid=traj.grid)
        except Exception as e:
            raise ConfigError(f"malformed Reynolds field {cfg['reynolds']}: {e}")
    tol = CertificateTolerances.for_trajectory(
        traj, residual_factor=cfg.get("residual_factor", 10.0))
    cert = certify(traj, R, tolerances=tol)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "certificate.json"), "w") as f:
        f.write(certificate_to_json(cert))
    save_defect_csv(os.path.join(out, "certificate.csv"), cert.times, cert.defects,
                    cert.traces, cert.slacks)
    return 0 if cert.passed else 1


def cmd_select(cfg: dict, out: str) -> int:
    root = cfg["candidates"]
    if not os.path.isdir(root):
        raise ConfigError(f"candidate directory not found: {root}")
    subdirs = sorted(
        d for d in os.listdir(root)
        if os.path.isfile(os.path.join(root, d, "meta.json")))
    if not subdirs:
        raise ConfigError(f"no trajectory bundles under {root}")
    members = []
    for d in subdirs:
        try:
            members.append(load_bundle(os.path.join(root, d)))
        except Exception as e:
            raise ConfigError(f"candidate {d} is inconsistent: {e}")
    try:
        cands = CandidateSet(members)
    except ValueError as e:
        raise ConfigError(f"inconsistent candidate set: {e}")
    sel = cfg.get("selection", {})
    report = select(cands, variant=sel.get("variant", "full"),
                    q=sel.get("q"), tie_tol=sel.get("tie_tol"))
    verdict = is_absolute_minimizer(cands.members[report.selected], cands)
    os.makedirs(out, exist_ok=True)
    doc = json.loads(report.to_json())
    doc["members"] = list(subdirs)
    doc["absolute_minimizer"] = {
        "verdict": verdict.is_minimizer,
        "lambda_lower": verdict.lambda_lower,
    }
    _write_json(os.path.join(out, "selection.json"), doc)
    with open(os.path.join(out, "selection.csv"), "w") as f:
        f.write(report.to_csv())
    return 0


def cmd_riemann(cfg: dict, out: str) -> int:
    law = _build_law(cfg)
    data = RiemannData(cfg["rho_l"], cfg["u_l"], cfg["rho_r"], cfg["u_r"], law)
    sol = solve_riemann(data)
    t = cfg["time"]
    xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["samples"])
    rho, u = sol.sample_array(xs / t)
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "profile.csv"), ("x", "rho", "u"), (xs, rho, u))
    _write_json(os.path.join(out, "star.json"),
                {"rho_star": sol.rho_star, "u_star": sol.u_star})
    return 0


def cmd_dt1(cfg: dict, out: str) -> int:
    """Stopping-time/reset loop keeping the energy defect below delta."""
    members, R, result, triple, law, scheme = _run_ensemble(cfg, "budget")
    e0 = triple.E0
    if "delta" in cfg:
        delta = cfg["delta"]
    else:
        delta = cfg.get("delta_rel", 0.05) * max(e0, 1e-300)
    t_end = cfg["t_end"]
    sample_dt = cfg["sample_dt"]
    resets = []
    guard = result.n_samples + 2
    while guard > 0:
        guard -= 1
        T = stopping_time(result, delta)
        if math.isinf(T):
            break
        k = result.index_of(T)
        state = result.states[k]
        mean_t = float(result.mean_energies[k])
        horizon = t_end - T
        if horizon <= 0.5 * sample_dt:
            cont = Trajectory(result.grid, law, [0.0], [state],
                              [mean_t], e0=mean_t)
        else:
            sub_triple = DataTriple(state, mean_t)
            ms = []
            for nu in cfg["nu_list"]:
                ms.append(run(sub_triple, replace(scheme, nu=float(nu)), law,
                              horizon, sample_dt, energy_mode="budget"))
            _, cont = estimate_reynolds(ms)
        result = concatenate(result, cont, T)
        resets.append(float(T))
    max_defect = float(np.max(result.defects()))
    passed = max_defect <= delta * (1.0 + 1e-9)
    os.makedirs(out, exist_ok=True)
    save_bundle(result, os.path.join(out, "trajectory"))
    write_csv(os.path.join(out, "defect.csv"), ("t", "defect"),
              (result.times, result.defects()))
    _write_json(os.path.join(out, "report.json"), {
        "delta": delta,
        "max_defect": max_defect,
        "resets": resets,
        "passed": passed,
    })
    return 0 if passed else 1


def cmd_dt2(cfg: dict, out: str) -> int:
    """Defect-reset competitor strictly below the base trajectory."""
    members, R, base, triple, law, scheme = _run_ensemble(cfg, "budget")
    defects = base.defects()
    k = int(np.argmax(defects[:-1])) if base.n_samples > 1 else 0
    T = float(base.times[k])
    eps = float(defects[k])
    scale = max(1.0, abs(base.e0))
    if eps <= 1e-6 * scale:
        raise ConfigError("base trajectory has no defect to improve; "
                          "increase the horizon or sharpen the datum")
    state = base.states[k]
    mean_t = float(base.mean_energies[k])
    cont_members = [run(DataTriple(state, mean_t), replace(scheme, nu=float(nu)),
                        law, cfg["t_end"] - T, cfg["sample_dt"],
                        energy_mode="envelope")
                    for nu in cfg["nu_list"]]
    _, cont = estimate_reynolds(cont_members)
    competitor, order = improve(base, T, cont)
    threshold, violations = check_order_coherence(competitor, base, order) \
        if order.relation == "less" else (None, None)
    # witness window where the base energy has not yet dropped below
    # E(T+) - eps/2; the competitor gap must stay >= eps/2 there
    e_plus = base.energy[k]
    j = k
    while j + 1 < base.n_samples and base.energy[j + 1] > e_plus - 0.5 * eps:
        j += 1
    gaps = base.energy[k:j + 1] - competitor.energy[k:j + 1]
    min_gap = float(np.min(gaps))
    passed = (order.relation == "less" and min_gap >= 0.5 * eps * (1.0 - 1e-9)
              and not violations)
    os.makedirs(out, exist_ok=True)
    save_bundle(base, os.path.join(out, "base"))
    save_bundle(competitor, os.path.join(out, "competitor"))
    _write_json(os.path.join(out, "report.json"), {
        "T": T,
        "epsilon": eps,
        "relation": order.relation,
        "witness_T": order.T,
        "witness_delta": order.delta,
        "min_gap_on_window": min_gap,
        "coherence_threshold": threshold,
        "coherence_violations": violations,
        "passed": passed,
    })
    return 0 if passed else 1


def cmd_plot(csv_path: str, kind: str, out: str) -> int:
    try:
        names, table = read_csv(csv_path)
    except OSError:
        raise ConfigError(f"CSV file not found: {csv_path}")
    except ValueError as e:
        raise ConfigError(f"{csv_path} is not a numeric table under a header row: {e}")
    if table.size == 0:
        raise ConfigError(f"{csv_path} has no data rows")
    data = dict(zip(names, table.T))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{kind}.svg")
    if kind == "energy":
        if not {"t", "E"} <= set(names):
            raise ConfigError(f"energy plot expects columns t,E; got {names}")
        write_line_svg(path, data["t"], [data["E"]], ["E"],
                       title="total energy", xlabel="t", ylabel="E")
    elif kind == "defect":
        if "t" not in names or "defect" not in names:
            raise ConfigError(f"defect plot expects columns t,defect[,traceR,slack]; got {names}")
        series = [data["defect"]]
        labels = ["defect"]
        if "traceR" in names:
            series.append(data["traceR"])
            labels.append("traceR")
        if "slack" in names:
            series.append(data["slack"])
            labels.append("slack")
        write_line_svg(path, data["t"], series, labels,
                       title="energy defect", xlabel="t", ylabel="value")
    elif kind == "profile":
        if "rho" not in names or not ({"x"} <= set(names) or {"i"} <= set(names)):
            raise ConfigError(f"profile plot expects columns x,rho or i,rho; got {names}")
        xs = data["x"] if "x" in names else data["i"]
        series = [data["rho"]]
        labels = ["rho"]
        for extra in ("u", "mx"):
            if extra in names:
                series.append(data[extra])
                labels.append(extra)
        write_line_svg(path, xs, series, labels,
                       title="profile", xlabel="x" if "x" in names else "i",
                       ylabel="value")
    else:  # pragma: no cover - argparse forbids
        raise ConfigError(f"unknown plot kind {kind!r}")
    return 0


# -- entry point -------------------------------------------------------

_DISPATCH = {
    "run": cmd_run,
    "ensemble": cmd_ensemble,
    "diagnose": cmd_diagnose,
    "select": cmd_select,
    "riemann": cmd_riemann,
    "dt1-demo": cmd_dt1,
    "dt2-demo": cmd_dt2,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="Dissipative-solution laboratory for the barotropic Euler system")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="accepted and ignored: every subcommand is deterministic")
    p = sub.add_parser("plot")
    p.add_argument("--csv", required=True, help="input CSV file")
    p.add_argument("--kind", required=True, choices=["energy", "defect", "profile"])
    p.add_argument("--out", required=True, help="output directory for the SVG")
    args = parser.parse_args(argv)

    try:
        if args.command == "plot":
            return cmd_plot(args.csv, args.kind, args.out)
        cfg = load_config(args.config, args.command)
        out = args.out or cfg.get("out")
        if out is None:
            raise ConfigError("an output directory is required (--out or config 'out')")
        if args.seed is not None:
            cfg["seed"] = args.seed
        return _DISPATCH[args.command](cfg, out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
