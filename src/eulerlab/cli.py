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
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

import jsonschema
import numpy as np

from .eos import GasLaw, sound_speed
from .fields import (BOUNDARY_KINDS, DataTriple, FluidState, Grid, energy_scale,
                     integrate_energy, load_state_csv, read_csv, write_csv, write_json)
from .riemann import RiemannData, solve_riemann
from .solver import ENERGY_MODES, FLUX_KINDS, SchemeSpec, run
from .stress import ReynoldsField
from .trajectory import improve, load_bundle, require_shared, save_bundle
from .dissipative import (certificate_doc, certify, estimate_reynolds, reset_defects,
                          save_defect_csv)
from .selection import (F2_VARIANTS, CandidateSet, check_order_coherence,
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
                     "items": {"enum": list(BOUNDARY_KINDS)}},
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
        "flux": {"enum": list(FLUX_KINDS)},
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
        "variant": {"enum": list(F2_VARIANTS)},
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
    "energy_mode": {"enum": list(ENERGY_MODES)},
}

_RUN_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "grid", "law", "t_end", "sample_dt", "initial"],
    "properties": _RUN_PROPS,
}

# ensemble, dt1-demo and dt2-demo: a run plus the viscosity ladder
_ENSEMBLE_SCHEMA = {
    **_RUN_SCHEMA,
    "required": _RUN_SCHEMA["required"] + ["nu_list"],
    "properties": {
        **_RUN_PROPS,
        "nu_list": {"type": "array", "minItems": 1,
                    "items": {"type": "number", "minimum": 0}},
    },
}

SCHEMAS = {
    "run": _RUN_SCHEMA,
    "ensemble": _ENSEMBLE_SCHEMA,
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
        **_ENSEMBLE_SCHEMA,
        "properties": {
            **_ENSEMBLE_SCHEMA["properties"],
            "delta": {"type": "number", "exclusiveMinimum": 0},
            "delta_rel": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "dt2-demo": _ENSEMBLE_SCHEMA,
}


@contextmanager
def _config_errors(prefix: str, errors=ValueError):
    """Turn an error of type ``errors`` raised inside the block into a config
    error that reads ``prefix`` followed by the error's message."""
    try:
        yield
    except errors as e:
        raise ConfigError(f"{prefix}{e}")


def _parse_constant(token: str) -> float:
    # Infinity stays legal: the program's own checks name what cannot be infinite
    if token == "NaN":
        raise ValueError("NaN is not a number")
    return float(token)


@contextmanager
def _read_errors(what: str, path: str):
    """Turn an ``OSError`` of reading the file ``path`` into a config error
    that names its cause."""
    try:
        yield
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e.strerror}")


def load_config(path: str, kind: str) -> dict:
    # json raises a JSONDecodeError, or the ValueError of the token NaN
    with (_read_errors("config file", path), open(path) as f,
          _config_errors(f"config {path} is not valid JSON: ")):
        cfg = json.load(f, parse_constant=_parse_constant)
    validator = jsonschema.Draft202012Validator(SCHEMAS[kind])
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"config {path}: at {where}: {e.message}")
    if cfg.get("kind") != kind:
        raise ConfigError(
            f"config kind {cfg.get('kind')!r} does not match the subcommand {kind!r}")
    return cfg


def _build_law(cfg: dict) -> GasLaw:
    with _config_errors("invalid law: "):
        return GasLaw(a=cfg["law"]["a"], gamma=cfg["law"]["gamma"])


def _setup(cfg: dict):
    """The law, the initial triple and the schemes of a march config: one
    scheme per viscosity of ``nu_list``, or the ``scheme`` alone."""
    with _config_errors("invalid grid: "):
        grid = Grid.from_dict(cfg["grid"])
    law = _build_law(cfg)
    triple = _build_initial(cfg, grid, law)
    with _config_errors("invalid scheme: "):
        scheme = SchemeSpec(**cfg.get("scheme", {}))
    if "nu_list" not in cfg:
        return law, triple, [scheme]
    specs = []
    for i, nu in enumerate(cfg["nu_list"]):
        with _config_errors(f"ensemble member {i} (nu={nu}) failed: "):
            specs.append(replace(scheme, nu=float(nu)))
    return law, triple, specs


# an overflow leaves a non-finite field or energy, which the checks reject by name
@np.errstate(over="ignore", invalid="ignore")
def _build_initial(cfg: dict, grid: Grid, law: GasLaw) -> DataTriple:
    spec = cfg["initial"]
    with (_config_errors(f"initial data: preset {spec.get('preset')!r} needs the key ",
                         KeyError),
          _config_errors("invalid initial data: ", (OSError, ValueError))):
        state = _initial_state(spec, grid, law)
        e0 = spec.get("E0")
        return DataTriple(state, integrate_energy(state, law) if e0 is None else float(e0))


def _initial_state(spec: dict, grid: Grid, law: GasLaw) -> FluidState:
    if "file" in spec:
        return load_state_csv(grid, spec["file"])
    preset = spec.get("preset")
    if preset is None:
        raise ConfigError("initial data needs a 'preset' or a 'file'")
    x = np.broadcast_to(grid.centers(0).reshape((-1,) + (1,) * (grid.d - 1)), grid.counts)
    if preset == "constant":
        u = spec.get("u", 0.0)
        if np.size(u) not in (1, grid.d):
            raise ConfigError(f"initial data: u has {np.size(u)} components on a "
                              f"{grid.d}D grid")
        return FluidState.constant(grid, spec["rho"], u)
    if preset == "riemann":
        iface = spec.get("interface", 0.5 * (grid.lower[0] + grid.upper[0]))
        rho = np.where(x < iface, spec["rho_l"], spec["rho_r"])
        u = np.where(x < iface, spec["u_l"], spec["u_r"])
    else:  # acoustic: right-moving simple wave, the left Riemann invariant is constant
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
    return FluidState(grid, rho, m)


def _members(cfg: dict, law: GasLaw, triple: DataTriple, specs: list, t_end: float,
             mode: str):
    """Every scheme's trajectory marched from ``triple`` to ``t_end``, one
    stack at a time (see ``run``); an error of the march is a config error."""
    with _config_errors("ensemble ", Exception):
        yield from run(triple, specs, law, t_end, cfg["sample_dt"], energy_mode=mode)


# -- subcommands -------------------------------------------------------

def cmd_run(cfg: dict, out: str) -> int:
    law, triple, specs = _setup(cfg)
    with _config_errors("run ", Exception):
        [traj] = run(triple, specs, law, cfg["t_end"], cfg["sample_dt"],
                     energy_mode=cfg.get("energy_mode", "envelope"))
    save_bundle(traj, out)
    return 0


def cmd_ensemble(cfg: dict, out: str) -> int:
    law, triple, specs = _setup(cfg)
    members = _members(cfg, law, triple, specs, cfg["t_end"],
                       cfg.get("energy_mode", "envelope"))
    existed, bundles = os.path.exists(out), []

    def written():
        """Each member, written to its bundle as the average sums it."""
        for tr in members:
            bundles.append(os.path.join(out, f"member_{len(bundles):02d}"))
            save_bundle(tr, bundles[-1])
            yield tr
            del tr  # not held while the next stack marches

    try:
        R, avg = estimate_reynolds(written())
    except BaseException:
        # a failure leaves no member bundle behind
        for path in bundles if existed else [out]:
            shutil.rmtree(path, ignore_errors=True)
        raise
    save_bundle(avg, os.path.join(out, "average"))
    R.save_npz(os.path.join(out, "reynolds.npz"))
    save_defect_csv(os.path.join(out, "defect.csv"), avg, R)
    return 0


def cmd_diagnose(cfg: dict, out: str) -> int:
    bundle = cfg["bundle"]
    with _config_errors(f"malformed bundle {bundle}: ", Exception):
        traj = load_bundle(bundle, check=False)
    R = None
    if "reynolds" in cfg:
        with _config_errors(f"malformed Reynolds field {cfg['reynolds']}: ", Exception):
            R = ReynoldsField.load_npz(cfg["reynolds"], grid=traj.grid)
            require_shared(traj, R)
    # certify records failures; it raises on data it cannot test
    with _config_errors(f"cannot certify bundle {bundle}: "):
        cert = certify(traj, R, **{k: v for k, v in cfg.items() if k == "residual_factor"})
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "certificate.json"), certificate_doc(cert))
    save_defect_csv(os.path.join(out, "certificate.csv"), traj, R)
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
        with _config_errors(f"candidate {d} is inconsistent: ", Exception):
            members.append(load_bundle(os.path.join(root, d)))
    with _config_errors("inconsistent candidate set: "):
        cands = CandidateSet(members)
    with _config_errors("invalid selection: "):
        report = select(cands, **cfg.get("selection", {}))
    verdict = is_absolute_minimizer(cands.members[report.selected], cands)
    os.makedirs(out, exist_ok=True)
    doc = asdict(report)
    doc["members"] = list(subdirs)
    doc["absolute_minimizer"] = {
        "verdict": verdict.is_minimizer,
        "lambda_lower": verdict.lambda_lower,
    }
    write_json(os.path.join(out, "selection.json"), doc)
    with open(os.path.join(out, "selection.csv"), "w") as f:
        f.write(report.to_csv())
    return 0


# profile rows sampled and written per slice: a few thousand keep the
# sampler's and the writer's temporaries small beside the whole ``xs``
_PROFILE_ROWS = 4096


def cmd_riemann(cfg: dict, out: str) -> int:
    """Exact solution: ``profile.csv`` of (x, rho, u) at ``samples`` points
    of ``np.linspace(x_min, x_max, samples)`` at ``time``, and ``star.json``.

    The points are built whole, so their bits do not depend on the
    slicing; the profile is sampled and written ``_PROFILE_ROWS`` rows at
    a time.  ``sample_array`` is elementwise, so every row has the bits
    of one whole-profile call, in bounded memory.
    """
    for key in ("time", "x_min", "x_max"):
        if not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    width = cfg["x_max"] - cfg["x_min"]
    if not math.isfinite(width):
        raise ConfigError(f"x_max - x_min must be finite, got {width}")
    law = _build_law(cfg)
    with _config_errors("invalid Riemann datum: "):
        sol = solve_riemann(RiemannData(cfg["rho_l"], cfg["u_l"], cfg["rho_r"], cfg["u_r"], law))
    xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["samples"])

    def profile():
        for start in range(0, len(xs), _PROFILE_ROWS):
            x = xs[start:start + _PROFILE_ROWS]
            with np.errstate(over="ignore"):  # x / t beyond the float range is the far field
                xi = x / cfg["time"]
            yield (x, *sol.sample_array(xi))

    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "profile.csv"), ("x", "rho", "u"), profile())
    write_json(os.path.join(out, "star.json"), {"rho_star": sol.rho_star, "u_star": sol.u_star})
    return 0


def cmd_dt1(cfg: dict, out: str) -> int:
    """Stopping-time/reset loop keeping the energy defect below delta."""
    law, triple, specs = _setup(cfg)
    if "delta" in cfg:
        delta = cfg["delta"]
    else:
        delta = cfg.get("delta_rel", 0.05) * max(triple.E0, 1e-300)
    if not math.isfinite(delta):
        raise ConfigError(f"delta must be finite, got {delta}")
    with _config_errors("ensemble ", Exception):
        result, resets = reset_defects(triple, specs, law, cfg["t_end"], cfg["sample_dt"],
                                       delta)
    max_defect = float(np.max(result.defects()))
    passed = max_defect <= delta * (1.0 + 1e-9)
    os.makedirs(out, exist_ok=True)
    save_bundle(result, os.path.join(out, "trajectory"))
    write_csv(os.path.join(out, "defect.csv"), ("t", "defect"),
              [(result.times, result.defects())])
    write_json(os.path.join(out, "report.json"), {
        "delta": delta,
        "max_defect": max_defect,
        "resets": resets,
        "passed": passed,
    })
    return 0 if passed else 1


def cmd_dt2(cfg: dict, out: str) -> int:
    """Defect-reset competitor strictly below the base trajectory."""
    law, triple, specs = _setup(cfg)
    base = estimate_reynolds(_members(cfg, law, triple, specs, cfg["t_end"], "budget"))[1]
    defects = base.defects()
    k = int(np.argmax(defects[:-1]))  # a march has at least two samples
    T = float(base.times[k])
    eps = float(defects[k])
    no_defect = ConfigError("base trajectory has no defect to improve; "
                            "increase the horizon or sharpen the datum")
    if eps <= 1e-6 * energy_scale(base.e0):
        raise no_defect
    cont = estimate_reynolds(_members(
        cfg, law, DataTriple(base.states[k], float(base.mean_energies[k])), specs,
        cfg["t_end"] - T, "envelope"))[1]
    try:
        competitor, order = improve(base, T, cont)
    except ValueError as e:  # the reset is not strictly lower
        raise no_defect from e
    threshold, violations = check_order_coherence(competitor, base)
    # the "budget" base's energy is constant, so it stays above E(T+) - eps/2
    # on the whole tail: the competitor gap must stay >= eps/2 from k on
    min_gap = float(np.min(base.energy[k:] - competitor.energy[k:]))
    passed = min_gap >= 0.5 * eps * (1.0 - 1e-9) and not violations
    os.makedirs(out, exist_ok=True)
    save_bundle(base, os.path.join(out, "base"))
    save_bundle(competitor, os.path.join(out, "competitor"))
    write_json(os.path.join(out, "report.json"), {
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


# kind: (x columns, the first one present is used; y columns; optional y
# columns; title; y label; the expected columns, for the error message)
_PLOTS = {
    "energy": (("t",), ("E",), (), "total energy", "E", "t,E"),
    "defect": (("t",), ("defect",), ("traceR", "slack"), "energy defect", "value",
               "t,defect[,traceR,slack]"),
    "profile": (("x", "i"), ("rho",), ("u", "mx"), "profile", "value", "x,rho or i,rho"),
}


def cmd_plot(csv_path: str, kind: str, out: str) -> int:
    xcols, ycols, optional, title, ylabel, expected = _PLOTS[kind]
    with (_read_errors("CSV file", csv_path),
          _config_errors(f"{csv_path} is not a numeric table under a header row: ")):
        names, table = read_csv(csv_path)
    if table.size == 0:
        raise ConfigError(f"{csv_path} has no data rows")
    xcol = next((c for c in xcols if c in names), None)
    if xcol is None or not set(ycols) <= set(names):
        raise ConfigError(f"{kind} plot expects columns {expected}; got {names}")
    data = dict(zip(names, table.T))
    labels = [*ycols, *(c for c in optional if c in names)]
    for c in (xcol, *labels):
        bad = np.flatnonzero(~np.isfinite(data[c]))
        if bad.size:
            raise ConfigError(f"{csv_path}: data row {bad[0] + 1}, column {c} is not finite")
    os.makedirs(out, exist_ok=True)
    write_line_svg(os.path.join(out, f"{kind}.svg"), data[xcol], [data[c] for c in labels],
                   labels, title=title, xlabel=xcol, ylabel=ylabel)
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
    p.add_argument("--kind", required=True, choices=list(_PLOTS))
    p.add_argument("--out", required=True, help="output directory for the SVG")
    args = parser.parse_args(argv)

    try:
        if args.command == "plot":
            return cmd_plot(args.csv, args.kind, args.out)
        cfg = load_config(args.config, args.command)
        out = args.out or cfg.get("out")
        if out is None:
            raise ConfigError("an output directory is required (--out or config 'out')")
        return _DISPATCH[args.command](cfg, out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
