"""Seeded inputs of the benchmark workloads.

Every config and the 2D initial-state CSV are written here, by this
package's own code: set-up time must not move when eulerlab's CSV codec
changes, and eulerlab receives nothing but the generated files.

``--seed n`` selects variant ``n % VARIANTS``.  A variant draws its
values from a PCG64 stream keyed by (variant, workload), and its
reference outputs are stored in ``reference/<workload>.json``, so every
operation of every run is checked against known values.

All paths inside the configs are relative: the benchmark runs with the
input directory as its working directory, which keeps the inputs
byte-identical wherever the checkout lives.
"""

from __future__ import annotations

import json
import os

import numpy as np

VARIANTS = 16
WORKLOADS = ("pipeline-2d", "pipeline-1d", "riemann-exact")

LAW = {"a": 1.0, "gamma": 2.0}
T_END = 0.5
SAMPLE_DT = 0.05
NU_LIST = [0.4, 0.2, 0.1]
GRID_2D = {"counts": [128, 128], "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
           "boundary": ["reflective", "reflective"]}
GRID_1D = {"counts": [512], "lower": [-1.0], "upper": [1.0],
           "boundary": ["reflective"]}
DT1_DELTA_REL = 0.005
PROFILE_SAMPLES = 200001
LADDER = (512, 1024, 2048, 4096, 8192, 16384)

# Base Riemann data (rho_l, u_l, rho_r, u_r) per wave pattern.  The seed
# moves densities by at most 4 % and velocities by at most 0.04.  Over
# that box every datum keeps its pattern (checked by the tests at the
# corners), and u_r - u_l <= 1.08 while 2 (c_l + c_r) / (gamma - 1)
# >= 4 sqrt(2 * 0.24) > 2.7, so no vacuum forms.
PATTERNS_1D = (
    ("shock-rarefaction", (0.5, 0.3, 1.0, 0.0)),
    ("2-shock", (1.0, 0.5, 1.0, -0.5)),
    ("2-rarefaction", (1.0, -0.5, 1.0, 0.5)),
    ("rarefaction-shock", (1.0, 0.0, 0.25, 0.0)),
)
PATTERNS_EXACT = (
    ("2-shock", (1.0, 0.5, 1.0, -0.5)),
    ("2-rarefaction", (1.0, -0.5, 1.0, 0.5)),
    ("mixed", (1.0, 0.0, 0.25, 0.0)),
)
# (rho, u_x, u_y) per quadrant, indexed (x >= 0) + 2 * (y >= 0).  After
# jitter every |u| component stays >= 0.06, so both sweeps carry flow.
QUADRANTS = (
    (1.0, 0.2, -0.1),
    (0.5, -0.3, 0.2),
    (0.8, 0.1, 0.3),
    (0.3, -0.2, -0.25),
)
RHO_JITTER = 0.04
U_JITTER = 0.04


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _rng(workload: str, variant: int) -> np.random.Generator:
    return np.random.default_rng([variant, WORKLOADS.index(workload)])


def _jitter_riemann(rng, base) -> dict:
    rho_l, u_l, rho_r, u_r = base
    j = rng.uniform(-1.0, 1.0, 4)
    return {"rho_l": float(rho_l * (1.0 + RHO_JITTER * j[0])),
            "u_l": float(u_l + U_JITTER * j[1]),
            "rho_r": float(rho_r * (1.0 + RHO_JITTER * j[2])),
            "u_r": float(u_r + U_JITTER * j[3])}


def _write_json(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _pipeline_configs(prefix: str, grid: dict, flux: str, initial: dict) -> dict:
    """Configs of ensemble -> diagnose -> select (-> dt1/dt2) under ``prefix``."""
    run = {"grid": grid, "law": LAW, "scheme": {"flux": flux, "cfl": 0.9},
           "t_end": T_END, "sample_dt": SAMPLE_DT, "initial": initial,
           "nu_list": NU_LIST}
    out = f"out/{prefix}" if prefix else "out"
    return {
        "ensemble": {"kind": "ensemble", **run},
        "diagnose": {"kind": "diagnose", "bundle": f"{out}/ensemble/average",
                     "reynolds": f"{out}/ensemble/reynolds.npz"},
        "select": {"kind": "select", "candidates": f"{out}/candidates"},
        "dt1-demo": {"kind": "dt1-demo", **run, "delta_rel": DT1_DELTA_REL},
        "dt2-demo": {"kind": "dt2-demo", **run},
    }


def _write_quadrant_csv(path: str, quads: list) -> float:
    """State CSV ``i,j,rho,mx,my`` of the four-quadrant datum; returns
    the cell sum of the density."""
    nx, ny = GRID_2D["counts"]
    rows = [f"{rho!r},{rho * ux!r},{rho * uy!r}\n" for rho, ux, uy in quads]
    with open(path, "w") as f:
        f.write("i,j,rho,mx,my\n")
        for i in range(nx):
            for j in range(ny):
                f.write(f"{i},{j},{rows[(i >= nx // 2) + 2 * (j >= ny // 2)]}")
    return sum(rho for rho, _, _ in quads) * (nx // 2) * (ny // 2)


def generate(workload: str, variant: int, dest: str) -> dict:
    """Write the inputs of one workload variant under ``dest``.

    Returns the workload spec: one item per datum with its config
    directory, output directory, steps and the values the checks need
    (initial cell mass, Riemann data).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, variant)
    os.makedirs(dest, exist_ok=True)
    spec = {"workload": workload, "variant": variant, "items": []}
    if workload == "pipeline-2d":
        quads = []
        for rho, ux, uy in QUADRANTS:
            j = rng.uniform(-1.0, 1.0, 3)
            quads.append((float(rho * (1.0 + RHO_JITTER * j[0])),
                          float(ux + U_JITTER * j[1]), float(uy + U_JITTER * j[2])))
        mass = _write_quadrant_csv(os.path.join(dest, "initial.csv"), quads)
        configs = _pipeline_configs("", GRID_2D, "llf", {"file": "initial.csv"})
        steps = ("ensemble", "diagnose", "select")
        for step in steps:
            _write_json(os.path.join(dest, f"{step}.json"), configs[step])
        spec["items"].append({"name": "q", "dir": ".", "out": "out", "cell_mass": mass,
                              "steps": list(steps)})
    elif workload == "pipeline-1d":
        n = GRID_1D["counts"][0]
        for k, (_, base) in enumerate(PATTERNS_1D):
            data = _jitter_riemann(rng, base)
            initial = {"preset": "riemann", **data}
            configs = _pipeline_configs(f"d{k}", GRID_1D, "hll", initial)
            for step, cfg in configs.items():
                _write_json(os.path.join(dest, f"d{k}", f"{step}.json"), cfg)
            # the riemann preset puts the interface at the domain midpoint
            mass = (data["rho_l"] + data["rho_r"]) * (n // 2)
            spec["items"].append({"name": f"d{k}", "dir": f"d{k}", "out": f"out/d{k}",
                                  "cell_mass": mass, "steps": list(configs)})
    else:
        for k, (_, base) in enumerate(PATTERNS_EXACT):
            data = _jitter_riemann(rng, base)
            cfg = {"kind": "riemann", "law": LAW, **data, "time": T_END,
                   "x_min": -1.0, "x_max": 1.0, "samples": PROFILE_SAMPLES}
            _write_json(os.path.join(dest, f"r{k}", "riemann.json"), cfg)
            spec["items"].append({"name": f"r{k}", "dir": f"r{k}", "out": f"out/r{k}",
                                  "data": data, "steps": ["riemann", "exact_avg"]})
    return spec

