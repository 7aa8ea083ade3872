import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from eulerlab.cli import main
from eulerlab.eos import GasLaw, sound_speed
from eulerlab.fields import FluidState, Grid, integrate_energy, read_csv
from eulerlab.stress import ReynoldsField
from eulerlab.trajectory import Trajectory, load_bundle, save_bundle
from pins import assert_pinned, sha256, tree

LAW2 = GasLaw(a=1.0, gamma=2.0)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _argv(tmp, kind, doc, out=None):
    return [kind, "--config", write_config(tmp, "c.json", doc), "--out", str(out or tmp / "o")]


def run_config(tmp_path, extra=None, **overrides):
    doc = {
        "kind": "run",
        "grid": {"counts": [32], "lower": [-1.0], "upper": [1.0],
                 "boundary": ["reflective"]},
        "law": {"a": 1.0, "gamma": 2.0},
        "scheme": {"flux": "llf", "nu": 0.1, "cfl": 0.9},
        "t_end": 0.2,
        "sample_dt": 0.05,
        "initial": {"preset": "constant", "rho": 1.0, "u": 0.0},
    }
    doc.update(extra or {})
    doc.update(overrides)
    return doc


# -- config validation ---------------------------------------------------

def test_missing_field_names_it(tmp_path, capsys):
    doc = run_config(tmp_path)
    del doc["t_end"]
    assert main(_argv(tmp_path, "run", doc)) == 2
    assert "t_end" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    doc = run_config(tmp_path)
    doc["typo_field"] = 1
    assert main(_argv(tmp_path, "run", doc)) == 2
    assert "typo_field" in capsys.readouterr().err


def test_kind_mismatch_rejected(tmp_path, capsys):
    assert main(_argv(tmp_path, "ensemble", run_config(tmp_path))) == 2


def test_nested_bad_value_reported(tmp_path, capsys):
    doc = run_config(tmp_path)
    doc["law"]["gamma"] = 0.5
    assert main(_argv(tmp_path, "run", doc)) == 2
    assert "gamma" in capsys.readouterr().err


# -- run -------------------------------------------------------------------

def test_run_constant_flat_energy(tmp_path):
    out = tmp_path / "bundle"
    assert main(_argv(tmp_path, "run", run_config(tmp_path), out)) == 0
    energy = np.genfromtxt(out / "energy.csv", delimiter=",", names=True)
    assert np.allclose(energy["E"], energy["E"][0])
    traj = load_bundle(out)
    assert traj.n_samples == 5


def test_run_riemann_refinement(tmp_path):
    gaps = []
    for n in (32, 64):
        doc = run_config(tmp_path)
        doc["grid"]["counts"] = [n]
        doc["initial"] = {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0,
                          "rho_r": 0.25, "u_r": 0.0}
        cfg = write_config(tmp_path, f"c{n}.json", doc)
        out = tmp_path / f"bundle{n}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        traj = load_bundle(out)
        from eulerlab.riemann import RiemannData, solve_riemann
        sol = solve_riemann(RiemannData(1.0, 0.0, 0.25, 0.0, LAW2))
        x = traj.grid.centers(0)
        rho_ex, _ = sol.sample_array(x / 0.2)
        gaps.append(np.sum(np.abs(traj.states[-1].rho - rho_ex)) * traj.grid.spacing[0])
    assert gaps[1] < 0.75 * gaps[0]


# -- ensemble ----------------------------------------------------------------

def test_ensemble_identical_nus_zero_reynolds(tmp_path):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.2, 0.2]})
    del doc["scheme"]
    out = tmp_path / "ens"
    assert main(_argv(tmp_path, "ensemble", doc, out)) == 0
    R = ReynoldsField.load_npz(out / "reynolds.npz", load_bundle(out / "average").grid)
    assert R.norm_scale() <= 1e-14
    assert (out / "member_00").is_dir() and (out / "member_01").is_dir()
    assert (out / "average" / "meta.json").is_file()


def test_ensemble_single_member_zero_reynolds(tmp_path):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.3]})
    out = tmp_path / "ens"
    assert main(_argv(tmp_path, "ensemble", doc, out)) == 0
    R = ReynoldsField.load_npz(out / "reynolds.npz", load_bundle(out / "average").grid)
    assert R.norm_scale() <= 1e-14


def test_ensemble_riemann_defect_csv(tmp_path):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.4, 0.2, 0.1]})
    doc["initial"] = {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0,
                      "rho_r": 0.25, "u_r": 0.0}
    doc["t_end"] = 0.4
    out = tmp_path / "ens"
    assert main(_argv(tmp_path, "ensemble", doc, out)) == 0
    table = np.genfromtxt(out / "defect.csv", delimiter=",", names=True)
    assert set(table.dtype.names) == {"t", "defect", "traceR", "slack"}
    assert table["defect"].max() > 0
    assert table["slack"].min() >= -1e-10


# -- diagnose -----------------------------------------------------------------

def test_diagnose_pass_and_fail(tmp_path):
    run_cfg = write_config(tmp_path, "r.json", run_config(tmp_path))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", run_cfg, "--out", str(bundle)]) == 0

    diag = write_config(tmp_path, "d.json",
                        {"kind": "diagnose", "bundle": str(bundle)})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "ok")]) == 0

    # hand-edit the energy curve so it increases
    lines = (bundle / "energy.csv").read_text().splitlines()
    lines[2] = "0.05,99.0"
    (bundle / "energy.csv").write_text("\n".join(lines) + "\n")
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "bad")]) == 1
    doc = json.loads((tmp_path / "bad" / "certificate.json").read_text())
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "energy_monotone" in failed


def test_diagnose_certifies_a_bundle_far_from_the_origin(tmp_path):
    # at 1e6 the test-function supports round by about 1e-10, far above 1e-12
    doc = run_config(tmp_path, grid={"counts": [12], "lower": [1e6], "upper": [1e6 + 2.0],
                                     "boundary": ["reflective"]})
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", write_config(tmp_path, "r.json", doc),
                 "--out", str(bundle)]) == 0
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle)})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "ok")]) == 0


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_diagnose_fails_on_nan_density(tmp_path):
    run_cfg = write_config(tmp_path, "r.json", run_config(tmp_path))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", run_cfg, "--out", str(bundle)]) == 0
    state = bundle / "state_000002.csv"
    lines = state.read_text().splitlines()
    i, _, mx = lines[10].split(",")
    lines[10] = f"{i},nan,{mx}"
    state.write_text("\n".join(lines) + "\n")
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle)})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "nan")]) == 1
    doc = json.loads((tmp_path / "nan" / "certificate.json").read_text(),
                     parse_constant=_reject_constant)
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert {"continuity_residual", "momentum_residual", "defect_nonnegative"} <= failed
    values = {c["name"]: c["value"] for c in doc["checks"]}
    assert all(values[name] is None for name in
               ("continuity_residual", "momentum_residual", "defect_nonnegative"))


@pytest.mark.parametrize("column", [1, 2], ids=["rho", "mx"])
def test_diagnose_nan_field_fails_vacuum_consistency(tmp_path, column):
    run_cfg = write_config(tmp_path, "r.json", run_config(tmp_path))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", run_cfg, "--out", str(bundle)]) == 0
    state = bundle / "state_000003.csv"
    lines = state.read_text().splitlines()
    cells = lines[5].split(",")
    cells[column] = "nan"
    lines[5] = ",".join(cells)
    state.write_text("\n".join(lines) + "\n")
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle)})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "nan")]) == 1
    doc = json.loads((tmp_path / "nan" / "certificate.json").read_text(),
                     parse_constant=_reject_constant)
    vacuum = next(c for c in doc["checks"] if c["name"] == "vacuum_consistency")
    assert vacuum == {"name": "vacuum_consistency", "value": None, "tolerance": 0.0,
                      "passed": False}


@pytest.mark.parametrize("mx, value", [("0", 0.0), ("-0.0", 0.0), ("5e-324", 1.0),
                                       ("0.5", 1.0)])
def test_diagnose_vacuum_consistency_edge(tmp_path, mx, value):
    # a 32-cell run from a state with one vacuum cell at rest: a signed zero
    # momentum on that cell in the first sample passes, the least subnormal
    # fails (0.5 also makes that sample's mean energy infinite)
    from eulerlab.fields import save_state_csv
    g = Grid(counts=(32,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
    rho = np.ones(32)
    rho[16] = 0.0
    save_state_csv(FluidState(g, rho, np.zeros((32, 1))), tmp_path / "init.csv")
    run_cfg = write_config(tmp_path, "r.json", run_config(
        tmp_path, initial={"file": str(tmp_path / "init.csv")}))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", run_cfg, "--out", str(bundle)]) == 0
    state = bundle / "state_000000.csv"
    lines = state.read_text().splitlines()
    i, rho_16, _ = lines[17].split(",")
    assert (i, float(rho_16)) == ("16", 0.0)
    lines[17] = f"{i},{rho_16},{mx}"
    state.write_text("\n".join(lines) + "\n")
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle)})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "d")]) == int(value)
    doc = json.loads((tmp_path / "d" / "certificate.json").read_text())
    vacuum = next(c for c in doc["checks"] if c["name"] == "vacuum_consistency")
    assert vacuum == {"name": "vacuum_consistency", "value": value, "tolerance": 0.0,
                      "passed": not value}


def test_diagnose_rejects_wrapped_cell_index(tmp_path, capsys):
    run_cfg = write_config(tmp_path, "r.json", run_config(tmp_path))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", run_cfg, "--out", str(bundle)]) == 0
    state = bundle / "state_000001.csv"
    lines = state.read_text().splitlines()
    lines[1] = "-1" + lines[1][lines[1].index(","):]
    state.write_text("\n".join(lines) + "\n")
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle)})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "malformed bundle" in err and "state_000001.csv: data row 1" in err


def test_diagnose_malformed_bundle(tmp_path, capsys):
    bad = tmp_path / "nonsense"
    bad.mkdir()
    (bad / "meta.json").write_text("{not json")
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bad)})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "o")]) == 2
    assert "malformed bundle" in capsys.readouterr().err


def _swap_sample_times_3_and_4(bundle):
    # meta.json and energy.csv agree bit for bit, on times that decrease
    meta = json.loads((bundle / "meta.json").read_text())
    meta["times"][3], meta["times"][4] = meta["times"][4], meta["times"][3]
    (bundle / "meta.json").write_text(json.dumps(meta))
    lines = (bundle / "energy.csv").read_text().splitlines()
    (t3, e3), (t4, e4) = lines[4].split(","), lines[5].split(",")
    lines[4], lines[5] = f"{t4},{e3}", f"{t3},{e4}"
    (bundle / "energy.csv").write_text("\n".join(lines) + "\n")


def _drop_every_sample(bundle):
    meta = json.loads((bundle / "meta.json").read_text())
    meta["times"] = []
    (bundle / "meta.json").write_text(json.dumps(meta))
    (bundle / "energy.csv").write_text("t,E\n")
    for state in bundle.glob("state_*.csv"):
        state.unlink()


@pytest.mark.parametrize("edit, reason", [
    (_swap_sample_times_3_and_4, "sample times must be strictly increasing"),
    (_drop_every_sample, "times, states and energy must have equal positive length"),
], ids=["swapped-times", "no-sample"])
def test_diagnose_bundle_without_increasing_times_is_malformed(tmp_path, capsys, edit, reason):
    # diagnose reads bundles unchecked, but not without their sample structure
    bundle = _run_bundle(tmp_path)
    edit(bundle)
    capsys.readouterr()
    assert main(_diagnose_argv(tmp_path, bundle=str(bundle))) == 2
    assert capsys.readouterr().err == f"error: malformed bundle {bundle}: {reason}\n"
    assert not (tmp_path / "o").exists()


def _set_energy_time(bundle, k, text):
    """Write ``text`` as the ``t`` entry of data row ``k + 1`` of energy.csv."""
    lines = (bundle / "energy.csv").read_text().splitlines()
    lines[k + 1] = text + "," + lines[k + 1].split(",")[1]
    (bundle / "energy.csv").write_text("\n".join(lines) + "\n")


def test_diagnose_nan_sample_time_reports_nan_checks(tmp_path):
    run_cfg = write_config(tmp_path, "r.json", run_config(tmp_path))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", run_cfg, "--out", str(bundle)]) == 0
    meta = json.loads((bundle / "meta.json").read_text())
    meta["times"][2] = float("nan")
    (bundle / "meta.json").write_text(json.dumps(meta))
    _set_energy_time(bundle, 2, "nan")  # the t column must match meta.json
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle)})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "o")]) == 1
    doc = json.loads((tmp_path / "o" / "certificate.json").read_text(),
                     parse_constant=_reject_constant)
    values = {c["name"]: c["value"] for c in doc["checks"]}
    assert values["continuity_residual"] is None and values["momentum_residual"] is None


def _drop_e0(bundle):
    meta = json.loads((bundle / "meta.json").read_text())
    del meta["e0"]
    (bundle / "meta.json").write_text(json.dumps(meta))


# an edit to energy.csv's t column, and how the message prints the edited value
_TIME_EDITS = {"nan": "nan", "1e300": "1e+300", "-1e300": "-1e+300", "0": "0.0"}


@pytest.mark.parametrize("text", sorted(_TIME_EDITS))
def test_diagnose_rejects_energy_time_off_the_sample_times(tmp_path, capsys, text):
    bundle = _run_bundle(tmp_path)
    _set_energy_time(bundle, 1, text)
    assert main(_diagnose_argv(tmp_path, bundle=str(bundle))) == 2
    assert capsys.readouterr().err == (
        f"error: malformed bundle {bundle}: energy.csv time {_TIME_EDITS[text]} in data "
        "row 2 is not the sample time 0.05 of meta.json\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", sorted(_TIME_EDITS))
def test_select_rejects_energy_time_off_the_sample_times(tmp_path, capsys, text):
    root = _write_candidates(tmp_path)
    _set_energy_time(root / "member_01", 1, text)
    assert main(_select_argv(tmp_path, root)) == 2
    assert capsys.readouterr().err == (
        f"error: candidate member_01 is inconsistent: energy.csv time {_TIME_EDITS[text]} "
        "in data row 2 is not the sample time 0.5 of meta.json\n")
    assert not (tmp_path / "o").exists()


def test_energy_time_must_match_bit_for_bit(tmp_path, capsys):
    bundle = _run_bundle(tmp_path)
    _set_energy_time(bundle, 0, "-0")
    assert main(_diagnose_argv(tmp_path, bundle=str(bundle))) == 2
    assert "energy.csv time -0.0 in data row 1 is not the sample time 0.0" in (
        capsys.readouterr().err)


def test_diagnose_bundle_without_e0_is_malformed(tmp_path, capsys):
    run_cfg = write_config(tmp_path, "r.json", run_config(tmp_path))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", run_cfg, "--out", str(bundle)]) == 0
    _drop_e0(bundle)
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle)})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: malformed bundle {bundle}: 'e0'\n"


def _diagnose_edited_bundle(tmp_path, edit):
    """Exit code and certificate checks of ``diagnose`` on a ``run`` bundle
    after ``edit(bundle)``."""
    run_cfg = write_config(tmp_path, "r.json", run_config(tmp_path))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", run_cfg, "--out", str(bundle)]) == 0
    edit(bundle)
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle)})
    code = main(["diagnose", "--config", diag, "--out", str(tmp_path / "o")])
    doc = json.loads((tmp_path / "o" / "certificate.json").read_text(),
                     parse_constant=_reject_constant)
    return code, {c["name"]: c for c in doc["checks"]}


def test_diagnose_infinite_e0_fails(tmp_path):
    # an infinite e0 makes every scaled tolerance infinite; such a check fails
    def infinite_e0(bundle):
        meta = json.loads((bundle / "meta.json").read_text())
        meta["e0"] = math.inf
        (bundle / "meta.json").write_text(json.dumps(meta))  # json writes Infinity

    code, checks = _diagnose_edited_bundle(tmp_path, infinite_e0)
    assert code == 1
    assert {n for n, c in checks.items() if c["passed"]} == {"vacuum_consistency",
                                                             "stress_psd_margin"}
    assert all(c["tolerance"] is None for n, c in checks.items()
               if n not in ("vacuum_consistency", "stress_psd_margin"))


def test_diagnose_infinite_energy_fails_compatibility_slack(tmp_path):
    def infinite_energy(bundle):
        lines = (bundle / "energy.csv").read_text().splitlines()
        lines[1:] = [line.split(",")[0] + ",inf" for line in lines[1:]]
        (bundle / "energy.csv").write_text("\n".join(lines) + "\n")

    code, checks = _diagnose_edited_bundle(tmp_path, infinite_energy)
    assert code == 1
    assert checks["compatibility_slack"]["value"] is None
    assert not checks["compatibility_slack"]["passed"]


@pytest.mark.parametrize("sample_dt,t_end", [(0.1, 0.2), (0.1, 0.4)],
                         ids=["count", "times"])
def test_diagnose_rejects_mismatched_reynolds_field(tmp_path, capsys, sample_dt, t_end):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.2, 0.1]})
    doc["initial"] = {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0,
                      "rho_r": 0.25, "u_r": 0.0}
    ens = tmp_path / "ens"
    assert main(["ensemble", "--config", write_config(tmp_path, "e.json", doc),
                 "--out", str(ens)]) == 0
    run_cfg = run_config(tmp_path, sample_dt=sample_dt, t_end=t_end)
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", write_config(tmp_path, "r.json", run_cfg),
                 "--out", str(bundle)]) == 0
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle),
                                             "reynolds": str(ens / "reynolds.npz")})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "malformed Reynolds field" in err and "sample times" in err
    assert not (tmp_path / "o").exists()



def test_diagnose_rejects_reynolds_field_of_another_domain(tmp_path, capsys):
    # same cell count and sample times, but the stress lives on [0, 5]
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.2, 0.1]},
                     grid={"counts": [32], "lower": [0.0], "upper": [5.0],
                           "boundary": ["reflective"]})
    ens = tmp_path / "ens"
    assert main(["ensemble", "--config", write_config(tmp_path, "e.json", doc),
                 "--out", str(ens)]) == 0
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", write_config(tmp_path, "r.json", run_config(tmp_path)),
                 "--out", str(bundle)]) == 0
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(bundle),
                                             "reynolds": str(ens / "reynolds.npz")})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "malformed Reynolds field" in err and "upper (5.0,)" in err
    assert not (tmp_path / "o").exists()


def test_diagnose_rejects_reynolds_field_with_nan_off_diagonal(tmp_path, capsys):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.2, 0.1]},
                     grid={"counts": [6, 5], "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                     initial={"preset": "constant", "rho": 1.0, "u": [0.3, -0.2]})
    ens = tmp_path / "ens"
    assert main(["ensemble", "--config", write_config(tmp_path, "e.json", doc),
                 "--out", str(ens)]) == 0
    with np.load(ens / "reynolds.npz") as data:
        stored = dict(data)
    stored["tensor"][2, 3, 1, 0, 1] = np.nan  # its partner [..., 1, 0] holds 0
    np.savez(ens / "reynolds.npz", **stored)
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose", "bundle": str(ens / "average"),
                                             "reynolds": str(ens / "reynolds.npz")})
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"error: malformed Reynolds field {ens / 'reynolds.npz'}: "
                                       "stress matrices must be symmetric\n")
    assert not (tmp_path / "o").exists()


def _two_cell_bundle(tmp_path):
    doc = run_config(tmp_path)
    doc["grid"]["counts"] = [2]
    cfg = write_config(tmp_path, "r.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "bundle")]) == 0
    return tmp_path / "bundle"


def _one_sample_bundle(tmp_path):
    g = Grid(counts=(16,), lower=(-1.0,), upper=(1.0,))
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    save_bundle(Trajectory(g, LAW2, [0.0], [s], [e]), tmp_path / "bundle")
    return tmp_path / "bundle"


@pytest.mark.parametrize("bundle, reason", [
    (_two_cell_bundle, "need at least 3 cells on every axis, got counts (2,)"),
    (_one_sample_bundle, "need a positive time horizon, got t_end=0.0 (a single sample)"),
])
def test_diagnose_untestable_bundle_is_config_error(tmp_path, capsys, bundle, reason):
    diag = write_config(tmp_path, "d.json", {"kind": "diagnose",
                                             "bundle": str(bundle(tmp_path))})
    capsys.readouterr()
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot certify bundle ") and reason in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()

# -- select --------------------------------------------------------------------

def _write_candidates(tmp_path):
    g = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    times = [0.0, 0.5, 1.0]
    lo = Trajectory(g, LAW2, times, [s] * 3, [e + 0.2, e + 0.1, e + 0.1], e0=e + 0.2)
    hi = Trajectory(g, LAW2, times, [s] * 3, [e + 0.2, e + 0.2, e + 0.2], e0=e + 0.2)
    root = tmp_path / "cands"
    save_bundle(hi, root / "member_00")
    save_bundle(lo, root / "member_01")
    return root


def _candidates_of_another_datum(tmp_path):
    """``_write_candidates`` plus a member_02 that starts from other fields."""
    root = _write_candidates(tmp_path)
    g = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    s = FluidState.constant(g, 2.0, 0.0)
    e = integrate_energy(s, LAW2)
    save_bundle(Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [e, e, e]), root / "member_02")
    return root


def test_select_two_ordered_members(tmp_path):
    root = _write_candidates(tmp_path)
    cfg = write_config(tmp_path, "s.json", {"kind": "select", "candidates": str(root)})
    out = tmp_path / "sel"
    assert main(["select", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "selection.json").read_text())
    assert doc["members"][doc["selected"]] == "member_01"
    assert doc["absolute_minimizer"]["verdict"] is True
    csv_text = (out / "selection.csv").read_text()
    assert csv_text.startswith("member,F1,survived,F2,selected")


def test_select_singleton(tmp_path):
    g = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    traj = Trajectory(g, LAW2, [0.0, 1.0], [s] * 2, [e, e])
    root = tmp_path / "cands"
    save_bundle(traj, root / "only")
    cfg = write_config(tmp_path, "s.json", {"kind": "select", "candidates": str(root)})
    assert main(["select", "--config", cfg, "--out", str(tmp_path / "sel")]) == 0
    doc = json.loads((tmp_path / "sel" / "selection.json").read_text())
    assert doc["selected"] == 0 and not doc["tie_flagged"]


def test_select_rejects_inconsistent_members(tmp_path, capsys):
    root = _candidates_of_another_datum(tmp_path)
    cfg = write_config(tmp_path, "s.json", {"kind": "select", "candidates": str(root)})
    assert main(["select", "--config", cfg, "--out", str(tmp_path / "sel")]) == 2
    assert "member" in capsys.readouterr().err


def test_select_candidate_without_e0_is_inconsistent(tmp_path, capsys):
    root = _write_candidates(tmp_path)
    _drop_e0(root / "member_01")
    cfg = write_config(tmp_path, "s.json", {"kind": "select", "candidates": str(root)})
    assert main(["select", "--config", cfg, "--out", str(tmp_path / "sel")]) == 2
    assert capsys.readouterr().err == "error: candidate member_01 is inconsistent: 'e0'\n"


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_select_rejects_non_finite_sample_time(tmp_path, capsys, bad):
    root = _write_candidates(tmp_path)
    meta_path = root / "member_01" / "meta.json"
    meta_path.write_text(meta_path.read_text().replace("0.5", bad, 1))
    _set_energy_time(root / "member_01", 1, {"NaN": "nan", "Infinity": "inf"}[bad])
    cfg = write_config(tmp_path, "s.json", {"kind": "select", "candidates": str(root)})
    assert main(["select", "--config", cfg, "--out", str(tmp_path / "sel")]) == 2
    err = capsys.readouterr().err
    assert "candidate member_01 is inconsistent" in err and "finite" in err


# -- dt2 demo -----------------------------------------------------------------

def test_dt2_demo_end_to_end(tmp_path):
    doc = {
        "kind": "dt2-demo",
        "grid": {"counts": [64], "lower": [-1.0], "upper": [1.0],
                 "boundary": ["reflective"]},
        "law": {"a": 1.0, "gamma": 2.0},
        "t_end": 0.8,
        "sample_dt": 0.1,
        "initial": {"preset": "riemann", "rho_l": 1.5, "u_l": 0.0,
                    "rho_r": 0.25, "u_r": 0.0},
        "nu_list": [1.0, 0.1],
    }
    cfg = write_config(tmp_path, "dt2.json", doc)
    out = tmp_path / "dt2"
    assert main(["dt2-demo", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["relation"] == "less"
    assert report["min_gap_on_window"] >= 0.5 * report["epsilon"] * (1 - 1e-9)
    assert report["coherence_violations"] == []
    assert (out / "base" / "meta.json").is_file()
    assert (out / "competitor" / "meta.json").is_file()


@pytest.mark.parametrize("slack, passed", [(0.5e-9, True), (2e-9, False)])
def test_dt1_passes_a_defect_within_1e_9_of_delta(tmp_path, monkeypatch, slack, passed):
    # the reset loop is replaced by one whose trajectory's largest defect
    # is delta * (1 + slack)
    import eulerlab.cli as cli_mod
    delta = 0.25
    g = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1
    traj = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [1.0 + delta * (1.0 + slack)] * 2)
    monkeypatch.setattr(cli_mod, "reset_defects", lambda *args: (traj, []))
    doc = run_config(tmp_path, extra={"kind": "dt1-demo", "nu_list": [0.2], "delta": delta})
    out = tmp_path / "o"
    assert main(["dt1-demo", "--config", write_config(tmp_path, "c.json", doc),
                 "--out", str(out)]) == (0 if passed else 1)
    assert json.loads((out / "report.json").read_text())["passed"] is passed


@pytest.mark.parametrize("defect, improves", [(0.5e-6, False), (2e-6, True)])
def test_dt2_needs_a_defect_above_1e_6_of_the_energy_scale(tmp_path, monkeypatch, capsys,
                                                           defect, improves):
    # the base average is replaced by one whose defect is defect * scale
    # (scale = max(1, |e0|) = 4) at every sample; past the threshold the
    # continuation's average is asked for next
    import eulerlab.cli as cli_mod

    class Continued(Exception):
        pass

    g = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1
    base = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [1.0 + 4.0 * defect] * 3, e0=4.0)
    averages = [(None, base)]

    def average(members):
        if not averages:
            raise Continued
        return averages.pop()

    monkeypatch.setattr(cli_mod, "estimate_reynolds", average)
    doc = run_config(tmp_path, extra={"kind": "dt2-demo", "nu_list": [1.0, 0.1]})
    argv = ["dt2-demo", "--config", write_config(tmp_path, "c.json", doc),
            "--out", str(tmp_path / "o")]
    if improves:
        with pytest.raises(Continued):
            main(argv)
    else:
        assert main(argv) == 2
        assert "base trajectory has no defect to improve" in capsys.readouterr().err


def test_dt2_reset_gap_within_rounding_of_the_strict_gap_has_no_defect(tmp_path, monkeypatch,
                                                                       capsys):
    # the base average's defect (scale 4) passes the 1e-6 * scale pre-check by
    # 2e-9, and the continuation's average starts 3e-9 above the mean energy,
    # within the reset's 1e-9 * scale: the reset gap sits 1e-9 inside the
    # local order's strict gap, so the order is "incomparable", not "less"
    import eulerlab.cli as cli_mod
    g = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1
    base = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [1.0 + 4e-6 + 2e-9] * 3, e0=4.0)
    cont = Trajectory(g, LAW2, base.times, [s] * 3, [1.0 + 3e-9] * 3)
    averages = [(None, cont), (None, base)]
    monkeypatch.setattr(cli_mod, "estimate_reynolds", lambda members: averages.pop())
    doc = run_config(tmp_path, extra={"kind": "dt2-demo", "nu_list": [1.0, 0.1]})
    assert main(["dt2-demo", "--config", write_config(tmp_path, "c.json", doc),
                 "--out", str(tmp_path / "o")]) == 2
    assert "base trajectory has no defect to improve" in capsys.readouterr().err
    assert not averages


@pytest.mark.parametrize("slack, passed", [(0.5e-9, True), (2e-9, False)])
def test_dt2_passes_a_gap_within_1e_9_of_half_the_defect(tmp_path, monkeypatch, slack, passed):
    # the base average (e0 3, defect eps = 2 at every sample) and the
    # competitor are replaced; the competitor sits eps/2 * (1 - slack)
    # below the base on the whole witness window
    import eulerlab.cli as cli_mod
    from eulerlab.trajectory import OrderResult
    g = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1
    base = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [3.0] * 3)
    competitor = Trajectory(g, LAW2, base.times, [s] * 3, [2.0 + slack] * 3, e0=3.0)
    monkeypatch.setattr(cli_mod, "estimate_reynolds", lambda members: (None, base))
    monkeypatch.setattr(cli_mod, "improve", lambda traj, T, cont: (
        competitor, OrderResult("less", T=0.0, delta=math.inf)))
    doc = run_config(tmp_path, extra={"kind": "dt2-demo", "nu_list": [1.0, 0.1]})
    out = tmp_path / "o"
    assert main(["dt2-demo", "--config", write_config(tmp_path, "c.json", doc),
                 "--out", str(out)]) == (0 if passed else 1)
    report = json.loads((out / "report.json").read_text())
    assert report["min_gap_on_window"] == 3.0 - (2.0 + slack)
    assert report["coherence_violations"] == [] and report["passed"] is passed


def test_dt2_on_a_long_horizon_reports_instead_of_raising(tmp_path):
    # concatenating at T drifts the sample times by about 2e-9 from the
    # base's at t_end 1e7: one sample time within 1e-9 of the horizon
    doc = {
        "kind": "dt2-demo",
        "grid": {"counts": [16], "lower": [-1e10], "upper": [1e10],
                 "boundary": ["reflective"]},
        "law": {"a": 1.0, "gamma": 2.0},
        "t_end": 1e7,
        "sample_dt": 1e7 / 12,
        "initial": {"preset": "riemann", "rho_l": 1.5, "u_l": 0.0,
                    "rho_r": 0.25, "u_r": 0.0},
        "nu_list": [1.0, 0.1],
    }
    out = tmp_path / "dt2"
    assert main(["dt2-demo", "--config", write_config(tmp_path, "dt2.json", doc),
                 "--out", str(out)]) in (0, 1)
    assert json.loads((out / "report.json").read_text())["relation"] == "less"


def test_dt1_delta_floor_keeps_an_all_vacuum_datum_runnable(tmp_path):
    # E0 = 0, so the default delta is 0.05 * 1e-300, positive
    from eulerlab.fields import save_state_csv
    g = Grid(counts=(8,), lower=(-1.0,), upper=(1.0,))
    save_state_csv(FluidState(g, np.zeros(8), np.zeros((8, 1))), tmp_path / "vacuum.csv")
    doc = run_config(tmp_path, extra={"kind": "dt1-demo", "nu_list": [0.2]},
                     initial={"file": str(tmp_path / "vacuum.csv")})
    doc["grid"]["counts"] = [8]
    out = tmp_path / "o"
    assert main(["dt1-demo", "--config", write_config(tmp_path, "c.json", doc),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["delta"] == 0.05 * 1e-300 and report["max_defect"] == 0.0


# -- file-based initial data -----------------------------------------------------

def test_run_with_initial_file(tmp_path):
    from eulerlab.fields import save_state_csv
    g = Grid(counts=(32,), lower=(-1.0,), upper=(1.0,))
    x = g.centers(0)
    rho = 1.0 + 0.2 * np.exp(-20 * x**2)
    state = FluidState(g, rho, np.zeros((32, 1)))
    csv_path = tmp_path / "init.csv"
    save_state_csv(state, csv_path)
    doc = run_config(tmp_path)
    doc["grid"]["boundary"] = ["periodic"]
    doc["initial"] = {"file": str(csv_path)}
    out = tmp_path / "bundle"
    assert main(_argv(tmp_path, "run", doc, out)) == 0
    traj = load_bundle(out)
    assert np.allclose(traj.states[0].rho, rho)


@pytest.mark.parametrize("grid, initial", [
    ({"counts": [64], "lower": [0.0], "upper": [1.0], "boundary": ["periodic"]},
     {"preset": "acoustic", "rho0": 0.8, "amplitude": 0.05, "modes": 2}),
    ({"counts": [8, 4], "lower": [0.0, 0.0], "upper": [1.0, 0.5]},
     {"preset": "acoustic", "rho0": 0.8}),
], ids=["1d", "2d"])
def test_run_acoustic_preset_simple_wave(tmp_path, grid, initial):
    # a right-moving simple wave: the left Riemann invariant u - 2c/(gamma-1)
    # is constant in the initial state
    out = tmp_path / "bundle"
    assert main(_argv(tmp_path, "run", run_config(tmp_path, grid=grid, initial=initial), out)) == 0
    names, table = read_csv(out / "state_000000.csv")
    cols = dict(zip(names, table.T))
    rho = cols["rho"]
    invariant = cols["mx"] / rho - 2.0 * sound_speed(rho, LAW2) / (LAW2.gamma - 1.0)
    assert np.ptp(invariant) <= 1e-12
    assert np.mean(rho) == pytest.approx(0.8, abs=1e-12)
    if "my" in cols:
        assert not cols["my"].any()
    traj = load_bundle(out)
    mass = traj.rho.sum(axis=tuple(range(1, traj.rho.ndim)))
    assert mass[-1] == pytest.approx(mass[0], rel=1e-13)


# -- riemann -----------------------------------------------------------------

def test_riemann_profile(tmp_path):
    cfg = write_config(tmp_path, "r.json", {
        "kind": "riemann", "law": {"a": 1.0, "gamma": 2.0},
        "rho_l": 1.0, "u_l": 0.0, "rho_r": 0.25, "u_r": 0.0,
        "time": 0.2, "x_min": -1.0, "x_max": 1.0, "samples": 101,
    })
    out = tmp_path / "rp"
    assert main(["riemann", "--config", cfg, "--out", str(out)]) == 0
    prof = np.genfromtxt(out / "profile.csv", delimiter=",", names=True)
    assert prof["rho"][0] == pytest.approx(1.0)
    assert prof["rho"][-1] == pytest.approx(0.25)
    star = json.loads((out / "star.json").read_text())
    assert star["rho_star"] == pytest.approx(0.5517469269185533, abs=1e-9)


# -- plot ----------------------------------------------------------------------

def test_plot_energy_deterministic(tmp_path):
    run_cfg = write_config(tmp_path, "r.json", run_config(tmp_path))
    bundle = tmp_path / "bundle"
    main(["run", "--config", run_cfg, "--out", str(bundle)])
    csv = str(bundle / "energy.csv")
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["plot", "--csv", csv, "--kind", "energy", "--out", str(out1)]) == 0
    assert main(["plot", "--csv", csv, "--kind", "energy", "--out", str(out2)]) == 0
    b1 = (out1 / "energy.svg").read_bytes()
    b2 = (out2 / "energy.svg").read_bytes()
    assert b1 == b2
    assert b"<svg" in b1 and b"polyline" in b1


def test_plot_profile_from_state_csv(tmp_path):
    run_cfg = write_config(tmp_path, "r.json", run_config(tmp_path))
    bundle = tmp_path / "bundle"
    main(["run", "--config", run_cfg, "--out", str(bundle)])
    csv = str(bundle / "state_000000.csv")
    assert main(["plot", "--csv", csv, "--kind", "profile",
                 "--out", str(tmp_path / "pp")]) == 0


def test_plot_defect_csv(tmp_path):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.4, 0.1]})
    doc["initial"] = {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0,
                      "rho_r": 0.25, "u_r": 0.0}
    out = tmp_path / "ens"
    main(_argv(tmp_path, "ensemble", doc, out))
    assert main(["plot", "--csv", str(out / "defect.csv"), "--kind", "defect",
                 "--out", str(tmp_path / "pd")]) == 0
    svg = (tmp_path / "pd" / "defect.svg").read_text()
    assert "traceR" in svg and "slack" in svg


def test_plot_column_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["plot", "--csv", str(bad), "--kind", "energy",
                 "--out", str(tmp_path / "o")]) == 2
    assert "t,E" in capsys.readouterr().err


# -- determinism ----------------------------------------------------------------

def test_ensemble_rerun_byte_identical(tmp_path):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.4, 0.1]})
    doc["initial"] = {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0,
                      "rho_r": 0.25, "u_r": 0.0}
    cfg = write_config(tmp_path, "c.json", doc)
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["ensemble", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["ensemble", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert list(tree(out1)) == list(tree(out2))
    out3 = tmp_path / "e3"
    assert main(["ensemble", "--config", cfg, "--out", str(out3), "--seed", "8"]) == 0
    assert list(tree(out3)) == list(tree(out1))  # --seed is accepted and ignored


def test_select_rerun_byte_identical(tmp_path):
    root = _write_candidates(tmp_path)
    cfg = write_config(tmp_path, "s.json", {"kind": "select", "candidates": str(root)})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["select", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["select", "--config", cfg, "--out", str(out2)]) == 0
    assert list(tree(out1)) == list(tree(out2))


# -- viscosities the march cannot take -------------------------------------------

def test_run_non_finite_nu_is_config_error(tmp_path, capsys):
    doc = run_config(tmp_path, scheme={"flux": "llf", "nu": math.inf})
    cfg = write_config(tmp_path, "c.json", doc)  # json writes the token Infinity
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "nu must be finite and nonnegative" in capsys.readouterr().err


def test_run_failing_march_is_config_error(tmp_path, capsys):
    doc = run_config(tmp_path, scheme={"flux": "llf", "nu": 1e300})
    assert main(_argv(tmp_path, "run", doc)) == 2
    assert "run member 0 (nu=1e+300) failed: stable dt" in capsys.readouterr().err


@pytest.mark.parametrize("nu, message", [
    (math.inf, "ensemble member 1 (nu=inf) failed: viscosity coefficient nu must be finite"),
    (1e300, "ensemble member 1 (nu=1e+300) failed: stable dt"),
])
def test_ensemble_unmarchable_nu_is_config_error(tmp_path, capsys, nu, message):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.2, nu]})
    assert main(_argv(tmp_path, "ensemble", doc)) == 2
    assert message in capsys.readouterr().err


def test_run_energy_below_mean_energy_is_config_error(tmp_path, capsys):
    doc = run_config(tmp_path, scheme={"flux": "hll"},
                     initial={"preset": "riemann", "rho_l": 1.0, "u_l": 0.0,
                              "rho_r": 0.25, "u_r": 0.0, "E0": 0.01})
    assert main(_argv(tmp_path, "run", doc)) == 2
    assert capsys.readouterr().err == ("error: run initial data rejected: mean energy 1.0625 "
                                       "exceeds E0 0.01 beyond tolerance\n")



# -- configs the schema accepts but the program cannot build ---------------------

def _riemann_doc(**overrides):
    doc = {"kind": "riemann", "law": {"a": 1.0, "gamma": 2.0},
           "rho_l": 1.0, "u_l": 0.0, "rho_r": 0.25, "u_r": 0.0,
           "time": 0.2, "x_min": -1.0, "x_max": 1.0, "samples": 101}
    doc.update(overrides)
    return doc


UNBUILDABLE_CONFIGS = {
    "riemann-vacuum": lambda tmp: _riemann_doc(u_l=-10.0, u_r=10.0),
    "missing-initial-file": lambda tmp: run_config(
        tmp, initial={"file": str(tmp / "missing.csv")}),
    "riemann-preset-without-rho_r": lambda tmp: run_config(
        tmp, initial={"preset": "riemann", "rho_l": 1.0, "u_l": 0.0, "u_r": 0.0}),
    "grid-bounds-of-another-dimension": lambda tmp: run_config(
        tmp, grid={"counts": [32], "lower": [-1.0, 0.0], "upper": [1.0]}),
    "constant-u-of-another-dimension": lambda tmp: run_config(
        tmp, initial={"preset": "constant", "rho": 1.0, "u": [1.0, 2.0, 3.0]}),
    "select-q-above-q_max": lambda tmp: {"kind": "select", "selection": {"q": 5},
                                         "candidates": str(_write_candidates(tmp))},
}


@pytest.mark.parametrize("case", sorted(UNBUILDABLE_CONFIGS))
def test_unbuildable_config_is_config_error(tmp_path, capsys, case):
    doc = UNBUILDABLE_CONFIGS[case](tmp_path)
    cfg = write_config(tmp_path, "c.json", doc)
    assert main([doc["kind"], "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()

# -- one error line per config-error site -----------------------------------------

def _diagnose_argv(tmp, **keys):
    return _argv(tmp, "diagnose", {"kind": "diagnose", **keys})


def _run_bundle(tmp):
    assert main(_argv(tmp, "run", run_config(tmp))[:-1] + [str(tmp / "bundle")]) == 0
    return tmp / "bundle"


def _select_argv(tmp, root, **keys):
    return _argv(tmp, "select", {"kind": "select", "candidates": str(root), **keys})


def _candidates_without_e0(tmp):
    root = _write_candidates(tmp)
    _drop_e0(root / "member_01")
    return root


def _csv(tmp, text):
    (tmp / "t.csv").write_text(text)
    return tmp / "t.csv"


def _plot_argv(tmp, csv):
    return ["plot", "--csv", str(csv), "--kind", "energy", "--out", str(tmp / "o")]


_DT_BELOW_CLOCK = "stable dt 2.8125e-302 is below the clock tolerance 2e-15"

# case: tmp -> (argv, the message after "error: "); every site that turns an error
# into exit 2, one case each
ERROR_LINES = {
    "config-not-found": lambda tmp: (
        ["run", "--config", str(tmp / "none.json"), "--out", str(tmp / "o")],
        f"config file not found: {tmp / 'none.json'}"),
    "config-directory": lambda tmp: (
        ["run", "--config", str(tmp), "--out", str(tmp / "o")],
        f"cannot read config file {tmp}: Is a directory"),
    "config-not-json": lambda tmp: (
        ["run", "--config", str(_csv(tmp, "{not json")), "--out", str(tmp / "o")],
        f"config {tmp / 't.csv'} is not valid JSON: Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1)"),
    "kind-mismatch": lambda tmp: (
        _argv(tmp, "run", run_config(tmp, kind="ensemble")),
        "config kind 'ensemble' does not match the subcommand 'run'"),
    "no-output-directory": lambda tmp: (
        _argv(tmp, "run", run_config(tmp))[:3],
        "an output directory is required (--out or config 'out')"),
    "law": lambda tmp: (
        _argv(tmp, "run", run_config(tmp, law={"a": math.inf, "gamma": 2.0})),
        "invalid law: pressure coefficient a must be positive and finite, got inf"),
    "grid": lambda tmp: (
        _argv(tmp, "run", run_config(tmp, grid={"counts": [32], "lower": [-1.0, 0.0],
                                                 "upper": [1.0]})),
        "invalid grid: counts, bounds and boundary kinds must share the dimension"),
    "scheme": lambda tmp: (
        _argv(tmp, "run", run_config(tmp, scheme={"nu": math.inf})),
        "invalid scheme: viscosity coefficient nu must be finite and nonnegative, got inf"),
    "nu_list-member": lambda tmp: (
        _argv(tmp, "ensemble", run_config(tmp, kind="ensemble", nu_list=[0.2, math.inf])),
        "ensemble member 1 (nu=inf) failed: viscosity coefficient nu must be finite and "
        "nonnegative, got inf"),
    "initial-preset-key": lambda tmp: (
        _argv(tmp, "run", run_config(tmp, initial={"preset": "riemann", "rho_l": 1.0,
                                                    "u_l": 0.0, "u_r": 0.0})),
        "initial data: preset 'riemann' needs the key 'rho_r'"),
    "initial-file": lambda tmp: (
        _argv(tmp, "run", run_config(tmp, initial={"file": str(tmp / "missing.csv")})),
        f"invalid initial data: [Errno 2] No such file or directory: "
        f"'{tmp / 'missing.csv'}'"),
    "initial-energy": lambda tmp: (
        _argv(tmp, "run", run_config(tmp, initial={"preset": "constant", "rho": 1e300})),
        "invalid initial data: total energy E0 must be finite and nonnegative"),
    "run-march": lambda tmp: (
        _argv(tmp, "run", run_config(tmp, scheme={"nu": 1e300})),
        "run member 0 (nu=1e+300) failed: " + _DT_BELOW_CLOCK),
    "ensemble-march": lambda tmp: (
        _argv(tmp, "ensemble", run_config(tmp, kind="ensemble", nu_list=[0.2, 1e300])),
        "ensemble member 1 (nu=1e+300) failed: " + _DT_BELOW_CLOCK),
    "dt1-march": lambda tmp: (
        _argv(tmp, "dt1-demo", run_config(tmp, kind="dt1-demo", nu_list=[0.2, 1e300])),
        "ensemble member 1 (nu=1e+300) failed: " + _DT_BELOW_CLOCK),
    "diagnose-bundle": lambda tmp: (
        _diagnose_argv(tmp, bundle=str(tmp / "none")),
        f"malformed bundle {tmp / 'none'}: [Errno 2] No such file or directory: "
        f"'{tmp / 'none' / 'meta.json'}'"),
    "diagnose-reynolds": lambda tmp: (
        _diagnose_argv(tmp, bundle=str(_run_bundle(tmp)), reynolds=str(tmp / "none.npz")),
        f"malformed Reynolds field {tmp / 'none.npz'}: [Errno 2] No such file or "
        f"directory: '{tmp / 'none.npz'}'"),
    "diagnose-certify": lambda tmp: (
        _diagnose_argv(tmp, bundle=str(_two_cell_bundle(tmp))),
        f"cannot certify bundle {tmp / 'bundle'}: the test functions need at least 3 "
        "cells on every axis, got counts (2,)"),
    "select-directory": lambda tmp: (
        _select_argv(tmp, tmp / "none"), f"candidate directory not found: {tmp / 'none'}"),
    "select-no-bundles": lambda tmp: (
        _select_argv(tmp, tmp), f"no trajectory bundles under {tmp}"),
    "select-candidate": lambda tmp: (
        _select_argv(tmp, _candidates_without_e0(tmp)),
        "candidate member_01 is inconsistent: 'e0'"),
    "select-candidate-set": lambda tmp: (
        _select_argv(tmp, _candidates_of_another_datum(tmp)),
        "inconsistent candidate set: member 2 starts from different fields"),
    "select-selection": lambda tmp: (
        _select_argv(tmp, _write_candidates(tmp), selection={"q": 5}),
        "invalid selection: exponent q=5 outside the admissible range "
        "(1, 1.3333333333333333]"),
    "riemann-datum": lambda tmp: (
        _argv(tmp, "riemann", _riemann_doc(u_l=-10.0, u_r=10.0)),
        "invalid Riemann datum: vacuum region forms: the data admit no positive "
        "intermediate density"),
    "riemann-bracket": lambda tmp: (
        _argv(tmp, "riemann", _riemann_doc(rho_r=1.0, u_l=1e20, u_r=-1e20)),
        "invalid Riemann datum: failed to bracket the intermediate density"),
    "plot-csv-not-found": lambda tmp: (
        _plot_argv(tmp, tmp / "none.csv"), f"CSV file not found: {tmp / 'none.csv'}"),
    "plot-csv-directory": lambda tmp: (
        _plot_argv(tmp, tmp), f"cannot read CSV file {tmp}: Is a directory"),
    "riemann-x-range": lambda tmp: (
        _argv(tmp, "riemann", _riemann_doc(x_min=-1.7e308, x_max=1.7e308, samples=3)),
        "x_max - x_min must be finite, got inf"),
    "plot-csv-not-numeric": lambda tmp: (
        _plot_argv(tmp, _csv(tmp, "t,E\n0,abc\n")),
        f"{tmp / 't.csv'} is not a numeric table under a header row: could not convert "
        "string 'abc' to float64 at row 0, column 2."),
}


@pytest.mark.parametrize("case", sorted(ERROR_LINES))
def test_error_line(tmp_path, capsys, case):
    argv, message = ERROR_LINES[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


# -- non-finite values are rejected where they enter ------------------------------

@pytest.mark.parametrize("initial, law, reason", [
    ({"preset": "constant", "rho": 1e300}, {"a": 1.0, "gamma": 2.0},
     "total energy E0 must be finite and nonnegative"),
    ({"preset": "riemann", "rho_l": 1e300, "u_l": 1.0, "rho_r": 1.0, "u_r": 0.0},
     {"a": 1.0, "gamma": 1.4}, "total energy E0 must be finite and nonnegative"),
    ({"preset": "acoustic", "rho0": 1.0}, {"a": 0.25, "gamma": 1e300},
     "fields must be finite"),
], ids=["constant-energy", "riemann-momentum", "acoustic-sound-speed"])
def test_overflowing_initial_data_is_config_error(tmp_path, capsys, initial, law, reason):
    # the overflow itself warns nothing: its non-finite result is rejected by name
    assert main(_argv(tmp_path, "run", run_config(tmp_path, initial=initial, law=law))) == 2
    assert capsys.readouterr().err == f"error: invalid initial data: {reason}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["run", "riemann"])
def test_config_nan_token_is_config_error(tmp_path, capsys, kind):
    doc = run_config(tmp_path) if kind == "run" else _riemann_doc()
    doc["law"]["a"] = math.nan
    cfg = write_config(tmp_path, "c.json", doc)  # json writes the token NaN
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: config {cfg} is not valid JSON: NaN is not a number\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["a", "gamma"])
def test_infinite_law_is_config_error(tmp_path, capsys, key):
    doc = _riemann_doc()
    doc["law"][key] = math.inf
    assert main(_argv(tmp_path, "riemann", doc)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid law: ") and "finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("time", math.inf), ("x_min", -math.inf),
                                        ("x_max", math.inf)])
def test_riemann_infinite_coordinate_is_config_error(tmp_path, capsys, key, value):
    assert main(_argv(tmp_path, "riemann", _riemann_doc(**{key: value}))) == 2
    assert capsys.readouterr().err == f"error: {key} must be finite, got {value}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["rho_l", "u_l", "rho_r", "u_r"])
def test_riemann_infinite_state_is_config_error(tmp_path, capsys, key):
    assert main(_argv(tmp_path, "riemann", _riemann_doc(**{key: math.inf}))) == 2
    assert capsys.readouterr().err == (f"error: invalid Riemann datum: {key} must be "
                                       f"finite, got inf\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, reason", [
    ("rho_l", 1e300, "is too large for the wave curves to stay finite"),  # was OverflowError
    ("rho_l", 1e-300, "must exceed the bisection tolerance 1e-12"),  # was AssertionError
    ("rho_r", 5e-324, "must exceed the bisection tolerance 1e-12"),  # was ZeroDivisionError
])
def test_riemann_density_out_of_solver_range_is_config_error(tmp_path, capsys, key, value,
                                                             reason):
    doc = _riemann_doc(law={"a": 1.0, "gamma": 1.4}, **{key: value})
    assert main(_argv(tmp_path, "riemann", doc)) == 2
    assert capsys.readouterr().err == (f"error: invalid Riemann datum: {key} {reason}, "
                                       f"got {value}\n")
    assert not (tmp_path / "o").exists()


def test_riemann_round_off_wave_edges_profile(tmp_path):
    # density ratio 1e39: both inner wave edges are about 3.297e46 and the
    # 1-wave's lies 7.4e-15 relative above the 2-wave's (was AssertionError)
    doc = _riemann_doc(law={"a": 0.0440, "gamma": 3.8255}, rho_l=2.03e33, u_l=-0.00299,
                       rho_r=1.49e-6, u_r=1.112)
    assert main(_argv(tmp_path, "riemann", doc)) == 0
    prof = np.genfromtxt(tmp_path / "o" / "profile.csv", delimiter=",", names=True)
    assert np.isfinite(prof["u"]).all()
    assert np.isfinite(prof["rho"]).all() and (prof["rho"] > 0).all()


def test_riemann_tiny_time_samples_the_far_field(tmp_path):
    # x / t overflows to -inf, the far field left of every wave; the overflow
    # warned, which a warnings-as-errors filter turned into a traceback
    doc = _riemann_doc(law={"a": 0.25, "gamma": 1.4}, rho_l=0.25, u_l=-1.0, rho_r=0.25,
                       u_r=-1.0, x_min=-1.0, x_max=-1.0, samples=2, time=5e-324)
    cfg = write_config(tmp_path, "c.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["riemann", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    prof = np.genfromtxt(tmp_path / "o" / "profile.csv", delimiter=",", names=True)
    assert prof["rho"].tolist() == [0.25, 0.25] and prof["u"].tolist() == [-1.0, -1.0]


@pytest.mark.parametrize("key, bounds", [("lower", [-math.inf]), ("upper", [math.inf])])
def test_infinite_grid_bound_is_config_error(tmp_path, capsys, key, bounds):
    doc = run_config(tmp_path)
    doc["grid"][key] = bounds
    assert main(_argv(tmp_path, "run", doc)) == 2
    assert capsys.readouterr().err == f"error: invalid grid: {key} must be finite, got {bounds}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["t_end", "sample_dt"])
def test_infinite_march_time_is_config_error(tmp_path, capsys, key):
    assert main(_argv(tmp_path, "run", run_config(tmp_path, **{key: math.inf}))) == 2
    assert capsys.readouterr().err == f"error: run {key} must be finite, got inf\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["delta", "delta_rel"])
def test_dt1_infinite_delta_is_config_error(tmp_path, capsys, key):
    doc = run_config(tmp_path, extra={"kind": "dt1-demo", "nu_list": [0.2], key: math.inf})
    assert main(_argv(tmp_path, "dt1-demo", doc)) == 2
    assert capsys.readouterr().err == "error: delta must be finite, got inf\n"
    assert not (tmp_path / "o").exists()


def test_diagnose_infinite_residual_factor_is_config_error(tmp_path, capsys):
    bundle = tmp_path / "b"
    assert main(["run", "--config", write_config(tmp_path, "r.json", run_config(tmp_path)),
                 "--out", str(bundle)]) == 0
    cfg = write_config(tmp_path, "c.json", {"kind": "diagnose", "bundle": str(bundle),
                                            "residual_factor": math.inf})
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"error: cannot certify bundle {bundle}: residual_factor "
                                       f"must be finite and positive, got inf\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_plot_rejects_non_finite_value(tmp_path, capsys, value):
    csv = tmp_path / "energy.csv"
    csv.write_text(f"t,E\n0.0,{value}\n0.1,1.0\n")
    assert main(["plot", "--csv", str(csv), "--kind", "energy",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {csv}: data row 1, column E is not finite\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["t,E\n1e17,1.0\n", "t,E\n0.0,1e17\n1.0,1e17\n"],
                         ids=["one-row-at-t-1e17", "constant-E-1e17"])
def test_plot_point_range_beyond_2_53(tmp_path, text):
    # a unit widening of a point range rounds away beyond 2**53 (was ZeroDivisionError)
    csv = tmp_path / "energy.csv"
    csv.write_text(text)
    assert main(["plot", "--csv", str(csv), "--kind", "energy",
                 "--out", str(tmp_path / "o")]) == 0
    assert not re.search(r"\bnan\b", (tmp_path / "o" / "energy.svg").read_text())


def test_plot_span_beyond_the_float_range(tmp_path):
    # 1e308 - (-1e308) overflows; the polyline read "70,373.636 nan,46.3636"
    csv = tmp_path / "energy.csv"
    csv.write_text("t,E\n-1e308,1\n1e308,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plot", "--csv", str(csv), "--kind", "energy",
                     "--out", str(tmp_path / "o")]) == 0
    svg = (tmp_path / "o" / "energy.svg").read_text()
    assert 'points="70,373.636 620,46.3636"' in svg
    assert ">-1e+308</text>" in svg and ">0</text>" in svg and ">1e+308</text>" in svg

# -- one stacked march per ensemble ---------------------------------------------

def test_ensemble_is_one_stacked_run(tmp_path, monkeypatch):
    # the layout the benchmark's tracer reads: one run per ensemble, and per
    # iteration one stable_dt from run plus one from inside step
    import eulerlab.cli as cli_mod
    import eulerlab.solver as solver_mod
    calls = {"run": 0, "stable_dt": 0, "step": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "step":
                assert hasattr(args[0], "grid")
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli_mod, "run", counted("run", cli_mod.run))
    for name in ("stable_dt", "step"):
        monkeypatch.setattr(solver_mod, name, counted(name, getattr(solver_mod, name)))
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.4, 0.2, 0.1]})
    assert main(_argv(tmp_path, "ensemble", doc)) == 0
    assert calls["run"] == 1
    assert calls["step"] > 0
    assert calls["stable_dt"] == 2 * calls["step"]


def _pinned_doc(kind, counts=64, t_end=0.5, sample_dt=0.05):
    doc = {"kind": kind,
           "grid": {"counts": [counts], "lower": [-1.0], "upper": [1.0],
                    "boundary": ["reflective"]},
           "law": {"a": 1.0, "gamma": 2.0}, "scheme": {"flux": "hll", "cfl": 0.9},
           "t_end": t_end, "sample_dt": sample_dt,
           "initial": {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0,
                       "rho_r": 0.25, "u_r": 0.0},
           "nu_list": [0.4, 0.2, 0.1]}
    if kind == "dt1-demo":
        doc["delta_rel"] = 0.005
    return doc


@pytest.mark.parametrize("kind", ["dt1-demo", "dt2-demo", "ensemble"])
def test_ensemble_output_trees_pinned(tmp_path, kind):
    assert_pinned(f"cli.trees/{kind}", tree(_pinned_tree(tmp_path, kind)))


def _pinned_2d_doc():
    """A 48 x 48 reflective LLF Riemann datum with nu_list [0.4, 0.2, 0.1]:
    each member marches in its own stack (2304 > _STACK_CELLS / 2)."""
    return {"kind": "ensemble",
            "grid": {"counts": [48, 48], "lower": [0.0, 0.0], "upper": [1.0, 1.0],
                     "boundary": ["reflective", "reflective"]},
            "law": {"a": 1.0, "gamma": 1.4}, "scheme": {"flux": "llf", "cfl": 0.9},
            "t_end": 0.5, "sample_dt": 0.05, "nu_list": [0.4, 0.2, 0.1],
            "initial": {"preset": "riemann", "rho_l": 1.0, "u_l": 0.1, "rho_r": 0.25,
                        "u_r": 0.0}}


def test_ensemble_2d_three_stacks_output_tree_pinned(tmp_path):
    import eulerlab.solver as solver_mod
    assert solver_mod._STACK_CELLS // (48 * 48) == 1
    out = tmp_path / "o"
    assert main(_argv(tmp_path, "ensemble", _pinned_2d_doc(), out)) == 0
    assert_pinned("cli.ensemble_2d/three-stacks", tree(out))


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_ensemble_2d_failing_second_member_leaves_no_bundle(tmp_path, capsys, monkeypatch,
                                                            existing):
    # member 0 marches in its own stack and is written before member 1 fails;
    # what was written is removed, and an output directory that existed
    # before keeps only what it held
    import eulerlab.cli as cli_mod
    written = []
    inner = cli_mod.save_bundle

    def recording_save(traj, path):
        written.append(os.path.basename(path))
        inner(traj, path)

    monkeypatch.setattr(cli_mod, "save_bundle", recording_save)
    doc = _pinned_2d_doc()
    doc["nu_list"] = [0.2, 1e300]
    out = tmp_path / "o"
    if existing:
        out.mkdir()
        (out / "kept.txt").write_text("kept")
    assert main(_argv(tmp_path, "ensemble", doc, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ensemble member 1 (nu=1e+300) failed: stable dt ")
    assert written == ["member_00"]
    assert sorted(os.listdir(out)) == ["kept.txt"] if existing else not out.exists()


def test_dt1_three_stacks_output_tree_pinned(tmp_path):
    import eulerlab.solver as solver_mod
    assert solver_mod._STACK_CELLS // 2048 == 1
    doc = _pinned_doc("dt1-demo", counts=2048, t_end=0.05, sample_dt=0.01)
    doc["delta_rel"] = 0.0005
    out = tmp_path / "o"
    assert main(_argv(tmp_path, "dt1-demo", doc, out)) == 0
    assert json.loads((out / "report.json").read_text())["resets"] == [0.01, 0.03, 0.05]
    assert_pinned("cli.dt1_demo_2048/three-stacks", tree(out))


def _fail_first_window_at(monkeypatch, sample):
    """Make the first window's march fail as it reaches ``sample``, as a step
    guard fails: naming the member and its viscosity."""
    import eulerlab.solver as solver_mod
    inner, marches = solver_mod._march, []

    def failing_march(live, *args):
        marches.append(live)
        for j in inner(live, *args):
            if len(marches) == 1 and j == sample:
                raise ValueError(f"member 1 (nu={live.specs[1].nu}) failed: injected at "
                                 f"sample {j}")
            yield j

    monkeypatch.setattr(solver_mod, "_march", failing_march)


def test_dt1_member_failure_in_a_kept_window_is_config_error(tmp_path, capsys, monkeypatch):
    # the pinned datum's first reset is at t = 0.05, sample 1 of the first
    # window, so sample 1 is kept
    cfg = write_config(tmp_path, "c.json", _pinned_doc("dt1-demo"))
    _fail_first_window_at(monkeypatch, 1)
    assert main(["dt1-demo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: ensemble member 1 (nu=0.2) failed: injected at sample 1\n"
    assert not (tmp_path / "o").exists()


def test_dt1_member_failure_in_a_discarded_tail_is_never_reached(tmp_path, monkeypatch):
    # sample 2 of the first window lies past its reset, so the window stops
    # before it and the output is the pinned tree
    cfg = write_config(tmp_path, "c.json", _pinned_doc("dt1-demo"))
    _fail_first_window_at(monkeypatch, 2)
    out = tmp_path / "o"
    assert main(["dt1-demo", "--config", cfg, "--out", str(out)]) == 0
    assert_pinned("cli.trees/dt1-demo", tree(out))


def _diagnose_doc(tmp_path, dim):
    """An ensemble config: the 64-cell HLL datum of ``_pinned_doc`` (1D), or
    a 16 x 12 reflective LLF datum read from a state file whose momentum
    points along both axes (2D)."""
    if dim == "1d":
        return _pinned_doc("ensemble")
    from eulerlab.fields import save_state_csv
    g = Grid(counts=(16, 12), lower=(0.0, 0.0), upper=(1.0, 1.0),
             boundary=("reflective", "reflective"))
    x, y = np.meshgrid(g.centers(0), g.centers(1), indexing="ij")
    rho = 1.0 + 0.5 * np.exp(-20.0 * ((x - 0.4) ** 2 + (y - 0.6) ** 2))
    m = np.stack([rho * 0.3 * np.sin(math.pi * y), rho * -0.2 * np.cos(math.pi * x)], axis=-1)
    save_state_csv(FluidState(g, rho, m), tmp_path / "init.csv")
    return {"kind": "ensemble",
            "grid": {"counts": [16, 12], "lower": [0.0, 0.0], "upper": [1.0, 1.0],
                     "boundary": ["reflective", "reflective"]},
            "law": {"a": 1.0, "gamma": 1.4}, "scheme": {"flux": "llf", "cfl": 0.9},
            "t_end": 0.5, "sample_dt": 0.05, "initial": {"file": str(tmp_path / "init.csv")},
            "nu_list": [0.4, 0.2, 0.1]}


def _diagnosed(root, dim, **extra):
    """Run ensemble on ``_diagnose_doc`` into root/ensemble, then diagnose on its
    average into root/diagnose: diagnose's exit code and the two directories."""
    ens, out = root / "ensemble", root / "diagnose"
    cfg = write_config(root, "e.json", _diagnose_doc(root, dim))
    assert main(["ensemble", "--config", cfg, "--out", str(ens)]) == 0
    cfg = write_config(root, "d.json", {"kind": "diagnose", "bundle": str(ens / "average"),
                                        "reynolds": str(ens / "reynolds.npz"), **extra})
    return main(["diagnose", "--config", cfg, "--out", str(out)]), ens, out


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_diagnose_output_trees_pinned(tmp_path, dim):
    code, _, out = _diagnosed(tmp_path, dim)
    assert code == 0 and sorted(os.listdir(out)) == ["certificate.csv", "certificate.json"]
    assert_pinned(f"cli.diagnose/{dim}", tree(out))


def test_diagnose_residual_factor_output_tree_pinned(tmp_path):
    code, _, out = _diagnosed(tmp_path, "1d", residual_factor=0.5)
    assert code == 0
    assert_pinned("cli.diagnose_residual_factor/0.5", tree(out))


# -- the other subcommands' outputs and the config schemas, pinned ------------

def _pinned_tree(tmp_path, kind):
    """Run ``kind`` on a fixed config and return its output directory: the
    64-cell datum of ``_pinned_doc`` for run (at nu = 0.1) and ensemble,
    select over that ensemble's directory, riemann on ``_riemann_doc``."""
    if kind == "select":
        doc = {"kind": "select", "candidates": str(_pinned_tree(tmp_path, "ensemble"))}
    elif kind == "riemann":
        doc = _riemann_doc()
    else:
        doc = _pinned_doc(kind)
        if kind == "run":
            del doc["nu_list"]
            doc["scheme"]["nu"] = 0.1
    out = tmp_path / kind
    assert main([kind, "--config", write_config(tmp_path, f"{kind}.json", doc),
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("kind", ["riemann", "run", "select"])
def test_output_trees_pinned(tmp_path, kind):
    assert_pinned(f"cli.more_trees/{kind}", tree(_pinned_tree(tmp_path, kind)))


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_pipeline_reruns_in_one_process_match_the_pins(tmp_path, dim):
    # ensemble, diagnose and select, twice in one process: the buffers that a
    # step, the stress checks and F2 write in place carry nothing from one run
    # into the next.  The 1D ensemble and select trees are those of
    # cli.trees and cli.more_trees; the 2D datum has its diagnose pin,
    # and its other trees must read the same in both runs
    trees = []
    for run in ("first", "second"):
        root = tmp_path / run
        root.mkdir()
        code, ens, diag = _diagnosed(root, dim)
        assert code == 0
        if dim == "1d":
            assert_pinned("cli.trees/ensemble", tree(ens))
        assert_pinned(f"cli.diagnose/{dim}", tree(diag))
        sel = root / "select"
        cfg = write_config(root, "s.json", {"kind": "select", "candidates": str(ens)})
        assert main(["select", "--config", cfg, "--out", str(sel)]) == 0
        if dim == "1d":
            assert_pinned("cli.more_trees/select", tree(sel))
        trees.append([sha256(tree(out)) for out in (ens, diag, sel)])
    assert trees[0] == trees[1]


@pytest.mark.parametrize("kind, tree_kind, name", [
    ("defect", "ensemble", "defect.csv"), ("energy", "run", "energy.csv"),
    ("profile", "riemann", "profile.csv"), ("profile", "run", "state_000010.csv")])
def test_plot_svgs_pinned(tmp_path, kind, tree_kind, name):
    csv = _pinned_tree(tmp_path, tree_kind) / name
    out = tmp_path / "plot"
    assert main(["plot", "--csv", str(csv), "--kind", kind, "--out", str(out)]) == 0
    assert_pinned(f"cli.plots/{kind}-{tree_kind}-{name}", [(out / f"{kind}.svg").read_bytes()])


def test_config_schemas_pinned():
    from eulerlab.cli import SCHEMAS
    assert_pinned("cli.schemas/config", [json.dumps(SCHEMAS, sort_keys=True).encode()])
