import json
import os

import numpy as np
import pytest

from eulerlab.cli import main
from eulerlab.eos import GasLaw
from eulerlab.fields import FluidState, Grid, integrate_energy
from eulerlab.stress import ReynoldsField
from eulerlab.trajectory import Trajectory, load_bundle, save_bundle

LAW2 = GasLaw(a=1.0, gamma=2.0)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


# -- config validation ---------------------------------------------------

def test_missing_field_names_it(tmp_path, capsys):
    doc = run_config(tmp_path)
    del doc["t_end"]
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "t_end" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    doc = run_config(tmp_path)
    doc["typo_field"] = 1
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "typo_field" in capsys.readouterr().err


def test_kind_mismatch_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", run_config(tmp_path))
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_nested_bad_value_reported(tmp_path, capsys):
    doc = run_config(tmp_path)
    doc["law"]["gamma"] = 0.5
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "gamma" in capsys.readouterr().err


# -- run -------------------------------------------------------------------

def test_run_constant_flat_energy(tmp_path):
    cfg = write_config(tmp_path, "c.json", run_config(tmp_path))
    out = tmp_path / "bundle"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
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
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    R = ReynoldsField.load_npz(out / "reynolds.npz")
    assert R.norm_scale() <= 1e-14
    assert (out / "member_00").is_dir() and (out / "member_01").is_dir()
    assert (out / "average" / "meta.json").is_file()


def test_ensemble_single_member_zero_reynolds(tmp_path):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.3]})
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    R = ReynoldsField.load_npz(out / "reynolds.npz")
    assert R.norm_scale() <= 1e-14


def test_ensemble_riemann_defect_csv(tmp_path):
    doc = run_config(tmp_path, extra={"kind": "ensemble", "nu_list": [0.4, 0.2, 0.1]})
    doc["initial"] = {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0,
                      "rho_r": 0.25, "u_r": 0.0}
    doc["t_end"] = 0.4
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
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
    root = _write_candidates(tmp_path)
    g = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    s = FluidState.constant(g, 2.0, 0.0)  # different initial fields
    e = integrate_energy(s, LAW2)
    odd = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [e, e, e])
    save_bundle(odd, root / "member_02")
    cfg = write_config(tmp_path, "s.json", {"kind": "select", "candidates": str(root)})
    assert main(["select", "--config", cfg, "--out", str(tmp_path / "sel")]) == 2
    assert "member" in capsys.readouterr().err


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
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "bundle"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    traj = load_bundle(out)
    assert np.allclose(traj.states[0].rho, rho)


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
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "ens"
    main(["ensemble", "--config", cfg, "--out", str(out)])
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
    assert read_tree(out1) == read_tree(out2)
    out3 = tmp_path / "e3"
    assert main(["ensemble", "--config", cfg, "--out", str(out3), "--seed", "8"]) == 0
    assert read_tree(out3) == read_tree(out1)  # --seed is accepted and ignored


def test_select_rerun_byte_identical(tmp_path):
    root = _write_candidates(tmp_path)
    cfg = write_config(tmp_path, "s.json", {"kind": "select", "candidates": str(root)})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["select", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["select", "--config", cfg, "--out", str(out2)]) == 0
    assert read_tree(out1) == read_tree(out2)
