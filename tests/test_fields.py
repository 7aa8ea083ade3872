import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerlab.cli import main
from eulerlab.eos import GasLaw
from eulerlab.fields import (DataTriple, FluidState, Grid, integrate_energy,
                             load_state_csv, read_csv, save_state_csv,
                             validate_initial_data)

LAW2 = GasLaw(a=1.0, gamma=2.0)


def unit_grid_1d(n=8):
    return Grid(counts=(n,), lower=(0.0,), upper=(1.0,))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(counts=(1,), lower=(0.0,), upper=(1.0,))
    with pytest.raises(ValueError):
        Grid(counts=(4,), lower=(1.0,), upper=(0.0,))
    with pytest.raises(ValueError):
        Grid(counts=(4, 4, 4), lower=(0.0,) * 3, upper=(1.0,) * 3)
    with pytest.raises(ValueError):
        Grid(counts=(4,), lower=(0.0,), upper=(1.0,), boundary=("weird",))


def test_grid_geometry():
    g = Grid(counts=(4, 8), lower=(0.0, -1.0), upper=(2.0, 1.0))
    assert g.d == 2
    assert g.spacing == (0.5, 0.25)
    assert g.cell_volume == 0.125
    assert np.allclose(g.centers(0), [0.25, 0.75, 1.25, 1.75])


def test_state_invariants():
    g = unit_grid_1d(4)
    with pytest.raises(ValueError, match="negative density"):
        FluidState(g, [-1.0, 1, 1, 1], np.zeros((4, 1)))
    with pytest.raises(ValueError, match="vacuum"):
        FluidState(g, [0.0, 1, 1, 1], [[1.0], [0], [0], [0]])
    with pytest.raises(ValueError, match="finite"):
        FluidState(g, [np.nan, 1, 1, 1], np.zeros((4, 1)))
    s = FluidState(g, [0.0, 1, 1, 1], np.zeros((4, 1)))
    with pytest.raises(ValueError):
        s.rho[0] = 5.0  # arrays are read-only


def test_integrate_energy_examples():
    g = unit_grid_1d()
    s = FluidState.constant(g, 1.0, 0.0)
    assert integrate_energy(s, LAW2) == pytest.approx(1.0, abs=1e-15)

    vac = FluidState(g, np.zeros(8), np.zeros((8, 1)))
    assert integrate_energy(vac, LAW2) == 0.0

    law14 = GasLaw(a=1.0, gamma=1.4)
    s2 = FluidState.constant(g, 2.0, 1.0)  # m = rho*u = 2
    assert integrate_energy(s2, law14) == pytest.approx(7.5975395538644713, rel=1e-13)


def test_integrate_energy_infinite_on_forced_vacuum_momentum():
    g = unit_grid_1d(4)
    s = FluidState(g, [0.0, 1, 1, 1], [[1.0], [0], [0], [0]], check=False)
    assert integrate_energy(s, LAW2) == math.inf


def test_validate_initial_data():
    g = unit_grid_1d()
    s = FluidState.constant(g, 1.0, 0.0)
    E_exact = integrate_energy(s, LAW2)

    ok = validate_initial_data(DataTriple(s, E_exact), LAW2)
    assert ok.accepted and ok.slack == pytest.approx(0.0, abs=1e-14)

    bad = validate_initial_data(DataTriple(s, 0.5 * E_exact), LAW2)
    assert not bad.accepted

    vac_mom = FluidState(g, [0.0] + [1.0] * 7, [[1.0]] + [[0.0]] * 7, check=False)
    rej = validate_initial_data(DataTriple(vac_mom, 100.0), LAW2)
    assert not rej.accepted
    assert any("vacuum" in msg for msg in rej.messages)


def test_integrate_energy_convexity():
    rng = np.random.default_rng(7)
    g = unit_grid_1d(16)
    for _ in range(50):
        r1 = rng.uniform(0.1, 2.0, 16)
        r2 = rng.uniform(0.1, 2.0, 16)
        m1 = rng.uniform(-1.0, 1.0, (16, 1))
        m2 = rng.uniform(-1.0, 1.0, (16, 1))
        lam = rng.uniform(0, 1)
        s1, s2 = FluidState(g, r1, m1), FluidState(g, r2, m2)
        mid = FluidState(g, lam * r1 + (1 - lam) * r2, lam * m1 + (1 - lam) * m2)
        lhs = integrate_energy(mid, LAW2)
        rhs = lam * integrate_energy(s1, LAW2) + (1 - lam) * integrate_energy(s2, LAW2)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def test_integrate_energy_axis_relabel_invariance():
    rng = np.random.default_rng(11)
    g = Grid(counts=(6, 4), lower=(0.0, 0.0), upper=(1.0, 1.0))
    gt = Grid(counts=(4, 6), lower=(0.0, 0.0), upper=(1.0, 1.0))
    rho = rng.uniform(0.2, 2.0, (6, 4))
    m = rng.uniform(-1.0, 1.0, (6, 4, 2))
    s = FluidState(g, rho, m)
    st = FluidState(gt, rho.T, np.stack([m[..., 1].T, m[..., 0].T], axis=-1))
    assert integrate_energy(s, LAW2) == pytest.approx(integrate_energy(st, LAW2), rel=1e-14)


def test_state_csv_roundtrip_1d(tmp_path):
    g = unit_grid_1d(5)
    rng = np.random.default_rng(3)
    s = FluidState(g, rng.uniform(0.5, 2, 5), rng.uniform(-1, 1, (5, 1)))
    path = tmp_path / "state.csv"
    save_state_csv(s, path)
    loaded = load_state_csv(g, path)
    assert np.array_equal(loaded.rho, s.rho)
    assert np.array_equal(loaded.m, s.m)


def test_state_csv_roundtrip_2d(tmp_path):
    g = Grid(counts=(3, 4), lower=(0.0, 0.0), upper=(1.0, 1.0))
    rng = np.random.default_rng(4)
    s = FluidState(g, rng.uniform(0.5, 2, (3, 4)), rng.uniform(-1, 1, (3, 4, 2)))
    path = tmp_path / "state.csv"
    save_state_csv(s, path)
    loaded = load_state_csv(g, path)
    assert np.array_equal(loaded.rho, s.rho)
    assert np.array_equal(loaded.m, s.m)


# -- state CSV codec ---------------------------------------------------------

def edge_state_1d():
    """1D state with a signed zero, a subnormal and values near the float range."""
    g = unit_grid_1d(6)
    rho = [1.0, -0.0, 5e-324, 1e300, 0.1, 2.0 / 3.0]
    m = [[0.5], [-0.0], [-5e-324], [1e300], [-1e-300], [1.0 / 3.0]]
    return FluidState(g, rho, m)


def edge_state_2d():
    g = Grid(counts=(3, 4), lower=(0.0, -1.0), upper=(1.0, 1.0))
    rng = np.random.default_rng(21)
    rho = rng.uniform(0.1, 3.0, (3, 4))
    m = rng.uniform(-2.0, 2.0, (3, 4, 2))
    rho[0, 1], m[0, 1] = -0.0, (-0.0, 0.0)
    rho[1, 2], m[1, 2] = 1e300, (-1e300, 1e-300)
    rho[2, 3], m[2, 3] = 5e-324, (-0.0, 2.5e-320)
    return FluidState(g, rho, m)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# digests recorded with the per-row writer that preceded the block codec
STATE_CSV_SHA256 = {
    "1d": "3d8510ec7ec6be0ffe7cf851ae3f1d3f26d639ff81c6af956b2d6d51f16798a1",
    "2d": "2ebc03dc12b599a20fcd8d70ae7a781432c85d86e4d8dd1b63825a8eb9648783",
}
PROFILE_CSV_SHA256 = "eee230009d511ce2ef327284cf05d95fdd798aa905379419aecfd116e33ed044"


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_state_csv_bytes_pinned(tmp_path, dim):
    s = edge_state_1d() if dim == "1d" else edge_state_2d()
    path = tmp_path / "state.csv"
    save_state_csv(s, path)
    assert sha256_of(path) == STATE_CSV_SHA256[dim]
    loaded = load_state_csv(s.grid, path)
    assert loaded.rho.tobytes() == s.rho.tobytes()
    assert loaded.m.tobytes() == s.m.tobytes()


def test_riemann_profile_csv_bytes_pinned(tmp_path):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({
        "kind": "riemann", "law": {"a": 1.0, "gamma": 1.4},
        "rho_l": 1.0, "u_l": 0.3, "rho_r": 0.25, "u_r": -0.2,
        "time": 0.2, "x_min": -1.0, "x_max": 1.0, "samples": 2501,
    }))
    out = tmp_path / "rp"
    assert main(["riemann", "--config", str(cfg), "--out", str(out)]) == 0
    assert sha256_of(out / "profile.csv") == PROFILE_CSV_SHA256


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def fluid_states(draw):
    counts = draw(st.sampled_from([(2,), (5,), (17,), (2, 2), (3, 5), (4, 3)]))
    g = Grid(counts=counts, lower=(0.0,) * len(counts), upper=(1.0,) * len(counts))
    rho = draw(hnp.arrays(float, counts, elements=st.floats(
        0.0, 1e300, allow_nan=False, allow_infinity=False, allow_subnormal=True)))
    m = draw(hnp.arrays(float, counts + (len(counts),), elements=_finite))
    m[rho == 0.0] = 0.0
    return FluidState(g, rho, m)


@settings(max_examples=60, deadline=None)
@given(state=fluid_states())
def test_state_csv_roundtrip_bit_identical(tmp_path_factory, state):
    path = tmp_path_factory.mktemp("codec") / "state.csv"
    save_state_csv(state, path)
    loaded = load_state_csv(state.grid, path)
    assert loaded.rho.tobytes() == state.rho.tobytes()
    assert loaded.m.tobytes() == state.m.tobytes()


def test_state_csv_permuted_rows_load(tmp_path):
    s = edge_state_2d()
    path = tmp_path / "state.csv"
    save_state_csv(s, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    order = np.random.default_rng(5).permutation(len(rows))
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows[k] for k in order))
    loaded = load_state_csv(s.grid, shuffled)
    assert loaded.rho.tobytes() == s.rho.tobytes()
    assert loaded.m.tobytes() == s.m.tobytes()


def test_state_csv_wrong_header_names_file(tmp_path):
    g = unit_grid_1d(2)
    path = tmp_path / "bad_header.csv"
    path.write_text("i,rho,my\n0,1,0\n1,1,0\n")
    with pytest.raises(ValueError, match="bad_header.csv"):
        load_state_csv(g, path)
    g2 = Grid(counts=(2, 2), lower=(0.0, 0.0), upper=(1.0, 1.0))
    path1d = tmp_path / "one_d.csv"
    save_state_csv(FluidState.constant(g, 1.0), path1d)
    with pytest.raises(ValueError, match="one_d.csv"):
        load_state_csv(g2, path1d)


def test_state_csv_single_row_loads(tmp_path):
    # a one-row table is read as one row; on a 2-cell grid it lacks a cell
    g = unit_grid_1d(2)
    path = tmp_path / "one_row.csv"
    path.write_text("i,rho,mx\n1,2.5,-0.5\n")
    _, data = read_csv(path, ("i", "rho", "mx"))
    assert data.tolist() == [[1.0, 2.5, -0.5]]
    with pytest.raises(ValueError, match=r"one_row.csv: cell \[0\] is given by 0 rows"):
        load_state_csv(g, path)


def test_header_only_csv_reads_without_warning(tmp_path, capsys):
    # a header-only table reads as (0, n); the caller's error is the only message
    path = tmp_path / "empty.csv"
    path.write_text("i,rho,mx\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        names, data = read_csv(path)
        with pytest.raises(ValueError, match=r"empty.csv: cell \[0\] is given by 0 rows"):
            load_state_csv(unit_grid_1d(3), path)
        code = main(["plot", "--csv", str(path), "--kind", "profile",
                     "--out", str(tmp_path / "plot")])
    assert names == ("i", "rho", "mx")
    assert data.shape == (0, 3)
    assert code == 2
    assert capsys.readouterr().err == f"error: {path} has no data rows\n"


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("rows, message", [
    ("-1,2.0,0\n0,1,0\n", r"data row 1: cell index \[-1.0\] is not an integer index"),
    ("0,1,0\n3,1,0\n1,1,0\n2,1,0\n", r"data row 2: cell index \[3.0\] is not an integer index"),
    ("0,1,0\n1.5,1,0\n2,1,0\n", r"data row 2: cell index \[1.5\] is not an integer index"),
    ("0,1,0\n2,1,0\n", r"cell \[1\] is given by 0 rows, not 1"),
    ("0,1,0\n1,1,0\n2,1,0\n1,3,0\n", r"cell \[1\] is given by 2 rows, not 1"),
], ids=["wrapped-negative", "out-of-range", "non-integer", "missing", "duplicate"])
def test_state_csv_rejects_bad_cell_index(tmp_path, rows, message, check):
    path = tmp_path / "state.csv"
    path.write_text("i,rho,mx\n" + rows)
    with pytest.raises(ValueError, match="state.csv: " + message):
        load_state_csv(unit_grid_1d(3), path, check=check)


def test_state_csv_2d_missing_cell_named(tmp_path):
    g = Grid(counts=(2, 3), lower=(0.0, 0.0), upper=(1.0, 1.0))
    path = tmp_path / "state.csv"
    save_state_csv(FluidState.constant(g, 1.0), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))  # drops cell (1, 1)
    with pytest.raises(ValueError, match=r"cell \[1, 1\] is given by 0 rows"):
        load_state_csv(g, path, check=False)
