import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerlab import cli
from eulerlab.cli import main
from eulerlab.eos import GasLaw
from eulerlab.fields import (DataTriple, FluidState, Grid, energy_scale, integrate_energy,
                             load_state_csv, read_csv, save_state_csv,
                             validate_initial_data, write_csv)
from pins import assert_pinned

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

    validate_initial_data(DataTriple(s, E_exact), LAW2)

    with pytest.raises(ValueError, match="exceeds E0"):
        validate_initial_data(DataTriple(s, 0.5 * E_exact), LAW2)

    vac_mom = FluidState(g, [0.0] + [1.0] * 7, [[1.0]] + [[0.0]] * 7, check=False)
    with pytest.raises(ValueError, match="vacuum"):
        validate_initial_data(DataTriple(vac_mom, 100.0), LAW2)


@pytest.mark.parametrize("gap, accepted", [(0.5e-12, True), (2e-12, False)])
def test_validate_initial_data_allows_1e_12_of_e0(gap, accepted):
    # density 2 has mean energy 4 at gamma 2, so E0 just under 4 has scale 4
    s = FluidState.constant(unit_grid_1d(), 2.0, 0.0)
    mean = integrate_energy(s, LAW2)
    assert mean == 4.0
    triple = DataTriple(s, mean - 4.0 * gap)
    if accepted:
        validate_initial_data(triple, LAW2)
    else:
        with pytest.raises(ValueError, match="exceeds E0"):
            validate_initial_data(triple, LAW2)


@pytest.mark.parametrize("e0s, scale", [((0.25,), 1.0), ((-4.0,), 4.0), ((0.0,), 1.0),
                                        ((0.5, -3.0, 2.0), 3.0)])
def test_energy_scale_is_the_largest_magnitude_at_least_1(e0s, scale):
    assert energy_scale(*e0s) == scale


def test_validate_initial_data_rejects_nan_mean_energy():
    g = Grid(counts=(4,), lower=(0.0,), upper=(1.0,))
    s = FluidState(g, [1.0, np.nan, 1.0, 1.0], [[0.0]] * 4, check=False)
    with pytest.raises(ValueError, match="initial data rejected: mean energy nan"):
        validate_initial_data(DataTriple(s, 1.0), LAW2)


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


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_state_csv_bytes_pinned(tmp_path, dim):
    s = edge_state_1d() if dim == "1d" else edge_state_2d()
    path = tmp_path / "state.csv"
    save_state_csv(s, path)
    assert_pinned(f"fields.state_csv/{dim}", [path.read_bytes()])
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
    assert_pinned("fields.profile_csv/riemann", [(out / "profile.csv").read_bytes()])


def test_streamed_riemann_profile_csv_bytes_pinned(tmp_path):
    # four slices; the first slice edge falls inside the 1-rarefaction fan,
    # the second inside the star state
    samples = 13289
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({
        "kind": "riemann", "law": {"a": 1.0, "gamma": 1.4},
        "rho_l": 1.0, "u_l": 0.0, "rho_r": 0.25, "u_r": 0.0,
        "time": 1.0, "x_min": -2.0, "x_max": 2.0, "samples": samples,
    }))
    out = tmp_path / "rp"
    assert main(["riemann", "--config", str(cfg), "--out", str(out)]) == 0
    assert_pinned("fields.streamed_profile_csv/riemann", [(out / "profile.csv").read_bytes()])
    _, data = read_csv(out / "profile.csv", ("x", "rho", "u"))
    rho, edge = data[:, 1], cli._PROFILE_ROWS
    assert samples > 3 * edge
    assert rho[edge - 1] > rho[edge] > rho[edge + 1]  # fan
    assert rho[2 * edge - 1] == rho[2 * edge] == rho[2 * edge + 1]  # constant state


# -- codec property: block caching and streaming keep the bytes -------

def _reference_csv(names, columns) -> str:
    """The table as one ``%``-format per row, the codec's bytes by definition."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    return ",".join(names) + "\n" + "".join(row % r for r in zip(*(c.tolist() for c in columns)))


_NAN_PAYLOAD = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
_FLOAT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1.0, -1.0, *_NAN_PAYLOAD.tolist()]),
    st.floats(allow_nan=False, allow_subnormal=True))
# a column is runs of values from a palette of up to three, so a block can
# hold only signed zeros, or only NaNs of different payloads
_FLOAT_PALETTES = st.one_of(st.just([0.0, -0.0]), st.just([math.nan, *_NAN_PAYLOAD.tolist()]),
                            st.lists(_FLOAT_VALUES, min_size=1, max_size=3))
_INT_PALETTES = st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=3)


def _cuts(draw, n) -> list:
    """Sorted row indices 0, ..., n, with inner cuts at, beside and across
    the 256-row block edges and the edge of a 1536-row run of blocks."""
    inner = st.one_of(st.sampled_from([1, 255, 256, 257, 511, 512, 1535, 1536]),
                      st.integers(0, n))
    return sorted({0, n, *(k for k in draw(st.lists(inner, max_size=4)) if k < n)})


@st.composite
def _csv_tables(draw):
    n = draw(st.sampled_from([0, 1, 255, 256, 257, 513, 1537]))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        is_int = draw(st.booleans())
        palette = draw(_INT_PALETTES if is_int else _FLOAT_PALETTES)
        column = np.empty(n, dtype=np.int64 if is_int else float)
        cuts = _cuts(draw, n)
        for a, b in zip(cuts, cuts[1:]):
            column[a:b] = draw(st.sampled_from(palette))
        columns.append(column)
    # the streamed slices the rows arrive in
    return columns, _cuts(draw, n)


_SIGNED_ZEROS = np.zeros(513)
_SIGNED_ZEROS[1::2] = -0.0


@settings(max_examples=200, deadline=None)
@given(table=_csv_tables())
@example(table=([_SIGNED_ZEROS, np.arange(513)], [0, 257, 513]))
def test_write_csv_matches_the_per_row_format(tmp_path_factory, table):
    columns, cuts = table
    names = [f"c{k}" for k in range(len(columns))]
    # one path for every example: a directory each slows the shrinking
    path = tmp_path_factory.getbasetemp() / "codec_property.csv"
    write_csv(path, names, ([c[a:b] for c in columns] for a, b in zip(cuts, cuts[1:])))
    assert path.read_text() == _reference_csv(names, columns)
    _, data = read_csv(path, names)
    assert data.shape == (len(columns[0]), len(columns))
    for k, c in enumerate(columns):
        expected = c.astype(float)
        nan = np.isnan(expected)  # the text "nan" carries no sign or payload
        assert np.array_equal(np.isnan(data[:, k]), nan)
        assert data[~nan, k].tobytes() == expected[~nan].tobytes()


def _value_classes(rng) -> np.ndarray:
    """Doubles of every class the digit path and its '%' fallback meet."""
    powers = np.array([float(f"1e{j}") for j in range(-22, 23)])
    odd = rng.integers(1, 2 ** 53, 20000) | 1
    return np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
        rng.uniform(-1e3, 1e3, 20000),
        rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-22.0, 21.0, 20000),
        rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(float),
        # m * 2**-j with odd m: exact decimals, ties among them
        odd * 2.0 ** -rng.integers(1, 60, 20000).astype(float),
        rng.uniform(5e-5, 1e-4, 1000), rng.uniform(1e17, 2e17, 1000),  # beside the edges
        [0.0, -0.0, 1e-4, 1e17, np.nextafter(1e17, 0.0), 0.5, 2.5, -7.0],
    ])


def _mismatched_rows(path, names, columns) -> list:
    """The first few (row, written, expected) where ``path`` differs from
    the per-row format: a short list, where a whole-text diff of a large
    table takes minutes."""
    got = path.read_text().splitlines()
    want = _reference_csv(names, columns).splitlines()
    assert len(got) == len(want)
    return [(k, a, b) for k, (a, b) in enumerate(zip(got, want)) if a != b][:3]


def test_write_csv_digits_match_the_per_value_format_over_every_class(tmp_path):
    values = _value_classes(np.random.default_rng(32))
    columns = [values, values[::-1].copy(), np.roll(values, 7)]
    path = tmp_path / "classes.csv"
    write_csv(path, ("a", "b", "c"), [columns])
    mismatches = _mismatched_rows(path, ("a", "b", "c"), columns)
    assert mismatches == []


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_write_csv_integers_match_the_per_value_format_at_the_fallback_edge(tmp_path, dtype):
    edge = [0, 1, 10 ** 15 - 1, 10 ** 15, 2 ** 53 + 1, 2 ** 63 - 1]
    if dtype is np.int64:
        edge += [-v for v in edge] + [-2 ** 63]
    else:
        edge += [2 ** 64 - 1]
    column = np.array(edge * 3, dtype=dtype)
    columns = [column, np.arange(len(column)) / 3.0]
    path = tmp_path / "ints.csv"
    write_csv(path, ("n", "x"), [columns])
    mismatches = _mismatched_rows(path, ("n", "x"), columns)
    assert mismatches == []


_ENDS = st.one_of(st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True),
                  st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -2.0]))


@settings(max_examples=150, deadline=None)
@given(lo=_ENDS, hi=_ENDS, num=st.integers(2, 20000), data=st.data())
@example(lo=0.0, hi=5e-324, num=7, data=None)
@example(lo=1.0, hi=1.0, num=3, data=None)
@example(lo=0.1, hi=0.3, num=4097, data=None)
def test_profile_points_per_slice_equal_the_whole_linspace(lo, hi, num, data):
    if data is None:
        cuts = sorted({0, min(cli._PROFILE_ROWS, num), num})
    else:
        inner = st.one_of(st.sampled_from([1, num - 1, cli._PROFILE_ROWS]),
                          st.integers(0, num))
        cuts = sorted({0, num, *(k for k in data.draw(st.lists(inner, max_size=4)) if k < num)})
    with np.errstate(over="ignore", invalid="ignore"):  # ends 1e300 apart overflow both
        whole = np.linspace(lo, hi, num)
        parts = [cli._points(lo, hi, num, a, b) for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


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


@pytest.fixture(scope="module")
def codec_path(tmp_path_factory):
    """One file that every generated example overwrites: a directory per
    example made a failing example shrink slowly."""
    return tmp_path_factory.mktemp("codec") / "state.csv"


@settings(max_examples=60, deadline=None)
@given(state=fluid_states())
def test_state_csv_roundtrip_bit_identical(codec_path, state):
    save_state_csv(state, codec_path)
    loaded = load_state_csv(state.grid, codec_path)
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


def test_read_csv_rejects_rows_wider_than_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="rows have 3 columns, the header names 2"):
        read_csv(path)
