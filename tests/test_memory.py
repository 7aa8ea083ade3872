"""Peak-memory guards, measured with tracemalloc (NumPy reports its buffers
to it): the ensemble's whole-field work keeps its temporaries to about one
sample and holds one member at a time, and a solver step frees each axis's
temporaries before the next; the stress's checks and norms run one sample
at a time, ``certify`` holds one cell integral pair per space bump, F2 one
integrand buffer, ``riemann`` one slice of its points and the CSV writer's
block, and the writer one block of a table however long it is."""

import json
import tracemalloc

import numpy as np
import pytest

from eulerlab import cli
from eulerlab.cli import main
from eulerlab.dissipative import certify, estimate_reynolds
from eulerlab.eos import GasLaw
from eulerlab.fields import Grid, integrate_energies, write_csv
from eulerlab.selection import CandidateSet, select
from eulerlab.stress import ReynoldsField, convexity_gap, kinetic_tensor
from eulerlab.trajectory import Trajectory

N = 48
GRID = Grid(counts=(N, N), lower=(0.0, 0.0), upper=(1.0, 1.0))
TIMES = np.linspace(0.0, 0.5, 11)


def _traced(f, *args):
    """Traced memory that ``f(*args)`` keeps and its peak, both in bytes
    above the level at the call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = f(*args)  # bound, so it is still held when measured
        kept, peak = tracemalloc.get_traced_memory()
        return kept - start, peak - start
    finally:
        if not tracing:
            tracemalloc.stop()


def _peak(f, *args):
    """Peak of the traced memory above its level at the call, in bytes."""
    return _traced(f, *args)[1]


def test_reynolds_field_symmetry_check_peaks_at_one_sample():
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((len(TIMES),) + GRID.counts + (2, 2))
    tensor += np.swapaxes(tensor, -1, -2)
    # the whole-tensor check took about 14 samples' worth
    assert _peak(ReynoldsField, GRID, TIMES, tensor) <= 2 * tensor[0].nbytes


def _symmetric_field(grid, seed):
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal((len(TIMES),) + grid.counts + (2, 2))
    tensor += np.swapaxes(tensor, -1, -2)
    return ReynoldsField(grid, TIMES, tensor)


def test_reynolds_field_norm_scale_peaks_at_one_sample():
    R = _symmetric_field(GRID, 5)
    # the whole-tensor square and sum took about 13.8 samples' worth
    assert _peak(R.norm_scale) <= 2 * R.tensor[0].nbytes


def test_reynolds_field_min_eigenvalue_peaks_at_one_sample():
    R = _symmetric_field(GRID, 6)
    # the whole-tensor eigenvalue formula took about 11 samples' worth
    assert _peak(R.min_eigenvalue) <= 2 * R.tensor[0].nbytes


def test_reynolds_field_npz_write_peaks_at_one_sample(tmp_path):
    R = _symmetric_field(GRID, 9)
    # np.savez copied the whole stress, 11 samples' worth, into one bytes object
    assert _peak(R.save_npz, tmp_path / "r.npz") <= 2 * R.tensor[0].nbytes


def test_integrate_energies_peaks_at_one_sample():
    rng = np.random.default_rng(1)
    rho = rng.uniform(0.5, 1.5, (len(TIMES),) + GRID.counts)
    m = rng.uniform(-1.0, 1.0, rho.shape + (2,))
    one_sample = rho[0].nbytes + m[0].nbytes
    # the whole-stack energy density took about 15 samples' worth
    assert _peak(integrate_energies, GRID, rho, m, GasLaw(a=1.0, gamma=1.4)) <= 2 * one_sample


def test_ensemble_peaks_at_its_arrays_and_a_sample_margin(tmp_path):
    nus = [0.02, 0.01, 0.005]
    doc = {"kind": "ensemble",
           "grid": {"counts": [N, N], "lower": [0.0, 0.0], "upper": [1.0, 1.0],
                    "boundary": ["reflective", "reflective"]},
           "law": {"a": 1.0, "gamma": 1.4}, "scheme": {"flux": "llf", "cfl": 0.9},
           "t_end": 0.5, "sample_dt": 0.05, "nu_list": nus,
           "initial": {"preset": "riemann", "rho_l": 1.0, "u_l": 0.1, "rho_r": 0.25,
                       "u_r": 0.0}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    argv = ["ensemble", "--config", str(cfg), "--out", str(tmp_path / "o")]
    # one sample of one member's (rho, m), the average's and the stress tensor:
    # each member marches in its own stack and is summed and written before
    # the next one starts
    sample = N * N * (3 + 3 + 4) * 8
    peak = _peak(main, argv)
    assert (tmp_path / "o" / "reynolds.npz").is_file()
    # about 3.2 samples above the arrays, mostly the march's state and the
    # step's temporaries; 4.6 when a step held a copy of the state and each
    # axis's temporaries while the next axis made its own, 8.6 when all three
    # members were held until the average was formed
    assert peak <= len(TIMES) * sample + 3.5 * sample


def test_estimate_reynolds_peaks_at_its_outputs_and_two_tensors():
    # 128 x 128, as in the 2D benchmark: NumPy's fixed 128 KB of broadcast
    # buffers would be most of a one-sample tensor on a small grid
    grid = Grid(counts=(128, 128), lower=(0.0, 0.0), upper=(1.0, 1.0))
    law, times = GasLaw(a=1.0, gamma=1.4), TIMES[:3]
    rng = np.random.default_rng(2)
    members = [Trajectory(grid, law, times,
                          (rng.uniform(0.5, 1.5, (len(times),) + grid.counts),
                           rng.uniform(-1.0, 1.0, (len(times),) + grid.counts + (2,))),
                          np.full(len(times), 10.0), e0=10.0)
               for _ in range(3)]
    kept, peak = _traced(estimate_reynolds, members)
    tensor = grid.counts[0] * grid.counts[1] * 4 * 8
    # about 1.75 tensors above the stress and the average it returns; the
    # sum-based average held about 4.4
    assert peak - kept <= 2 * tensor


def test_kinetic_tensor_peaks_at_its_output():
    # 64 x 64: a broadcast outer product and division took 2.0 tensors
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.5, 1.5, (64, 64))
    rho[3, 5] = 0.0
    m = rng.uniform(-1.0, 1.0, (64, 64, 2))
    tensor = 64 * 64 * 4 * 8
    assert _peak(kinetic_tensor, rho, m) <= 1.25 * tensor


def test_convexity_gap_peaks_at_one_kinetic_tensor():
    # 64 x 64: the pressure term's broadcast product with the identity took
    # 2.26 tensors, the kinetic tensor and the product; entry by entry, 1.09
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.5, 1.5, (64, 64))
    m = rng.uniform(-1.0, 1.0, (64, 64, 2))
    kin_mean = rng.standard_normal((64, 64, 2, 2))
    p_mean = rng.uniform(1.0, 2.0, (64, 64))
    law = GasLaw(a=1.0, gamma=1.4)
    assert _peak(convexity_gap, kin_mean, p_mean, rho, m, law) <= 1.25 * kin_mean.nbytes


def test_certify_peaks_at_one_cell_integral_pair_per_space_bump():
    # 128 x 128 with 11 samples, as in the 2D benchmark; the default
    # dictionary's 24 functions per balance have 12 distinct space bumps
    grid = Grid(counts=(128, 128), lower=(0.0, 0.0), upper=(1.0, 1.0))
    law = GasLaw(a=1.0, gamma=1.4)
    rng = np.random.default_rng(4)
    traj = Trajectory(grid, law, TIMES,
                      (rng.uniform(0.5, 1.5, (len(TIMES),) + grid.counts),
                       rng.uniform(-1.0, 1.0, (len(TIMES),) + grid.counts + (2,))),
                      np.full(len(TIMES), 10.0), e0=10.0)
    R = _symmetric_field(grid, 4)
    pair = grid.counts[0] * grid.counts[1] * 3 * 8  # P and G of one bump
    # about 15.7 pairs, the momentum pass: 12 shared pairs and a sample's
    # pairing temporaries.  It was 18.4 while the norm scale squared the
    # whole stress (18.3 pairs), and 27.7 with a pair per test function
    assert _peak(certify, traj, R) <= 16.5 * pair


def test_select_peaks_at_its_members_and_one_integrand_buffer():
    # 128 x 128 with 11 samples, as in the 2D benchmark; every member
    # survives step 1, so F2 runs on each
    grid = Grid(counts=(128, 128), lower=(0.0, 0.0), upper=(1.0, 1.0))
    law = GasLaw(a=1.0, gamma=1.4)
    rng = np.random.default_rng(8)
    members = []
    for _ in range(3):
        rho = rng.uniform(0.5, 1.5, (len(TIMES),) + grid.counts)
        m = rng.uniform(-1.0, 1.0, rho.shape + (2,))
        rho[0], m[0] = 1.0, 0.0
        members.append(Trajectory(grid, law, TIMES, (rho, m), np.full(len(TIMES), 10.0),
                                  e0=10.0))
    field = grid.counts[0] * grid.counts[1] * 3 * 8  # rho and m of one sample
    buffer = len(TIMES) * grid.counts[0] * grid.counts[1] * 8
    # the (n, *counts) integrand buffer and about 0.67 field, one sample's
    # m**2; the whole-trajectory m**2, its sum, sqrt and power took 11 fields
    assert _peak(select, CandidateSet(members)) <= buffer + 0.75 * field


# the CSV writer's working memory for one call of its formatter, which
# takes at most 1536 changing values: their digits, masks and characters
WRITER_BLOCK = 20 * 1536 * 8


@pytest.mark.parametrize("rows", [2001, 200001])
def test_write_csv_peaks_at_one_block_however_long_the_table(tmp_path, rows):
    rng = np.random.default_rng(10)
    columns = [rng.uniform(-2.0, 2.0, rows), rng.uniform(0.2, 1.0, rows),
               rng.uniform(-1.0, 1.0, rows)]
    write_csv(tmp_path / "warm-up.csv", "xyz", [columns])  # its digit tables
    peak = _peak(write_csv, tmp_path / "t.csv", "xyz", [columns])
    # about 17.4 blocks' values at both lengths; the per-row '%' writer took
    # 6.2 at 2001 rows and 23.3 at 200001, as it compared whole columns
    # for constant blocks
    assert peak <= WRITER_BLOCK


def test_riemann_profile_peaks_at_one_slice_and_one_writer_block(tmp_path):
    # a fan covers about a fifth of the points, so some slices lie wholly in it
    samples = 200001
    cfg = {"kind": "riemann", "law": {"a": 1.0, "gamma": 1.4},
           "rho_l": 1.0, "u_l": 0.0, "rho_r": 0.25, "u_r": 0.0,
           "time": 1.0, "x_min": -2.0, "x_max": 2.0, "samples": samples}
    # the first call in a process keeps about 8 KB more traced memory than a
    # later one, as the interpreter's free lists and caches fill, and alone
    # it peaked above the bound; a full-size warm-up keeps that out, so the
    # guard reads the same alone as after other tests
    cli.cmd_riemann(cfg, str(tmp_path / "warm-up"))
    peak = _peak(cli.cmd_riemann, cfg, str(tmp_path / "o"))
    assert (tmp_path / "o" / "profile.csv").stat().st_size > 0
    # a slice holds its points, x / t, rho and u, and the writer one block;
    # the peak is about 360 KB, 3.7 slices, where the whole points alone
    # were 1.6 MB, and it does not grow with ``samples``
    one_slice = 3 * cli._PROFILE_ROWS * 8
    assert peak <= 2 * one_slice + WRITER_BLOCK
