"""Peak-memory guards: the ensemble's whole-field work keeps its temporaries
to about one sample, measured with tracemalloc (NumPy reports its buffers to
it)."""

import json
import tracemalloc

import numpy as np

from eulerlab.cli import main
from eulerlab.eos import GasLaw
from eulerlab.fields import Grid, integrate_energies
from eulerlab.stress import ReynoldsField

N = 48
GRID = Grid(counts=(N, N), lower=(0.0, 0.0), upper=(1.0, 1.0))
TIMES = np.linspace(0.0, 0.5, 11)


def _peak(f, *args):
    """Peak of the traced memory above its level at the call, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_reynolds_field_symmetry_check_peaks_at_one_sample():
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((len(TIMES),) + GRID.counts + (2, 2))
    tensor += np.swapaxes(tensor, -1, -2)
    # the whole-tensor check took about 14 samples' worth
    assert _peak(ReynoldsField, GRID, TIMES, tensor) <= 2 * tensor[0].nbytes


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
    # one sample of the members' (rho, m), the average's and the stress tensor
    sample = N * N * (3 * len(nus) + 3 + 4) * 8
    peak = _peak(main, argv)
    assert (tmp_path / "o" / "reynolds.npz").is_file()
    # about 1.7 samples above the arrays; each of the three whole-field
    # temporaries (the symmetry check, the average's energies, the members
    # kept through the npz write) alone took it to 3 samples or more
    assert peak <= len(TIMES) * sample + 2.5 * sample
