"""Tests of the benchmark itself: inputs, tracing arithmetic, guards, checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import itertools
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from eulerlab import cli  # noqa: E402
from eulerlab.eos import GasLaw  # noqa: E402
from eulerlab.riemann import RiemannData, solve_riemann  # noqa: E402
from perfbench import checks, inputs, workloads  # noqa: E402
from perfbench.tracing import (Target, TraceError, Tracer, layer_metrics,  # noqa: E402
                               self_times)


# -- seeded inputs ---------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a = inputs.generate(workload, 3, str(tmp_path / "a"))
    b = inputs.generate(workload, 3, str(tmp_path / "b"))
    assert a == b
    assert checks.digest_tree(str(tmp_path / "a")) == checks.digest_tree(str(tmp_path / "b"))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_different_seeds_give_different_inputs(tmp_path, workload):
    digests = set()
    for v in range(inputs.VARIANTS):
        inputs.generate(workload, v, str(tmp_path / str(v)))
        digests.add(checks.digest_tree(str(tmp_path / str(v))))
    assert len(digests) == inputs.VARIANTS


def test_seed_selects_variant():
    assert inputs.variant_of(5) == 5
    assert inputs.variant_of(5 + inputs.VARIANTS) == 5


def test_quadrant_csv_matches_its_mass(tmp_path):
    spec = inputs.generate("pipeline-2d", 0, str(tmp_path))
    data = np.loadtxt(tmp_path / "initial.csv", delimiter=",", skiprows=1)
    assert data.shape == (128 * 128, 5)
    assert np.sum(data[:, 2]) == pytest.approx(spec["items"][0]["cell_mass"], rel=1e-14)
    assert np.all(data[:, 3] != 0) and np.all(data[:, 4] != 0)


@pytest.mark.parametrize("pattern,base", inputs.PATTERNS_1D + inputs.PATTERNS_EXACT)
def test_jitter_box_keeps_wave_pattern(pattern, base):
    """Every corner of the jitter box has the pattern's wave types."""
    law = GasLaw(**inputs.LAW)
    rho_l, u_l, rho_r, u_r = base
    want = {"2-shock": "SS", "2-rarefaction": "RR", "shock-rarefaction": "SR",
            "rarefaction-shock": "RS", "mixed": "RS"}[pattern]
    for sl, sr, dl, dr in itertools.product((-1, 1), repeat=4):
        d = RiemannData(rho_l * (1 + sl * inputs.RHO_JITTER), u_l + dl * inputs.U_JITTER,
                        rho_r * (1 + sr * inputs.RHO_JITTER), u_r + dr * inputs.U_JITTER, law)
        rs = solve_riemann(d).rho_star
        got = ("S" if rs > d.rho_l else "R") + ("S" if rs > d.rho_r else "R")
        assert got == want


# -- tracing -----------------------------------------------------------------

def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def fakepkg():
    """A two-module package: ``b`` imports ``inner`` from ``a`` by name."""
    a = types.ModuleType("fakepkg.a")

    def inner():
        _spin(0.01)
        return 1

    a.inner = inner
    b = types.ModuleType("fakepkg.b")
    b.inner = inner
    hidden = {"inner": inner}  # a binding the namespace scan cannot see

    def outer():
        _spin(0.02)
        return b.inner() + b.inner()

    def outer_hidden():
        return hidden["inner"]()

    b.outer = outer
    b.outer_hidden = outer_hidden
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield b
    for name in mods:
        sys.modules.pop(name, None)


FAKE_TARGETS = (Target("b.outer", "fakepkg.b", "outer"),
                Target("a.inner", "fakepkg.a", "inner"))


def test_self_time_of_nested_call(fakepkg):
    tracer = Tracer(FAKE_TARGETS, package="fakepkg")
    with tracer.installed(run_id=0), tracer.recording():
        assert fakepkg.outer() == 2
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["parent"], dur)
    outer = tracer.names.index("b.outer")
    (i_outer,) = np.nonzero(a["name"] == outer)[0]
    children = np.nonzero(a["parent"] == i_outer)[0]
    assert len(children) == 2
    assert own[i_outer] == pytest.approx(dur[i_outer] - dur[children].sum(), abs=1e-12)
    assert own[i_outer] >= 0.02 and np.all(own[children] >= 0.01)
    assert own.sum() == pytest.approx(dur[i_outer], abs=1e-12)


def test_self_times_arithmetic():
    # root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has child [6, 7]
    parent = np.array([-1, 0, 0, 2])
    dur = np.array([10.0, 3.0, 4.0, 1.0])
    assert self_times(parent, dur).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_wrappers_removed_after_batch(fakepkg):
    original = fakepkg.inner
    tracer = Tracer(FAKE_TARGETS, package="fakepkg")
    with tracer.installed(run_id=0):
        assert fakepkg.inner is not original
        assert sys.modules["fakepkg.a"].inner is fakepkg.inner
    assert fakepkg.inner is original and sys.modules["fakepkg.a"].inner is original


def test_zero_call_guard_fires_on_missed_binding(fakepkg):
    tracer = Tracer(FAKE_TARGETS, package="fakepkg")
    with tracer.installed(run_id=0), tracer.recording():
        fakepkg.outer_hidden()
    with pytest.raises(TraceError, match="a.inner"):
        tracer.require_calls(["a.inner"])


def test_zero_call_guard_passes_when_hit(fakepkg):
    tracer = Tracer(FAKE_TARGETS, package="fakepkg")
    with tracer.installed(run_id=0), tracer.recording():
        fakepkg.outer()
    tracer.require_calls(["a.inner", "b.outer"])


def test_missing_target_is_an_error(fakepkg):
    tracer = Tracer((Target("a.gone", "fakepkg.a", "gone"),), package="fakepkg")
    with pytest.raises(TraceError, match="not found"):
        tracer.install()


def test_layer_self_times_add_up_to_traced_total(tmp_path, monkeypatch):
    """On a small real pipeline the self-time metrics sum to the total."""
    monkeypatch.chdir(tmp_path)
    cfg = {"kind": "ensemble", "grid": {"counts": [32], "lower": [-1.0], "upper": [1.0],
                                        "boundary": ["reflective"]},
           "law": inputs.LAW, "scheme": {"flux": "hll"}, "t_end": 0.2, "sample_dt": 0.05,
           "initial": {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0, "rho_r": 0.5,
                       "u_r": 0.0}, "nu_list": [0.2, 0.1]}
    (tmp_path / "e.json").write_text(json.dumps(cfg))
    tracer = Tracer()
    with tracer.installed(run_id=0), tracer.recording():
        assert cli.main(["ensemble", "--config", "e.json", "--out", "o"]) == 0
    m = layer_metrics(tracer, [0.0], 0)
    a = tracer.arrays()
    total = float((a["end"] - a["start"])[a["parent"] < 0].sum())
    self_sum = sum(v for k, v in m.items() if k.endswith("_s") and not k.endswith("_per_s")
                   and k != "trace.overhead_s")
    assert self_sum == pytest.approx(total, rel=1e-9)
    assert m["trace.overhead_s"] == pytest.approx(total)
    assert m["solver.stable_dt_per_step"] == 2.0
    assert m["fields.rows_written"] == 32 * 5 * 3  # 2 members + average, 5 samples
    tracer.require_calls(["solver.step", "eos.pressure", "cli.ensemble"])


# -- correctness gate --------------------------------------------------------

def _ensemble_op(corrupt: bool):
    cfg = "e.json"

    def call(ctx):
        rc = cli.main(["ensemble", "--config", cfg, "--out", "out/ens"])
        if corrupt:  # one cell of one member gains mass
            path = "out/ens/member_01/state_000003.csv"
            lines = open(path).read().splitlines()
            i, rho, m = lines[5].split(",")
            lines[5] = f"{i},{float(rho) * (1 + 1e-9)!r},{m}"
            open(path, "w").write("\n".join(lines) + "\n")
        return rc

    return workloads.Op("d.ensemble", "ensemble", call,
                        lambda rc: workloads._observe_ensemble(rc, "out/ens", 32.0 * 0.75))


def test_injected_mass_violation_counts_as_failed_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"kind": "ensemble", "grid": {"counts": [32], "lower": [-1.0], "upper": [1.0],
                                        "boundary": ["reflective"]},
           "law": inputs.LAW, "scheme": {"flux": "hll"}, "t_end": 0.2, "sample_dt": 0.05,
           "initial": {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0, "rho_r": 0.5,
                       "u_r": 0.0}, "nu_list": inputs.NU_LIST}
    (tmp_path / "e.json").write_text(json.dumps(cfg))
    clean = workloads.run_batch([_ensemble_op(False)], None)
    assert clean["failed"] == 0, clean["failures"]
    obs = clean["observations"]["d.ensemble"]
    reference = {"d.ensemble": {"values": obs.values, "sha256": obs.digest}}

    again = workloads.run_batch([_ensemble_op(False)], reference)
    assert (again["failed"], again["sha256_mismatches"]) == (0, 0)

    bad = workloads.run_batch([_ensemble_op(True)], reference)
    assert bad["attempted"] == 1 and bad["failed"] == 1
    assert any("member_01" in msg and "mass" in msg for msg in bad["failures"])
    assert bad["sha256_mismatches"] == 1  # the changed bytes are counted as well


def test_compare_rules():
    obs = checks.Observation()
    obs.exact("exit", 0)
    obs.close("v", [1.0, 2.0], 1e-9)
    obs.close("small", 1e-17, 1e-9, floor=1.0)
    obs.close("inf", float("inf"), 1e-9)
    ref = {"exit": 0, "v": [1.0, 2.0 * (1 + 1e-10)], "small": -1e-16, "inf": float("inf")}
    assert checks.compare(obs, ref) == []
    assert checks.compare(obs, {**ref, "v": [1.0, 2.0 * (1 + 1e-8)]})
    assert checks.compare(obs, {**ref, "exit": 1})
    assert checks.compare(obs, {k: v for k, v in ref.items() if k != "small"})
    obs.close("nan", float("nan"), 1e-9)
    assert checks.compare(obs, {**ref, "nan": 1.0})


def test_psd_check_flags_negative_stress(tmp_path):
    t = np.zeros((2, 4, 4, 2, 2))
    t[..., 0, 0] = 1.0
    t[..., 1, 1] = 1.0
    np.savez(tmp_path / "ok.npz", tensor=t)
    t[1, 2, 3, 0, 1] = t[1, 2, 3, 1, 0] = 1.5  # eigenvalues 2.5 and -0.5
    np.savez(tmp_path / "bad.npz", tensor=t)
    ok, bad = checks.Observation(), checks.Observation()
    checks.check_psd(ok, str(tmp_path / "ok.npz"))
    checks.check_psd(bad, str(tmp_path / "bad.npz"))
    assert ok.failures == [] and len(bad.failures) == 1


def test_exits_nonzero_without_program(tmp_path):
    """In a directory holding only the benchmark, no result is printed."""
    import shutil
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not os.path.exists(tmp_path / ".perfbench" / "results")
