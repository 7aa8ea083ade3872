"""Mutant survey: does tier-1 catch a one-line change to a check or tolerance?

Each mutant of ``MUTANTS`` replaces one line of ``src/eulerlab`` with a
loosened, tightened or misdirected version.  The runner copies the
repository into a temporary directory, applies each mutant there in turn
(the checkout is never edited) and runs the mutant's expected killer, the
test written for that edge; only if the mutant survives it does the rest
of the tier-1 suite run, with ``-x``.  It prints whether the mutant was
killed and which test failed first.  A mutant is killed iff some tier-1
test fails, as when the whole suite ran for every mutant, but most
mutants cost one test instead of a suite.  It exits 1 if any mutant
survives or no longer applies, and 2 if the unmutated suite fails or an
expected killer fails alone on the unmutated code, since then no failure
can be charged to a mutant.  A pytest run stopped after ``TIMEOUT``
seconds counts as a failing one: a kill under a mutant, exit 2 on the
unmutated code.  Every run draws the same Hypothesis examples
(seed 0, no example database carried from one run to the next), so a
kill does not hang on a random draw and a failing example found under
one mutant is not replayed under the next.

    python tools/mutants.py              # every mutant
    python tools/mutants.py psd-tol ...  # the named ones

A full pass over the 51 mutants took 2 minutes 44 seconds on 2 vCPU, each
killed by its expected killer; running the whole suite for each of 29
mutants took 9 minutes 22 seconds.
``tests/test_mutant_table.py`` checks on every tier-1 run that each row
still applies, so a moved line is caught without the survey.  Mutants
that no test can tell from the code, since both sides of the edge write
the same bytes, are listed in ``EQUIVALENT`` with the reason instead.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_D, _S, _T = "dissipative.py", "selection.py", "trajectory.py"
_F = "fields.py"
_LIMITS = 'limits = np.array([1e15 if fmt == "%d" else 1e17 for fmt in formats])  # ints: exact'
_SPLIT = "hi = 134217729.0 * v  # 2**27 + 1"
_CLASSES = "tests/test_fields.py::test_write_csv_digits_match_the_per_value_format_over_every_class"
_POINTS = "tests/test_fields.py::test_profile_points_per_slice_equal_the_whole_linspace"
_GRID = "if n < 1 or abs(n * sample_dt - t_end) > 1e-9 * t_end:"
_GRID_TEST = ("tests/test_stacked_run.py::"
              "test_sample_dt_may_miss_a_divisor_of_t_end_by_1e_9_relative")
_CLOCK = "self._specs, self._tol = specs, 1e-14 * t_end"
_CLOCK_TEST = ("tests/test_stacked_run.py::"
               "test_a_step_ending_within_the_clock_tolerance_takes_the_sample")

# (name, file under src/eulerlab, old line, new line, expected killing test)
MUTANTS = [
    # killed at the first survey (its exact edits were not kept; these follow
    # its description of each line)
    ("psd-tol", _D, "psd_tol = 1e-10 * max(R.norm_scale(), 1e-300)",
     "psd_tol = 1e-6 * max(R.norm_scale(), 1e-300)",
     "tests/test_bit_pins.py::test_certify_bits_pinned"),
    ("round-off", _D, "round_off = 1e-10 * scale", "round_off = 1e-6 * scale",
     "tests/test_bit_pins.py::test_certify_bits_pinned"),
    ("residual-spacing", _D, "residual_tol = residual_factor * min(traj.grid.spacing) * scale",
     "residual_tol = residual_factor * max(traj.grid.spacing) * scale",
     "tests/test_bit_pins.py::test_certify_bits_pinned"),
    ("monotone-initial-jump", _D, "diffs = np.diff(traj.energy, prepend=traj.e0)",
     "diffs = np.diff(traj.energy, prepend=traj.energy[0])",
     "tests/test_dissipative.py::test_certify_energy_may_start_above_e0_by_round_off"),
    ("dictionary-time-window", _D, "t_lo, t_hi = 0.02 * t_end, 0.98 * t_end",
     "t_lo, t_hi = 0.0 * t_end, 1.0 * t_end",
     "tests/test_acceptance.py::test_criterion_02_weak_form_residual_first_order"),
    ("dictionary-y-centre", _D, "mid = tuple(0.5 * (x_lo[k] + x_hi[k]) for k in range(1, d))",
     "mid = tuple(x_lo[k] for k in range(1, d))",
     "tests/test_bit_pins.py::test_certify_bits_pinned"),
    ("dictionary-scales", _D, "for j, n_centers in zip((1, 2, 3), (2, 4, 6)):",
     "for j, n_centers in zip((0, 1, 2), (2, 4, 6)):",
     "tests/test_bit_pins.py::test_certify_bits_pinned"),
    ("default-q", _S, "return min(4.0 / 3.0, q_max(law))", "return q_max(law)",
     "tests/test_selection.py::test_default_q_is_q_max_capped_at_4_3"),
    ("lambda-lower-index", _S, "lowers.append(float(_RATES[last_bad + 1]))",
     "lowers.append(float(_RATES[last_bad]))",
     "tests/test_acceptance.py::test_criterion_09_absolute_minimizer_logic"),
    ("coherence-extension", _S, "widths = np.append(np.diff(times), 1.0)",
     "widths = np.append(np.diff(times), 2.0)",
     "tests/test_selection.py::"
     "test_order_coherence_window_to_the_horizon_takes_one_unit_of_extension"),
    ("viscosity-budget", "solver.py", "rate += (s_k[j] + 2.0 * s.nu) / h",
     "rate += (s_k[j] + 1.0 * s.nu) / h",
     "tests/test_acceptance.py::test_criterion_04_ensemble_defect_trace_inequality"),
    ("bisection-count", "riemann.py", "for _ in range(200):", "for _ in range(20):",
     "tests/test_cli.py::test_riemann_profile"),
    ("defect-constant", "eos.py", "return min(0.5, 1.0 / (d * (law.gamma - 1.0)))",
     "return 0.5",
     "tests/test_dissipative.py::test_compatibility_constant_follows_dimension_and_gamma"),
    # survived the first survey, killed since by a test at each side of the edge
    ("vacuum-check", _D, "vacuum = float(np.any(traj.m[traj.rho == 0.0] != 0.0))",
     "vacuum = 0.0", "tests/test_cli.py::test_diagnose_vacuum_consistency_edge"),
    ("stopping-strict", _T, "over = traj.defects() > delta", "over = traj.defects() >= delta",
     "tests/test_trajectory.py::test_stopping_time_needs_a_defect_strictly_above_delta"),
    ("step-cfl-slack", "solver.py", "ok = dt <= dt_max * (1.0 + 1e-12)",
     "ok = dt <= dt_max * (1.0 + 1e-3)",
     "tests/test_stacked_run.py::test_step_admits_the_bound_and_rejects_a_dt_just_above_it"),
    ("stress-symmetry", "stress.py", "rtol=0.0, atol=1e-12 * scale",
     "rtol=0.0, atol=1e-6 * scale",
     "tests/test_stress.py::test_symmetry_tolerance_is_1e_12_of_the_largest_finite_entry"),
    ("minimizer-tol", _S, "tol = 1e-12 * energy_scale(candidate.e0)",
     "tol = 1e-6 * energy_scale(candidate.e0)",
     "tests/test_selection.py::test_minimizer_tolerance_is_1e_12_of_the_energy_scale"),
    ("select-tie-tol", _S,
     "tol = tie_tol if tie_tol is not None else 1e-9 * max(abs(m), 1e-30)",
     "tol = tie_tol if tie_tol is not None else 1e-6 * max(abs(m), 1e-30)",
     "tests/test_selection.py::test_select_step1_ties_within_1e_9_of_the_least_f1"),
    ("local-strict-tol", _T, "tol_strict = 1e-6 * scale", "tol_strict = 1e-4 * scale",
     "tests/test_trajectory.py::test_compare_local_strict_gap_is_1e_6_of_the_energy_scale"),
    ("junction-tol", _T, "if d > 1e-10:", "if d > 1e-4:",
     "tests/test_trajectory.py::test_concatenation_junction_tolerance_is_1e_10_relative_l1"),
    ("candidate-fields-tol", _S, "base.m[:1])[0] > 1e-9:", "base.m[:1])[0] > 1e-3:",
     "tests/test_selection.py::test_candidate_set_fields_tolerance_is_1e_9_relative_l1"),
    ("candidate-e0-tol", _S, "if abs(tr.e0 - base.e0) > 1e-12 * energy_scale(base.e0):",
     "if abs(tr.e0 - base.e0) > 1e-6 * energy_scale(base.e0):",
     "tests/test_selection.py::test_candidate_set_e0_tolerance_is_1e_12_of_the_energy_scale"),
    ("initial-data-tol", "fields.py", "triple.E0 - mean >= -1e-12 * energy_scale(triple.E0)",
     "triple.E0 - mean >= -1e-6 * energy_scale(triple.E0)",
     "tests/test_fields.py::test_validate_initial_data_allows_1e_12_of_e0"),
    ("energy-curve-tol", _T, "tol = 1e-9 * energy_scale(self.e0)",
     "tol = 1e-6 * energy_scale(self.e0)",
     "tests/test_trajectory.py::test_energy_checks_allow_1e_9_of_the_energy_scale"),
    ("reset-start-tol", _T, "if abs(continuation.e0 - target) > 1e-9 * energy_scale(traj.e0):",
     "if abs(continuation.e0 - target) > 1e-3 * energy_scale(traj.e0):",
     "tests/test_trajectory.py::test_defect_reset_start_tolerance_is_1e_9_of_the_energy_scale"),
    ("dt1-pass-slack", "cli.py", "passed = max_defect <= delta * (1.0 + 1e-9)",
     "passed = max_defect <= delta * (1.0 + 1e-3)",
     "tests/test_cli.py::test_dt1_passes_a_defect_within_1e_9_of_delta"),
    ("dt2-no-defect", "cli.py", "if eps <= 1e-6 * energy_scale(base.e0):",
     "if eps <= 1e-12 * energy_scale(base.e0):",
     "tests/test_cli.py::test_dt2_needs_a_defect_above_1e_6_of_the_energy_scale"),
    # the one energy scale and the one sample-time rule, and the tolerances
    # that had no row before
    ("energy-scale-floor", "fields.py", "return max(1.0, *map(abs, e0s))",
     "return max(0.0, *map(abs, e0s))",
     "tests/test_fields.py::test_energy_scale_is_the_largest_magnitude_at_least_1"),
    ("time-rtol", _T, "_TIME_RTOL = 1e-9", "_TIME_RTOL = 1e-8",
     "tests/test_trajectory.py::test_sample_times_agree_within_1e_9_of_the_horizon"),
    ("time-horizon", _T, "return _TIME_RTOL * max(1.0, horizon)", "return _TIME_RTOL",
     "tests/test_trajectory.py::test_sample_times_agree_within_1e_9_of_the_horizon"),
    ("time-floor", _T, "return _TIME_RTOL * max(1.0, horizon)", "return _TIME_RTOL * horizon",
     "tests/test_trajectory.py::test_sample_times_agree_within_1e_9_of_the_horizon"),
    ("residual-support-tol", _D, "tol = sample_time_tol(traj.t_end)", "tol = 1e-14",
     "tests/test_dissipative.py::"
     "test_support_edge_within_the_sample_time_rule_sits_at_the_sample"),
    ("concatenate-energy-tol", _T, "tol_energy = 1e-9 * energy_scale(u.e0)",
     "tol_energy = 1e-6 * energy_scale(u.e0)",
     "tests/test_trajectory.py::"
     "test_concatenation_energy_window_allows_1e_9_of_the_energy_scale"),
    ("dt1-delta-floor", "cli.py", "* max(triple.E0, 1e-300)", "* max(triple.E0, 0.0)",
     "tests/test_cli.py::test_dt1_delta_floor_keeps_an_all_vacuum_datum_runnable"),
    ("dt2-pass-slack", "cli.py", "min_gap >= 0.5 * eps * (1.0 - 1e-9)",
     "min_gap >= 0.5 * eps * (1.0 - 1e-3)",
     "tests/test_cli.py::test_dt2_passes_a_gap_within_1e_9_of_half_the_defect"),
    ("local-equal-tol", _T, "tol_eq = 1e-9", "tol_eq = 1e-8",
     "tests/test_trajectory.py::"
     "test_compare_local_equality_is_1e_9_of_the_energy_scale_and_relative_l1"),
    ("support-slack", _D,
     "slack = 4.0 * math.ulp(max(abs(grid.lower[k]), abs(grid.upper[k])))",
     "slack = 16.0 * math.ulp(max(abs(grid.lower[k]), abs(grid.upper[k])))",
     "tests/test_dissipative.py::test_support_edge_may_miss_the_margin_by_4_ulps"),
    # the CSV writer's digit path and the per-slice profile points
    ("csv-fast-low", _F, "fast = (((a >= 1e-4) | (a == 0.0)) & (a < limits)).ravel()",
     "fast = (((a >= 5e-5) | (a == 0.0)) & (a < limits)).ravel()", _CLASSES),
    ("csv-fast-high", _F, _LIMITS, _LIMITS.replace("else 1e17", "else 2e17"), _CLASSES),
    ("csv-int-limit", _F, _LIMITS, _LIMITS.replace("1e15 if", "1e16 if"),
     "tests/test_fields.py::test_write_csv_integers_match_the_per_value_format_at_the_fallback_edge"),
    ("csv-log10-retry", _F, "    if off.any():", "    if False:", _CLASSES),
    ("csv-round-half-even", _F, "d += np.rint(e, out=e).astype(np.int64)",
     "d += np.floor(e, out=e).astype(np.int64)", _CLASSES),
    ("csv-split-half", _F, _SPLIT, _SPLIT.replace("134217729.0", "67108864.5"), _CLASSES),
    ("csv-block-values", _F, "_BLOCK_VALUES = 1536", "_BLOCK_VALUES = 15360",
     "tests/test_memory.py::test_write_csv_peaks_at_one_block_however_long_the_table"),
    # the march's sample grid and its clock
    ("sample-grid-loose", "solver.py", _GRID, _GRID.replace("1e-9", "1e-8"), _GRID_TEST),
    ("sample-grid-tight", "solver.py", _GRID, _GRID.replace("1e-9", "1e-10"), _GRID_TEST),
    ("clock-tol-low", "solver.py", _CLOCK, _CLOCK.replace("1e-14", "5e-15"), _CLOCK_TEST),
    ("clock-tol-high", "solver.py", _CLOCK, _CLOCK.replace("1e-14", "2e-14"), _CLOCK_TEST),
    ("points-endpoint", "cli.py", "        x[-1] = hi", "        x[-1] = x[-1]", _POINTS),
    ("points-subnormal-width", "cli.py", "    if step == 0:", "    if False:", _POINTS),
]

# (file, old line, new line, why no tier-1 test can tell the mutant from the
# code): each literal of the writer's digit path at 0.5x or 2x where that
# only moves values between two paths that write the same bytes
EQUIVALENT = [
    (_F, "fast = (((a >= 1e-4) | (a == 0.0)) & (a < limits)).ravel()",
     "fast = (((a >= 2e-4) | (a == 0.0)) & (a < limits)).ravel()",
     "values in [1e-4, 2e-4) go to '%', which writes the same text"),
    (_F, _LIMITS, _LIMITS.replace("else 1e17", "else 5e16"),
     "values in [5e16, 1e17) go to '%', which writes the same text"),
    (_F, _LIMITS, _LIMITS.replace("1e15 if", "5e14 if"),
     "integers in [5e14, 1e15) go to '%d', which writes the same text"),
    (_F, _LIMITS, _LIMITS.replace("1e15 if", "2e15 if"),
     "integers below 2**53 are exact as floats, so [1e15, 2e15) keeps its digits"),
    (_F, "a[~fast | zero] = 1.0", "a[~fast | zero] = 0.5",
     "the placeholder's digits are written over ('%' rows) or masked (zeros)"),
    (_F, "a[~fast | zero] = 1.0", "a[~fast | zero] = 2.0",
     "the placeholder's digits are written over ('%' rows) or masked (zeros)"),
    (_F, "_BLOCK_VALUES = 1536", "_BLOCK_VALUES = 768",
     "smaller runs of blocks write the same rows, in more calls"),
    (_F, _SPLIT, _SPLIT.replace("134217729.0", "268435458.0"),
     "2 * (2**27 + 1) splits into halves of at most 25 and 27 bits, so only the "
     "smallest partial product can round, by under 1e-14: no rounding tie moved "
     "over 3e6 values"),
]

_TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--hypothesis-seed=0"]
# seconds one pytest run may take: the unmutated suite takes about 40 s on
# 2 vCPU, while a killer that fails with a huge assertion can spend many
# minutes building its report
TIMEOUT = 300


# the table's own test: a mutated line no longer occurs in its file, so
# this test fails under every mutant and is run only on the unmutated suite
_TABLE_TEST = "tests/test_mutant_table.py"


def _tier1(copy: Path, env: dict, timeout: float, *extra: str):
    """The completed pytest run, or None if it took over ``timeout`` seconds."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    try:
        return subprocess.run(_TIER1 + list(extra), cwd=copy, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def _first_failure(done, timeout: float) -> str:
    if done is None:
        return f"a run that timed out after {timeout} s"
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return found.group(1) if found else "no test named"


def _survey(copy: Path, env: dict, timeout: float, row: tuple) -> bool:
    """Apply the mutant ``row`` to ``copy`` and print whether some test
    killed it; True if it survived or does not apply."""
    name, file, old, new, killer = row
    path = copy / "src" / "eulerlab" / file
    source = path.read_text()
    if source.count(old) != 1:
        print(f"{name}: does not apply, {old!r} is not one line of {file}")
        return True
    path.write_text(source.replace(old, new))
    try:
        done = _tier1(copy, env, timeout, killer)
        if done is not None and done.returncode == 0:  # the rest of the suite decides
            done = _tier1(copy, env, timeout, f"--ignore={_TABLE_TEST}")
    finally:
        path.write_text(source)
    if done is not None and done.returncode == 0:
        print(f"{name}: SURVIVED (expected killer {killer})")
        return True
    # a run that times out counts as a kill
    print(f"{name}: killed by {_first_failure(done, timeout)} (expected killer {killer})")
    return False


def main(argv: list, root: Path = ROOT, timeout: float = TIMEOUT) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".perfbench", ".pytest_cache", "__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        base = _tier1(copy, env, timeout)
        if base is None or base.returncode != 0:
            print(f"the unmutated suite fails at {_first_failure(base, timeout)}")
            return 2
        # a killer that fails alone, out of the suite's order, charges nothing
        alone = _tier1(copy, env, timeout, *sorted({m[4] for m in chosen}))
        if alone is None or alone.returncode != 0:
            print(f"an expected killer fails alone on the unmutated code: "
                  f"{_first_failure(alone, timeout)}")
            return 2
        for row in chosen:
            failures += _survey(copy, env, timeout, row)
            sys.stdout.flush()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
