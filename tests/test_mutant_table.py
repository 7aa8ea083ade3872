"""The mutant table of ``tools/mutants.py`` follows the code.

The survey itself runs tier-1 once per mutant, so it is run on demand
only.  These checks are cheap: each row's old line is still exactly one
line of its file, its new line differs, its name is unique and its
expected killer is a test of the file it names.  A line that moves or
is reworded then fails here, not at the next survey.  And every line of
``src/eulerlab`` that holds a float literal below 1e-3, a tolerance or a
floor, has a row or is listed in ``UNSURVEYED`` with a reason, so a new
tolerance fails here until it has a row; each recorded equivalent mutant
names a line that still exists and says why no test can see it.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [row[0] for row in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name, file, old, new, killer", mutants.MUTANTS,
                         ids=[row[0] for row in mutants.MUTANTS])
def test_mutant_row_follows_the_code(name, file, old, new, killer):
    assert (ROOT / "src" / "eulerlab" / file).read_text().count(old) == 1
    assert new != old
    path, test = killer.split("::")
    assert re.search(rf"^def {re.escape(test)}\(", (ROOT / path).read_text(), re.MULTILINE)


@pytest.mark.parametrize("file, old, new, reason", mutants.EQUIVALENT,
                         ids=[f"{row[0]}:{row[2]}" for row in mutants.EQUIVALENT])
def test_equivalent_mutant_names_its_line_and_a_reason(file, old, new, reason):
    assert (ROOT / "src" / "eulerlab" / file).read_text().count(old) == 1
    assert new != old
    assert reason.strip() and "untested" not in reason.lower()


# (file, stripped line) of each line that holds a float literal below 1e-3
# and no row's old line, with the reason it has neither a row with an edge
# test at 0.5x and 2x nor a recorded equivalent mutant
UNSURVEYED = {
    ("dissipative.py", "psd_tol = 1e-10"):
        "equivalent: without a stress the margin is the constant 0.0, which meets any "
        "tolerance >= 0, and the tolerance is only reported",
    ("riemann.py", "_BISECT_TOL = 1e-12"):
        "waits for item 7, whose fix rewrites this stopping rule and moves the "
        "riemann-exact reference",
    ("riemann.py",
     "assert inner_edges[0] <= inner_edges[1] + 1e-12 * max(1.0, *map(abs, inner_edges))"):
        "an internal assert between two formulas for one wave edge: a correct solver "
        "never brings its two sides near the slack, so no input reaches the edge",
    ("riemann.py", "lo = 1e-14 * min(data.rho_l, data.rho_r)"):
        "waits for item 7: the bisection's lower start sets rho_star's last bits, so "
        "its edge test comes with that fix's re-record",
    ("selection.py", "if not (1.0 < q <= hi + 1e-12):"):
        "round-off slack over q_max for a q computed from the same law elsewhere; "
        "waits for item 2, which rewrites selection's checks",
    ("solver.py", "if n < 1 or abs(n * sample_dt - t_end) > 1e-9 * t_end:"):
        "round-off slack in n * sample_dt = t_end; its edge test needs a sample_dt "
        "that misses a divisor of t_end by 0.5e-9 and 2e-9 relative: item 5's next pass",
    ("solver.py", "self._specs, self._tol = specs, 1e-14 * t_end"):
        "the clock tolerance that lands a step on a sample; moving it moves the sample "
        "bits of marches, so its edge test comes with item 8's re-record tools",
    ("svgplot.py", "edge = lo * (1.0 - 1e-15)"):
        "reached only for a constant column beyond 2**53, where the one-step widening "
        "rounds away; no pinned plot has one, so its edge test is item 5's next pass",
}


def test_every_unsurveyed_line_has_a_reason():
    for key, reason in UNSURVEYED.items():
        assert reason.strip() and "untested" not in reason.lower(), key


def _unsurveyed_lines():
    """(file, stripped line) of each line of ``src/eulerlab`` that holds a
    float literal x with 0 < |x| < 1e-3 and contains no old line of a row
    of its file."""
    found = set()
    for path in sorted((ROOT / "src" / "eulerlab").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        olds = [row[2] for row in mutants.MUTANTS if row[1] == path.name]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Constant) and type(node.value) is float \
                    and 0.0 < abs(node.value) < 1e-3:
                line = lines[node.lineno - 1].strip()
                if not any(old in line for old in olds):
                    found.add((path.name, line))
    return found


UNSURVEYED_NOW = _unsurveyed_lines()


def test_every_tolerance_literal_has_a_row_or_is_listed():
    assert sorted(UNSURVEYED_NOW - UNSURVEYED.keys()) == []


def test_every_listed_line_still_holds_an_unsurveyed_literal():
    # a listed line that was reworded, deleted or given a row leaves the set
    assert sorted(UNSURVEYED.keys() - UNSURVEYED_NOW) == []
