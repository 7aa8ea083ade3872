"""The mutant table of ``tools/mutants.py`` follows the code.

The survey itself runs tier-1 once per mutant, so it is run on demand
only.  These checks are cheap: each row's old line is still exactly one
line of its file, its new line differs, its name is unique and its
expected killer is a test of the file it names.  A line that moves or
is reworded then fails here, not at the next survey.  And every line of
``src/eulerlab`` that holds a float literal below 1e-3, a tolerance or a
floor, has a row or is listed in ``UNSURVEYED``, so a new tolerance fails
here until it has a row.
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


# (file, stripped line) of the lines that hold a float literal below 1e-3
# and no row's old line; each is to get a row and an edge test, or a
# reason why its mutant is equivalent, and then leave this set
UNSURVEYED = {
    ("dissipative.py", "psd_tol = 1e-10"),
    ("dissipative.py",
     "if (self.centers[k] - self.widths[k] < grid.lower[k] + margin - 1e-12"),
    ("dissipative.py", "or self.centers[k] + self.widths[k] > grid.upper[k] - margin + 1e-12):"),
    ("riemann.py", "_BISECT_TOL = 1e-12"),
    ("riemann.py",
     "assert inner_edges[0] <= inner_edges[1] + 1e-12 * max(1.0, *map(abs, inner_edges))"),
    ("riemann.py", "lo = 1e-14 * min(data.rho_l, data.rho_r)"),
    ("selection.py", "if not (1.0 < q <= hi + 1e-12):"),
    ("solver.py", "if n < 1 or abs(n * sample_dt - t_end) > 1e-9 * t_end:"),
    ("solver.py", "self._specs, self._tol = specs, 1e-14 * t_end"),
    ("svgplot.py", "edge = lo * (1.0 - 1e-15)"),
}


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
    assert sorted(UNSURVEYED_NOW - UNSURVEYED) == []


def test_every_listed_line_still_holds_an_unsurveyed_literal():
    # a listed line that was reworded, deleted or given a row leaves the set
    assert sorted(UNSURVEYED - UNSURVEYED_NOW) == []
