"""The mutant table of ``tools/mutants.py`` follows the code.

The survey itself runs tier-1 once per mutant, so it is run on demand
only.  These checks are cheap: each row's old line is still exactly one
line of its file, its new line differs, its name is unique and its
expected killer is a test of the file it names.  A line that moves or
is reworded then fails here, not at the next survey.
"""

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
