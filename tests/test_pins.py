"""The whole-run ledger check of ``conftest.py``, on a fake suite whose
ledger holds two pins, g/a and g/b: test_a asserts g/a, test_b its line."""

import json
from pathlib import Path

import pytest

from pins import sha256

_QUICK = ("-p", "no:hypothesispytest", "-p", "no:benchmark")  # neither plugin is needed


def _run_fake_suite(pytester, test_b_line, *args):
    for name in ("pins", "conftest"):
        pytester.makepyfile(**{name: Path(__file__).with_name(f"{name}.py").read_text()})
    pytester.makefile(".json", pins=json.dumps({"g": {"note": "two pins", "a": sha256([b"a"]),
                                                      "b": sha256([b"b"])}}))
    pytester.makepyfile(test_fake="from pins import assert_pinned\n\n\n"
                                  "def test_a():\n    assert_pinned('g/a', [b'a'])\n\n\n"
                                  f"def test_b():\n    {test_b_line}\n")
    return pytester.runpytest_subprocess(*_QUICK, *args)


@pytest.mark.parametrize("test_b_line, ret, named", [
    ("assert_pinned('g/b', [b'b'])", 0, None),
    ("pass", 1, "never asserted: ['g/b']"),
    ("assert_pinned('g/c', [b'b'])", 1, "not in pins.json: ['g/c']")],
    ids=["every-pin", "a-pin-dropped", "a-name-not-in-the-ledger"])
def test_a_whole_run_asserts_exactly_the_ledger(pytester, test_b_line, ret, named):
    result = _run_fake_suite(pytester, test_b_line)
    assert result.ret == ret
    assert (named is None) == ("pin ledger" not in result.stdout.str())
    assert named is None or named in result.stdout.str()


@pytest.mark.parametrize("args", [["test_fake.py::test_a"], ["-k", "test_a"]], ids=["id", "-k"])
def test_a_run_of_part_of_the_suite_is_not_checked(pytester, args):
    result = _run_fake_suite(pytester, "pass", *args)  # g/b is never asserted
    assert result.ret == 0 and "pin ledger" not in result.stdout.str()
