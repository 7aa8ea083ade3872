"""A whole run fails unless the pins it asserted (``pins.py``) are exactly
the ledger's.  A run of part of the suite is not checked: one that names
test ids, deselects tests (``-k``, ``-m``), leaves a test file out or
stops early (``-x``)."""

from pathlib import Path

import pins

pytest_plugins = ["pytester"]

_FILES = set(Path(__file__).resolve().parent.glob("test_*.py"))
_run = {"deselected": False, "finished": 0}


def pytest_deselected(items):
    _run["deselected"] = True


def pytest_runtest_logfinish(nodeid):
    _run["finished"] += 1


def pytest_sessionfinish(session):
    items = getattr(session, "items", [])
    whole = (not _run["deselected"] and _run["finished"] == len(items)
             and not any("::" in arg for arg in session.config.args)
             and _FILES <= {item.path for item in items})
    unasserted, unknown = pins.LEDGER.keys() - pins.ASSERTED, pins.ASSERTED - pins.LEDGER.keys()
    if whole and (unasserted or unknown):
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.write_line("")
        reporter.write_sep("=", "pin ledger", red=True)
        reporter.write_line(f"never asserted: {sorted(unasserted)}")
        reporter.write_line(f"asserted but not in {pins.LEDGER_FILE.name}: {sorted(unknown)}")
        session.exitstatus = 1
