"""Smoke test: every demo script runs to completion from a copy."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# files a demo writes into ``output/`` next to itself
WRITTEN = {"01_exact_riemann_waves.py": ("riemann_profile.csv", "riemann_profile.svg")}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    for name in WRITTEN.get(demo.name, ()):
        assert (tmp_path / "output" / name).stat().st_size > 0
