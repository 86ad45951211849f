"""Every demo script runs to completion against the current API."""

import os
import pathlib
import runpy
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path, capsys):
    # run a copy, so that files a demo writes beside itself land in tmp_path
    shutil.copytree(DEMOS, tmp_path / "demos")
    runpy.run_path(str(tmp_path / "demos" / script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_sensitivity_demo_needs_no_numpy(tmp_path):
    shutil.copytree(DEMOS, tmp_path / "demos")
    code = ("import runpy, sys; sys.modules['numpy'] = None; "  # import numpy now fails
            "runpy.run_path(sys.argv[1], run_name='__main__')")
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "demos" / "05_sensitivity_sweep.py")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert "ranking transitions:" in done.stdout
