"""Every demo script runs to completion against the current API."""

import pathlib
import runpy
import shutil

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path, capsys):
    # run a copy, so that files a demo writes beside itself land in tmp_path
    shutil.copytree(DEMOS, tmp_path / "demos")
    runpy.run_path(str(tmp_path / "demos" / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
