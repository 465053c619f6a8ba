"""Every demo script runs to the end.

The demos call the public API (``train``, ``calibrate``, ``predict``,
MC-dropout ...), so a changed signature fails here rather than at a user's
first run. Each script runs as ``python3 demos/<name>.py`` would run it.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
