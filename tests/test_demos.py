"""Every demo in demos/ runs in-process to a clean finish.

The demos call the public API the README documents, so an API change
that breaks one shows here instead of only when someone runs it.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
