"""Which modules a fresh interpreter loads for trigrid and its CLI.

numpy and the process pool cost most of a short command's wall time, so
they are imported by the functions that use them, not by the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, json, os, sys, tempfile
import trigrid, trigrid.cli

HEAVY = ("numpy", "concurrent.futures", "multiprocessing")

def loaded():
    return [m for m in HEAVY if m in sys.modules]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return trigrid.cli.main(list(argv))

state = {"bulk": "trigrid.bulk" in sys.modules, "import": loaded()}
state["search simulate"] = (run("search", "simulate", "--n", "5"), loaded())
state["lions exact"] = (run("lions", "exact", "--n", "2", "--max-l", "3"), loaded())
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "lions.json")
    with open(path, "w") as f:
        f.write(trigrid.column_sweep_strategy(trigrid.TriGrid(3)).to_json())
    state["lions couple"] = (run("lions", "couple", "--trace", path), loaded())
    set_path = os.path.join(tmp, "a.json")
    with open(set_path, "w") as f:
        json.dump([[0, 0], [1, 1], [0, 2], [2, 0]], f)
    state["packing"] = (run("packing", "--n", "4", "--k", "7", "--kind", "final"), loaded())
    state["compress"] = (
        run("compress", "--n", "3", "--axis", "1", "--side", "left", "--set", set_path),
        loaded(),
    )
    state["lions simulate"] = (
        run("lions", "simulate", "--n", "2", "--render", "--format", "ascii"),
        loaded(),
    )
    state["render"] = (run("render", "--n", "4", "--set", set_path), loaded())
state["search bounds"] = (
    run("search", "bounds", "--n-max", "5", "--exact-up-to", "0"),
    loaded(),
)
state["exhaustive"] = (
    run("verify-isoperimetry", "--n", "3", "--exhaustive"),
    "numpy" in sys.modules,
)
print(json.dumps(state))
"""


def test_cli_loads_numpy_only_for_batch_kernels():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)
    assert state["bulk"] is True  # every submodule is still imported eagerly
    assert state["import"] == []
    assert state["search simulate"] == [0, []]
    assert state["lions exact"] == [0, []]
    assert state["lions couple"] == [0, []]  # writes its search trace through to_json_obj
    for command in ("packing", "compress", "lions simulate", "render", "search bounds"):
        assert state[command] == [0, []], command
    assert state["exhaustive"] == [0, True]


def test_package_version_has_one_source():
    import pytest

    import trigrid

    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    attr = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "trigrid.__version__" and trigrid.__version__ == "0.1.0"
