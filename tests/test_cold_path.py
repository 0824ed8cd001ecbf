"""numpy stays off the CLI's path: the package never imports it, and brute
force scans its masks as bit columns of Python ints.  Each check runs in a
fresh interpreter, since this one may have numpy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import subsetfpt as sf
from conftest import _sweep_optima
from subsetfpt.io import generate_gnp, render_graph

SRC = Path(sf.__file__).resolve().parent.parent

# Runs each (argv, stdin text) of argv[1] through cli.main and prints one
# JSON line: the exit codes, the records and whether numpy got loaded.
CHILD = """
import contextlib, io, json, sys
import subsetfpt, subsetfpt.cli
runs = []
for argv, text in json.loads(sys.argv[1]):
    sys.stdin, out = io.StringIO(text), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = subsetfpt.cli.main(argv)
    runs.append([code, json.loads(out.getvalue())])
print(json.dumps({"numpy": "numpy" in sys.modules, "runs": runs}))
"""


def _child(calls):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(calls)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_import_leaves_numpy_unloaded():
    assert _child([]) == {"numpy": False, "runs": []}


def test_small_instance_commands_leave_numpy_unloaded():
    g8 = render_graph(generate_gnp(8, 0.4, 3))
    calls = [(["solve", "-"], g8), (["branch", "-", "--k", "4"], g8),
             (["dual", "-", "--epsilon", "1/2"], g8)]
    out = _child(calls)
    assert not out["numpy"]
    assert [code for code, _ in out["runs"]] == [0, 0, 0]
    assert out["runs"][0][1]["value"] == 4


def test_batch_path_leaves_numpy_unloaded_and_agrees_with_sweep():
    graphs = [generate_gnp(16, 0.3, 5), generate_gnp(20, 0.3, 5)]
    out = _child([(["solve", "-"], render_graph(g)) for g in graphs])
    assert not out["numpy"]
    for g, (code, rec) in zip(graphs, out["runs"]):
        value, (mask,) = _sweep_optima(sf.make_problem(sf.ProblemKind.VERTEX_COVER, g), False)
        assert code == 0
        assert (rec["value"], rec["solution"]) == (value, [v + 1 for v in sf.iter_bits(mask)])
