"""The exact work counter (``tests/support/ops.py``, ``make ops``): a window's
bytecode count reproduces exactly, whatever the interpreter's hash seed."""

import json
import os
import subprocess
import sys

from tests.support import ops


def _count(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.path.join(ops.ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-m", "tests.support.ops", "--window", "chord8", "--json"],
        cwd=ops.ROOT, env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)["chord8"]


def test_a_window_counts_the_same_ops_under_every_hash_seed():
    first, second = _count(0), _count(1)
    assert first["total"] > 0 and first["dispatches"] > 0
    assert first == second
    # every op is charged to one layer, and generated code has its own
    assert sum(first["layers"].values()) == first["total"]
    assert sum(first["procedures"].values()) == first["layers"]["generated"]


def test_generated_files_are_named_by_their_trigger():
    generated = os.path.join("repro", "planner", "generated", "0badc0de")
    assert ops._procedure(os.path.join(generated, "relations", "succ.py")) == "relation succ"
    assert ops._procedure(os.path.join(generated, "periodic", "C1.py")) == "periodic C1"
    assert ops._procedure(os.path.join("repro", "tables", "generated", "1.py")) == "tables block"
