"""Exact work counts: the bytecodes CPython executes on fixed simulated windows.

The simulator is deterministic, so the number of bytecodes a window of it
executes reproduces exactly — run after run, and under any
``PYTHONHASHSEED`` — and one extra call per drained tuple shows as a rise
that timing pairs cannot resolve.  Each window builds an overlay, runs it
untraced to a fixed simulated time, then counts every ``opcode`` event of a
``sys.settrace`` hook (``f_trace_opcodes``) over a fixed simulated span:

* ``chord32`` — ``build_chord_network(32, seed=7, join_stagger=1.0)``, 150 s,
  then 20 s counted;
* ``narada16`` — a 16-member ``NaradaMesh`` (two bootstrap neighbours each)
  on ``TransitStubTopology(domains=4, seed=7)``, seed 7, 30 s, then 5 s
  counted.

It reports per window the total, ops per dispatch (``events_processed``
summed over the nodes), each layer's share — p2bench's path → layer map
(``benchmarks.p2bench.trace.layer_of``), with generated code its own layer
``generated`` — and the procedures and functions that execute the most::

    make ops                      # PYTHONPATH=src python -m tests.support.ops
    make ops BASE=HEAD~1          # also count a ``git archive`` of HEAD~1
    python -m tests.support.ops --window chord32 --json

With ``--base REV`` the same windows are counted on a ``git archive`` copy of
``REV`` (this file runs there against that tree's ``src``), and exact deltas
are printed.  Each side runs in a fresh interpreter.  Ops compare only within
one interpreter build, which the report names.

A bytecode is not a unit of time: C-level work (a dict probe, a heap push,
``bit_length``) is invisible, and the hook makes the counted span about 16
times slower.  Wall clock decides a claimed gain; ops attribute it and catch
small regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from collections import Counter
from typing import Callable, Dict, List, NamedTuple

#: the repository this file belongs to, for p2bench's layer map: appended to
#: ``sys.path`` so that ``repro`` still comes from ``PYTHONPATH``
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__))))
if ROOT not in sys.path:
    sys.path.append(ROOT)

from benchmarks.p2bench.trace import layer_of  # noqa: E402


class Window(NamedTuple):
    """A fixed stretch of one simulation: built by *build* (returning the
    simulation), run *warm* simulated seconds, then *span* counted."""

    build: Callable[[], object]
    warm: float
    span: float


def _chord(nodes: int) -> Callable[[], object]:
    def build():
        from repro.overlays.chord import build_chord_network

        return build_chord_network(nodes, seed=7, join_stagger=1.0).simulation

    return build


def _narada(members: int) -> Callable[[], object]:
    def build():
        from repro.net.topology import TransitStubTopology
        from repro.overlays.narada import NaradaMesh, narada_program
        from repro.runtime.system import OverlaySimulation

        sim = OverlaySimulation(
            narada_program(), topology=TransitStubTopology(domains=4, seed=7), seed=7
        )
        mesh = NaradaMesh(simulation=sim)
        for _ in range(members):
            mesh.add_member(bootstrap_neighbors=2)
        return sim

    return build


WINDOWS: Dict[str, Window] = {
    "chord32": Window(_chord(32), 150.0, 20.0),
    "narada16": Window(_narada(16), 30.0, 5.0),
    #: small enough for a test
    "chord8": Window(_chord(8), 40.0, 2.0),
}
#: what ``make ops`` counts
DEFAULT_WINDOWS = ("chord32", "narada16")


def _where(filename: str) -> str:
    """The layer a code object's ops are charged to."""
    if os.sep + "generated" + os.sep in filename:
        return "generated"
    return layer_of(filename)


def _procedure(filename: str) -> str:
    """The trigger a generated procedure's file names (``relations/succ.py``
    → ``relation succ``), or what kind of generated code it is."""
    parts = filename.split(os.sep)
    at = len(parts) - 1 - parts[::-1].index("generated")
    if parts[at - 1] == "planner":
        kind = {"relations": "relation"}.get(parts[-2], parts[-2])
        return f"{kind} {os.path.splitext(parts[-1])[0]}"
    return f"{parts[at - 1]} block"


def count(name: str) -> dict:
    """Run window *name* and count the ops of its counted span."""
    window = WINDOWS[name]
    sim = window.build()
    sim.run_for(window.warm)
    nodes = sim.nodes.values
    dispatched = sum(n.events_processed for n in nodes())
    per_code: Counter = Counter()

    def opcodes(frame, event, arg):
        if event == "opcode":
            per_code[frame.f_code] += 1
        return opcodes

    def calls(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcodes

    sys.settrace(calls)
    try:
        sim.run_for(window.span)
    finally:
        sys.settrace(None)
    dispatches = sum(n.events_processed for n in nodes()) - dispatched
    layers: Counter = Counter()
    procedures: Counter = Counter()
    functions: Counter = Counter()
    for code, ops in per_code.items():
        where = _where(code.co_filename)
        layers[where] += ops
        if where == "generated":
            procedures[_procedure(code.co_filename)] += ops
        else:
            path = code.co_filename.replace(os.sep, "/")
            short = path[path.rfind("/repro/") + 1:] if "/repro/" in path else path
            functions[f"{short}:{code.co_qualname}"] += ops
    total = sum(layers.values())
    return {
        "window": name,
        "total": total,
        "dispatches": dispatches,
        "layers": dict(layers.most_common()),
        "procedures": dict(procedures.most_common()),
        "functions": dict(functions.most_common(40)),
    }


def interpreter() -> str:
    return f"{platform.python_implementation()} {platform.python_version()} ({platform.python_build()[0]})"


def _run_in(tree: str, windows: List[str]) -> dict:
    """This file run in a fresh interpreter against *tree*'s ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run(
        [sys.executable, os.path.realpath(__file__), "--json", *sum([["--window", w] for w in windows], [])],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def _per_dispatch(result: dict) -> float:
    return result["total"] / result["dispatches"] if result["dispatches"] else 0.0


def _share(result: dict, key: str, part: str) -> float:
    return result[key].get(part, 0) / result["total"] if result["total"] else 0.0


def report(results: dict, base: dict = None, top: int = 10) -> str:
    lines = [f"ops on {interpreter()}"]
    for name, result in results.items():
        was = base and base.get(name)
        lines.append(f"== {name}: {result['total']:,} ops over {result['dispatches']:,} dispatches, "
                     f"{_per_dispatch(result):.2f} per dispatch")
        if was:
            delta = result["total"] - was["total"]
            lines.append(f"   base {was['total']:,} ops over {was['dispatches']:,} dispatches, "
                         f"{_per_dispatch(was):.2f} per dispatch; delta {delta:+,} "
                         f"({delta / was['total']:+.2%}), per dispatch "
                         f"{_per_dispatch(result) - _per_dispatch(was):+.2f}")
        for key, title in (("layers", "layer"), ("procedures", "procedure")):
            lines.append(f"   {title:32s} {'ops':>12s} {'share':>7s}" + (f" {'delta':>10s}" if was else ""))
            for part in list(result[key])[:top if key != "layers" else None]:
                ops = result[key][part]
                row = f"   {part:32s} {ops:12,d} {_share(result, key, part):7.3f}"
                if was:
                    row += f" {ops - was[key].get(part, 0):+10,d}"
                lines.append(row)
        lines.append(f"   {'function':60s} {'ops':>12s}")
        for function in list(result["functions"])[:top]:
            lines.append(f"   {function[-60:]:60s} {result['functions'][function]:12,d}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--window", action="append", choices=sorted(WINDOWS),
                        help="a window to count (repeatable; default: %s)" % ", ".join(DEFAULT_WINDOWS))
    parser.add_argument("--base", help="also count a git archive of this revision")
    parser.add_argument("--json", action="store_true", help="print the counts as JSON")
    args = parser.parse_args(argv)
    windows = args.window or list(DEFAULT_WINDOWS)
    if args.json:
        print(json.dumps({name: count(name) for name in windows}))
        return 0
    base = None
    if args.base:
        with tempfile.TemporaryDirectory(prefix="ops-base-") as tree:
            archive = subprocess.run(["git", "-C", ROOT, "archive", args.base],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
            base = _run_in(tree, windows)
    print(report(_run_in(ROOT, windows), base))
    return 0


if __name__ == "__main__":
    sys.exit(main())
