"""Function-level census of ``src/``: which functions what reaches.

Runs, in this one process and under a ``sys.setprofile`` hook that records
every Python function called, first every p2bench workload (one untraced
run each, seed 7, the default length), the p2bench probes, the shards probe
and every ``examples/*.py`` at its defaults, then the tier-1 suite
(``pytest`` at the repository root).  It prints, per module of
``src/repro``, the functions tier-1 reaches but no workload, example or
probe does — the code only tests keep alive — and the functions nothing
reaches, each with its line count, then lists them by name.

    make census                      # PYTHONPATH=src python -m tests.support.census
    python -m tests.support.census -- -m "not slow"   # pytest arguments after --

Code run in a subprocess (the tests that start interpreters) is not seen,
and neither is code generated at run time (it has no file under ``src/``).
Takes several minutes: the hook slows every call down.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import os
import runpy
import sys
import threading
from typing import Dict, List, Set, Tuple

#: resolved, as code objects' files are compared after ``realpath`` too
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__))))
SRC = os.path.join(ROOT, "src")

#: a function by its code object's ``(file, first line)``
Function = Tuple[str, int]


def functions() -> Dict[Function, Tuple[str, int]]:
    """Every ``def`` under ``src/repro``, methods and nested ones included:
    its qualified name and line count."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found[path, first] = (name, child.end_lineno - first + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


class Reached:
    """The code objects called while it is installed."""

    def __init__(self) -> None:
        self.codes: Set = set()

    def hook(self, frame, event, arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def install(self) -> None:
        sys.setprofile(self.hook)
        threading.setprofile(self.hook)

    def remove(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def functions(self) -> Set[Function]:
        return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in self.codes}


def run_the_benchmark_side(reached: Reached) -> None:
    """Every p2bench workload, its probes and every example, at defaults."""
    from benchmarks.p2bench import child, probes
    from benchmarks.p2bench.hostspeed import HostSpeed
    from benchmarks.p2bench.spec import REFERENCE_SECONDS, WORKLOADS

    jobs = [lambda name=name: child.workload_job(
        {"workload": name, "seed": 7, "seconds": REFERENCE_SECONDS, "mode": "untraced"})
        for name in WORKLOADS]
    jobs += [lambda: probes.run_all(HostSpeed()), lambda: probes.shards_probe(7, HostSpeed())]
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        jobs.append(lambda path=path: runpy.run_path(path, run_name="__main__"))
    argv = sys.argv
    for job in jobs:
        sys.argv = [argv[0]]
        reached.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
                job()
        finally:
            reached.remove()
            sys.argv = argv


def run_tier_1(reached: Reached, pytest_args: List[str]) -> int:
    """The tier-1 suite, the hook put back before each test (a test that
    runs ``cProfile`` takes it away)."""
    import pytest

    class Reinstall:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            reached.install()

    reached.install()
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[Reinstall()])
    finally:
        reached.remove()


def report(universe, bench: Set[Function], tests: Set[Function]) -> str:
    """Per module, how many functions (and lines) only tier-1 reaches and
    how many nothing reaches, then each of them by name."""
    kinds = ("tier-1 only", "unreached")
    rows: Dict[str, List[int]] = {}
    listed: Dict[str, List[str]] = {kind: [] for kind in kinds}
    for (path, first), (name, lines) in sorted(universe.items()):
        if (path, first) in bench:
            continue
        kind = 0 if (path, first) in tests else 1
        module = os.path.relpath(path, SRC)
        row = rows.setdefault(module, [0, 0, 0, 0])
        row[2 * kind] += 1
        row[2 * kind + 1] += lines
        listed[kinds[kind]].append(f"  {module}:{first} {name} ({lines})")
    rows["total (" + str(len(universe)) + " functions in src/)"] = [
        sum(row[i] for row in rows.values()) for i in range(4)]
    out = [f"{'module':44s} {kinds[0]:>16s} {kinds[1]:>16s}",
           f"{'':44s} {'fns':>7s} {'lines':>8s} {'fns':>7s} {'lines':>8s}"]
    out += [f"{module:44s} {a:7d} {b:8d} {c:7d} {d:8d}" for module, (a, b, c, d) in rows.items()]
    for kind, names in listed.items():
        out += ["", f"{kind}:"] + names
    return "\n".join(out)


def main(argv: List[str]) -> int:
    pytest_args = argv[argv.index("--") + 1:] if "--" in argv else []
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.chdir(ROOT)
    bench, tests = Reached(), Reached()
    run_the_benchmark_side(bench)
    status = run_tier_1(tests, pytest_args)
    print(report(functions(), bench.functions(), tests.functions()))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
