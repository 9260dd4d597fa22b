"""Interleaved A/B pairs of p2bench workloads: a base revision vs this tree.

The protocol every perf PR in this repo has run by hand (ROADMAP "Benchmarking";
the choosing-metrics guide, section 8)::

    python3 benchmarks/pairs.py BASE [--workload chord_static] [--pairs 10]
    make bench-pairs BASE=<rev> [WORKLOAD=chord_static] [N=10]

``--workload`` names one workload, a comma-separated list, or ``all`` (every
workload ``BENCHMARK.json`` declares), so the no-regression check over all
of them is one command.  *BASE*'s committed files are unpacked (``git
archive``) once into a temporary directory, then, workload by workload,
``python3 benchmarks/p2bench/run.py --workload W --seed 7 --seconds 10
--trace 0`` — the driver's own command — runs in that directory and in this
checkout as *N* back-to-back pairs, alternating which side goes first so
neither always meets the warmer or the busier host.  Each pair prints a line
as it finishes; at the end one row per workload gives, per side, the median
and quartiles of ``node_s_per_s`` (already stated at reference host speed by
p2bench), the pairs the change won, the ratio of medians, whether the
difference exceeds the base's own inter-quartile range, the new/base ratio
of the medians of the two end-to-end metrics that must not move
(``setup_s``, ``peak_rss_mb``), and whether ``"correct": true`` held on every
run.  Exit status 0 means every run was correct — the verdict on the numbers
is the reader's.

Only the JSON line p2bench prints last is parsed; nothing of the engine or of
p2bench is imported.  Neither tree keeps a file: the base directory is
temporary, and the bytecode cache p2bench's children write under this
checkout's ``benchmarks/p2bench/out/`` is removed again unless it was there
before.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from statistics import median, quantiles
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join("benchmarks", "p2bench", "run.py")
PYCACHE = os.path.join(ROOT, "benchmarks", "p2bench", "out", "pycache")


def unpack(rev: str, into: str) -> None:
    """The committed files of *rev*, as a plain directory tree under *into*."""
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                       stdout=archive, check=True)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(into, filter="data")


CLAIMED = "node_s_per_s"
FLAT = ("setup_s", "peak_rss_mb")


def run_once(tree: str, workload: str, seed: int, scratch: str) -> Tuple[Dict[str, float], bool]:
    """One run of *workload* in *tree*: ``(end-to-end metrics, correct)``.

    The runner's own bytecode goes to *scratch* (p2bench points its children
    at its ``out/`` directory itself), so no ``__pycache__`` appears in *tree*.
    """
    done = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
         "--seconds", "10", "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPYCACHEPREFIX": scratch},
    )
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        metrics = {name: float(report["metrics"][name]["value"]) for name in (CLAIMED, *FLAT)}
    except (IndexError, KeyError, ValueError):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{tree}: no JSON result line for {workload} (exit {done.returncode})")
    return metrics, done.returncode == 0 and report.get("correct") is True and not report.get("failed")


def spread(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, median(values), q3


def workload_names(arg: str) -> List[str]:
    """``all`` (``BENCHMARK.json``'s workloads, in its order), else a
    comma-separated list of names."""
    if arg == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return [workload["name"] for workload in json.load(fh)["workloads"]]
    return [name for name in arg.split(",") if name]


Runs = Dict[str, Dict[str, List[float]]]


def run_pairs(trees: Dict[str, str], workload: str, pairs: int, seed: int,
              scratch: str) -> Tuple[Runs, int, bool]:
    """*pairs* interleaved pairs of *workload*: every run's metrics per side,
    the pairs the new side won, and whether every run was correct."""
    runs: Runs = {side: {name: [] for name in (CLAIMED, *FLAT)} for side in trees}
    won, all_correct = 0, True
    for pair in range(pairs):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        got = {}
        for side in order:
            metrics, correct = run_once(
                trees[side], workload, seed, os.path.join(scratch, "pycache", side)
            )
            all_correct = all_correct and correct
            for name, value in metrics.items():
                runs[side][name].append(value)
            got[side] = metrics[CLAIMED]
        won += got["new"] > got["base"]
        print(f"{workload} pair {pair + 1:2d} ({order[0]} first): base {got['base']:.1f}  "
              f"new {got['new']:.1f}  new/base {got['new'] / got['base']:.3f}", flush=True)
    return runs, won, all_correct


HEADER = (f"{'workload':14s} {'base median [q1, q3]':>26s} {'new median [q1, q3]':>26s} "
          f"{'won':>6s} {'ratio':>6s} {'> IQR':>6s} {'setup_s':>8s} {'rss_mb':>7s}  correct")


def row(workload: str, runs: Runs, won: int, pairs: int, correct: bool) -> str:
    """One workload's line under :data:`HEADER`."""
    (base_q1, base_mid, base_q3), (new_q1, new_mid, new_q3) = (
        spread(runs[side][CLAIMED]) for side in ("base", "new")
    )
    larger = abs(new_mid - base_mid) > base_q3 - base_q1
    flat = [median(runs["new"][name]) / median(runs["base"][name]) for name in FLAT]
    return (f"{workload:14s} {f'{base_mid:.1f} [{base_q1:.1f}, {base_q3:.1f}]':>26s} "
            f"{f'{new_mid:.1f} [{new_q1:.1f}, {new_q3:.1f}]':>26s} {f'{won}/{pairs}':>6s} "
            f"{new_mid / base_mid:6.3f} {'yes' if larger else 'NO':>6s} "
            f"{flat[0]:8.3f} {flat[1]:7.3f}  {'yes' if correct else 'NO'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare this checkout against")
    parser.add_argument("--workload", default="chord_static",
                        help="a workload, a comma-separated list, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    names = workload_names(args.workload)
    if not names:
        parser.error("--workload names no workload")

    had_pycache = os.path.exists(PYCACHE)
    rows: List[str] = []
    all_correct = True
    try:
        with tempfile.TemporaryDirectory(prefix="p2bench-pairs-") as scratch:
            base_tree = os.path.join(scratch, "base")
            unpack(args.base, base_tree)
            trees = {"base": base_tree, "new": ROOT}
            for workload in names:
                runs, won, correct = run_pairs(trees, workload, args.pairs, args.seed, scratch)
                all_correct = all_correct and correct
                rows.append(row(workload, runs, won, args.pairs, correct))
    finally:
        if not had_pycache:
            shutil.rmtree(PYCACHE, ignore_errors=True)

    print(f"\nseed {args.seed}, {args.pairs} interleaved pair(s) per workload, base = {args.base}; "
          f"{CLAIMED} per side, then new/base of the medians")
    print(HEADER)
    for line in rows:
        print(line)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
