"""Interleaved A/B pairs of one p2bench workload: a base revision vs this tree.

The protocol every perf PR in this repo has run by hand (ROADMAP "Benchmarking";
the choosing-metrics guide, section 8)::

    python3 benchmarks/pairs.py BASE [--workload chord_static] [--pairs 10]
    make bench-pairs BASE=<rev> [WORKLOAD=chord_static] [N=10]

*BASE*'s committed files are unpacked (``git archive``) into a temporary
directory, then ``python3 benchmarks/p2bench/run.py --workload W --seed 7
--seconds 10 --trace 0`` — the driver's own command — runs in that directory
and in this checkout as *N* back-to-back pairs, alternating which side goes
first so neither always meets the warmer or the busier host.  Per side it
prints the median, the quartiles, min/max of ``node_s_per_s`` (already stated
at reference host speed by p2bench), the pairs won, the ratio of medians with
its base, whether the difference exceeds the base's own inter-quartile range,
the medians of the two end-to-end metrics that must not move (``setup_s``,
``peak_rss_mb``), and whether ``"correct": true`` held on every run.  Exit
status 0 means every run was correct — the verdict on the numbers is the
reader's.

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare this checkout against")
    parser.add_argument("--workload", default="chord_static")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    had_pycache = os.path.exists(PYCACHE)
    runs: Dict[str, List[float]] = {"base": [], "new": []}
    flat: Dict[str, Dict[str, List[float]]] = {side: {name: [] for name in FLAT} for side in runs}
    wins = {"base": 0, "new": 0}
    all_correct = True
    try:
        with tempfile.TemporaryDirectory(prefix="p2bench-pairs-") as scratch:
            base_tree = os.path.join(scratch, "base")
            unpack(args.base, base_tree)
            trees = {"base": base_tree, "new": ROOT}
            for pair in range(args.pairs):
                order = ("base", "new") if pair % 2 == 0 else ("new", "base")
                got = {}
                for side in order:
                    metrics, correct = run_once(
                        trees[side], args.workload, args.seed, os.path.join(scratch, "pycache", side)
                    )
                    all_correct = all_correct and correct
                    got[side] = metrics[CLAIMED]
                    runs[side].append(got[side])
                    for name in FLAT:
                        flat[side][name].append(metrics[name])
                if got["new"] != got["base"]:
                    wins["new" if got["new"] > got["base"] else "base"] += 1
                print(f"pair {pair + 1:2d} ({order[0]} first): base {got['base']:.1f}  "
                      f"new {got['new']:.1f}  new/base {got['new'] / got['base']:.3f}", flush=True)
    finally:
        if not had_pycache:
            shutil.rmtree(PYCACHE, ignore_errors=True)

    print(f"\n{args.workload} seed {args.seed}: {CLAIMED}, {args.pairs} interleaved pair(s), "
          f"base = {args.base}")
    stats = {side: spread(values) for side, values in runs.items()}
    for side in ("base", "new"):
        q1, mid, q3 = stats[side]
        print(f"  {side:4s} median {mid:.1f}  [q1 {q1:.1f}, q3 {q3:.1f}]  "
              f"min {min(runs[side]):.1f}  max {max(runs[side]):.1f}  "
              f"wins {wins[side]}/{args.pairs}")
    (base_q1, base_mid, base_q3), (_, new_mid, _) = stats["base"], stats["new"]
    print(f"  ratio of medians new/base = {new_mid:.1f} / {base_mid:.1f} = {new_mid / base_mid:.3f}")
    print(f"  difference {new_mid - base_mid:+.1f} vs base inter-quartile range {base_q3 - base_q1:.1f}: "
          f"{'larger' if abs(new_mid - base_mid) > base_q3 - base_q1 else 'NOT larger'}")
    for name in FLAT:
        base_mid, new_mid = median(flat["base"][name]), median(flat["new"][name])
        print(f"  {name}: median new/base = {new_mid:.4g} / {base_mid:.4g} = {new_mid / base_mid:.3f}")
    print(f"  correct on every run: {'yes' if all_correct else 'NO'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
