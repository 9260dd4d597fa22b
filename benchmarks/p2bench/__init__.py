"""p2bench — the end-to-end + per-layer benchmark of the P2 engine.

One package, three entry points (all in :mod:`benchmarks.p2bench.cli`):

* ``python -m benchmarks.p2bench [--seed N] [--reps R]`` — the full report:
  four overlay workloads as fresh child processes in interleaved
  repetitions, one traced run per workload, the layer probes;
* ``python -m benchmarks.p2bench --compare A.json B.json`` — the verdict
  table between two such reports;
* ``python3 benchmarks/p2bench/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, one JSON line, the form ``BENCHMARK.json``
  names.

``README.md`` next to this file is the metric glossary and the rationale.
"""
