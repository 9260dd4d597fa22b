"""Benchmark package: ``p2bench`` (BENCHMARK.json's harness) and ``pairs.py``."""
