"""Path-style entry point: ``python3 benchmarks/p2bench/run.py ...``.

``BENCHMARK.json`` names this file rather than ``-m benchmarks.p2bench`` so
its command mentions nothing outside the benchmark's own directory; run as a
script it has no package context, so it puts the checkout root on the path
and hands over to the same :func:`benchmarks.p2bench.cli.main`.
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    from benchmarks.p2bench.cli import main

    sys.exit(main())
