"""Entry point: ``python -m benchmarks.p2bench`` (see :mod:`.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
