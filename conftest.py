"""Pytest bootstrap: make the in-tree package importable without installation.

``pip install -e .`` is still the recommended route; this keeps the test and
benchmark suites runnable in environments where an editable install is not
possible (e.g. offline machines without the ``wheel`` package).

Marker registration lives in ``pytest.ini`` (one shared place), not here.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
# the shared test support package (tests/support/) imports as `tests.support`
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden snapshots under tests/golden/ "
        "instead of comparing against them",
    )
