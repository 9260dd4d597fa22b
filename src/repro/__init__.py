"""repro — a Python reproduction of P2, "Implementing Declarative Overlays" (SOSP 2005).

The package provides:

* :mod:`repro.overlog` — the OverLog language (parser, AST, built-ins);
* :mod:`repro.planner` — compilation of OverLog rules into dataflow strands;
* :mod:`repro.dataflow` — P2-style dataflow elements (relational operators);
* :mod:`repro.tables` — soft-state tables;
* :mod:`repro.pel` — the PEL expression byte-code compiler and VM;
* :mod:`repro.runtime` — per-node execution engine and overlay simulation API;
* :mod:`repro.net` / :mod:`repro.sim` — simulated network and discrete-event loop;
* :mod:`repro.overlays` — ready-made OverLog specifications (Chord, Narada, gossip);
* :mod:`repro.baselines` — hand-coded comparators (imperative Chord).

Quickstart::

    from repro.overlays import chord

    network = chord.build_chord_network(32, seed=1)
    network.simulation.run_for(120)
    ring = network.ring_order()
"""

from .core import IdSpace, Tuple
from .runtime import OverlaySimulation, P2Node

__version__ = "0.1.0"

__all__ = [
    "Tuple",
    "IdSpace",
    "P2Node",
    "OverlaySimulation",
    "__version__",
]
