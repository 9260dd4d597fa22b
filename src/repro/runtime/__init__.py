"""The P2 runtime: per-node execution engine and whole-overlay simulation API."""

from .node import P2Node
from .system import OverlaySimulation

__all__ = ["P2Node", "OverlaySimulation"]
