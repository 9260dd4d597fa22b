"""Dataflow framework: P2-style elements, relational operators, the transmit buffer."""

from .element import Element, ElementStats, Graph
from .flow import TransmitBuffer
from .operators import (
    Aggregate,
    AntiJoin,
    Assign,
    Host,
    LookupJoin,
    PelElement,
    Project,
    Select,
)

__all__ = [
    "Element",
    "ElementStats",
    "Graph",
    "TransmitBuffer",
    "Select",
    "Assign",
    "Project",
    "LookupJoin",
    "AntiJoin",
    "Aggregate",
    "Host",
    "PelElement",
]
