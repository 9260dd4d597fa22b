"""Simulated network substrate: topologies, transport, traffic accounting."""

from .topology import (
    LatencyMatrixTopology,
    Topology,
    TransitStubTopology,
    UniformTopology,
)
from .transport import (
    DEFAULT_CATEGORY,
    MTU_BYTES,
    Network,
    NodeTrafficStats,
    PACKET_OVERHEAD_BYTES,
)
from .reliable import ReliableConfig, ReliableLayer

__all__ = [
    "Topology",
    "UniformTopology",
    "TransitStubTopology",
    "LatencyMatrixTopology",
    "Network",
    "NodeTrafficStats",
    "ReliableConfig",
    "ReliableLayer",
    "PACKET_OVERHEAD_BYTES",
    "MTU_BYTES",
    "DEFAULT_CATEGORY",
]
