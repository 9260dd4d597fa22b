"""Topologies refuse latencies no delivery can be scheduled with.

A latency that is negative, infinite or NaN — given outright, or reached by
scaling a pair's latency with ``1 + jitter_fraction * (r - 0.5)`` for some
``r`` in [0, 1) — used to be accepted, and the first datagram on such a pair
raised ``SimulationError`` out of the event loop, which stopped every node.
"""

import math

import pytest

from repro.core.errors import NetworkError
from repro.net.topology import TransitStubTopology, UniformTopology
from repro.net.transport import Network
from repro.sim.event_loop import EventLoop

BAD = [-0.001, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("latency", BAD)
def test_a_uniform_topology_needs_a_finite_latency_at_least_zero(latency):
    with pytest.raises(NetworkError, match="finite latency >= 0"):
        UniformTopology(latency)


@pytest.mark.parametrize("which", ["intra_domain_latency", "inter_domain_latency"])
@pytest.mark.parametrize("latency", BAD)
def test_a_transit_stub_topology_needs_finite_latencies_at_least_zero(which, latency):
    with pytest.raises(NetworkError, match=f"{which} must be a finite latency >= 0"):
        TransitStubTopology(**{which: latency})


@pytest.mark.parametrize("jitter", [-0.1, 2.0, 2.5, math.inf, math.nan])
def test_jitter_must_keep_every_latency_positive(jitter):
    with pytest.raises(NetworkError, match="0 <= jitter_fraction < 2"):
        TransitStubTopology(domains=2, jitter_fraction=jitter, seed=1)


def test_the_reproduced_case_is_refused_before_anything_runs():
    """``jitter_fraction=2.5`` (domains 2, seed 1) gave 72 of the 870 ordered
    pairs among 30 nodes a negative latency; the first send on one aborted
    ``run_for``.  It is now refused where it is made."""
    with pytest.raises(NetworkError):
        TransitStubTopology(domains=2, jitter_fraction=2.5, seed=1)
    # the widest jitter accepted keeps all 870 pairs, and the floor, positive
    topology = TransitStubTopology(domains=2, jitter_fraction=1.99, seed=1)
    latencies = [topology.latency(a, b) for a in range(30) for b in range(30) if a != b]
    assert len(latencies) == 870 and min(latencies) >= topology.min_latency() > 0
    Network(EventLoop(), topology)  # and a network takes it


def test_zero_is_a_latency():
    assert UniformTopology(0).latency(0, 1) == 0
    assert TransitStubTopology(intra_domain_latency=0.0, inter_domain_latency=0.0).latency(0, 1) == 0
