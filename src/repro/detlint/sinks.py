"""Sink and control-plane registries for the reachability passes.

DET004 asks: *can hash order reach the wire?*  The answer is computed over
the lightweight name-based call graph (:mod:`repro.detlint.callgraph`): a
function is **emit-reaching** when it is, or transitively calls, one of the
:data:`SINK_NAMES` below — the methods through which tuples leave a node or
events enter an event loop.  The matching is deliberately by simple method
name, not by receiver type: Python's dynamism makes receiver typing
unreliable, and for a determinism lint *over*-approximation is the correct
failure mode (a sorted() too many is free; an unsorted set on the wire is a
divergent run).

DET005 asks the dual question: *who can mutate fault state?*  The
:data:`MUTATOR_NAMES` are the mutating methods of
:class:`~repro.sim.faults.LinkConditioner` (plus the conditioner
installation hook); their call sites must sit inside — or be reachable only
from — the :data:`CONTROL_PLANE_CLASSES`, whose methods execute as
control-loop events (lookahead barriers under the sharded driver, see
``sim/faults.py``).  Mutating link state anywhere else would be observed at
different points by different shard interleavings.
"""

from __future__ import annotations

from typing import FrozenSet

#: Methods through which tuples reach the network or events reach a loop.
#: A function calling any of these — or any function that does, transitively
#: — is "emit-reaching" and must not iterate raw sets (DET004).
#:
#: * ``send_batch`` — :class:`repro.net.transport.Network`'s one send door
#: * ``schedule`` / ``schedule_at`` / ``post_at`` — :class:`repro.sim.
#:   event_loop.EventLoop` (and the sharded driver's member loops)
#: * ``route`` / ``inject`` / ``receive`` / ``receive_batch`` —
#:   :class:`repro.runtime.node.P2Node` entry points
#: * ``enqueue`` — the transmit buffer's door; the node sends what it
#:   buffered through ``send_batch`` itself
SINK_NAMES: FrozenSet[str] = frozenset(
    {
        "send_batch",
        "schedule",
        "schedule_at",
        "post_at",
        "route",
        "inject",
        "receive",
        "receive_batch",
        "enqueue",
    }
)

#: Mutating methods of the fault-injection layer (DET005): the
#: :class:`~repro.sim.faults.LinkConditioner` mutators plus the network's
#: conditioner installation hook.  Query methods (``reachable``,
#: ``datagram_lost``, ``latency_factor``) are deliberately absent — the data
#: path consults them on every datagram.
MUTATOR_NAMES: FrozenSet[str] = frozenset(
    {
        "set_partition",
        "heal_partition",
        "add_burst_loss",
        "remove_burst_loss",
        "push_latency_spike",
        "pop_latency_spike",
        "set_conditioner",
    }
)

#: Classes whose methods ARE the control plane: their bodies run as
#: control-loop events (or build the controller before the run starts), so
#: mutator calls inside them are barrier-aligned by construction.
CONTROL_PLANE_CLASSES: FrozenSet[str] = frozenset(
    {
        "FaultController",
        "LinkConditioner",
    }
)
