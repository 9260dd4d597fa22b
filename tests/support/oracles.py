"""The engine's oracles, as contexts the differential suites run nodes under.

The engine has one way to send and one way to plan; what the suites compare
it against is kept here, beside them, rather than as engine modes:

* :func:`unbatched` — every node built inside sends each remote-bound head
  on its own, a one-tuple train of
  :meth:`~repro.net.transport.Network.send_batch` per tuple, instead of
  coalescing a drain's heads into datagram trains;
* :func:`naive_plans` — every node built inside runs the naive body-order
  plans, ``plan_program(program, optimize=False)``, instead of the
  cost-based optimizer's.

Both change a node before its first firing and nothing after, and both hand
the caller a record of what they did, so a differential can assert that its
oracle side really ran the oracle.
"""

from contextlib import contextmanager

import repro.planner.planner as planner_module
from repro.runtime.node import P2Node


@contextmanager
def unbatched():
    """Build nodes that send tuple-at-a-time; yields the list of them.

    A node's handlers read its egress when they are bound, at the trigger's
    first firing, so pointing ``_egress`` at a one-tuple ``send_batch`` as
    the node is built reroutes every remote-bound head; a send the network
    refuses is counted in ``dropped_remote_sends``, as a refused train is.
    """
    real_init, built = P2Node.__init__, []

    def init(node, *args, **kwargs):
        real_init(node, *args, **kwargs)
        address, network = node.address, node.network

        def send(destination, tup):
            if network.send_batch(address, destination, [tup]) == 0:
                node.dropped_remote_sends += 1

        node._egress = send
        built.append(node)

    P2Node.__init__ = init
    try:
        yield built
    finally:
        P2Node.__init__ = real_init


@contextmanager
def naive_plans():
    """Plan with the naive body-order walk; yields the plans installed.

    Every ``plan_program`` call the planner makes inside — each node's
    ``Planner.compile``, ``Planner.explain`` and ``explain_source`` — gets
    ``plan_program(program, optimize=False)``.  Each distinct plan is
    recorded once, in the order first installed.
    """
    real, installed = planner_module.plan_program, []

    def naive(program, *, optimize=True):
        planned = real(program, optimize=False)
        if not any(planned is seen for seen in installed):
            installed.append(planned)
        return planned

    planner_module.plan_program = naive
    try:
        yield installed
    finally:
        planner_module.plan_program = real
