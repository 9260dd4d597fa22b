"""Dataflow elements: the Click-inspired building blocks of a P2 node.

An :class:`Element` consumes tuples on input ports and emits tuples on output
ports.  As in the paper, elements are small, composable, and parameterised by
PEL programs where they need per-tuple computation.  Rule strands connect
elements in chains; glue elements (queues, demultiplexers, round-robin
schedulers) connect strands to each other and to the network.

Two transfer modalities exist, mirroring Click/P2:

* **push** — the upstream element calls :meth:`Element.push` on its neighbour;
* **pull** — the downstream element calls :meth:`Element.pull`.

Strand execution in this reproduction is push-driven and run-to-completion
(the observable semantics of P2's single-threaded libasync loop); pull is used
by queue-draining glue such as :class:`RoundRobin` and ``TimedPullPush`` in
:mod:`repro.dataflow.flow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple as PyTuple

from ..core.errors import DataflowError
from ..core.tuples import Tuple


@dataclass
class ElementStats:
    """Per-element counters (exported for introspection/debugging).

    Contract: ``pushed_in``/``emitted`` are maintained by the push-driven
    transfer paths (:meth:`Element.push` / :meth:`Element.emit` and their
    batch forms); ``dropped`` (and ``emitted`` for :class:`Aggregate`) is
    maintained by the operators' own ``process`` logic.  Strand execution —
    interpreted *and* fused alike — calls operators without going through
    ``push``, so inside strands only the latter group advances, and the
    generated functions are required to advance it identically to the
    interpreted walk (the strand-fusion differential suite asserts this).
    """

    pushed_in: int = 0
    emitted: int = 0
    dropped: int = 0


class Element:
    """Base class for all dataflow elements."""

    #: subclasses override for nicer graph dumps
    kind = "element"

    def __init__(self, name: str = ""):
        self.name = name or self.kind
        self.stats = ElementStats()
        # output port -> list of (element, input port)
        self._outputs: Dict[int, List[PyTuple["Element", int]]] = {}

    # -- wiring ------------------------------------------------------------------
    def connect(self, downstream: "Element", output_port: int = 0, input_port: int = 0) -> "Element":
        """Bind *output_port* of this element to *input_port* of *downstream*.

        Returns *downstream* so chains read naturally:
        ``a.connect(b).connect(c)``.
        """
        self._outputs.setdefault(output_port, []).append((downstream, input_port))
        return downstream

    def downstreams(self, output_port: int = 0) -> List[PyTuple["Element", int]]:
        return list(self._outputs.get(output_port, ()))

    # -- data transfer -------------------------------------------------------------
    def push(self, tup: Tuple, port: int = 0) -> None:
        """Receive *tup* on *port*; default behaviour is process-and-forward."""
        self.stats.pushed_in += 1
        for out in self.process(tup, port):
            self.emit(out)

    def pull(self, port: int = 0) -> Optional[Tuple]:
        """Default elements are not pullable."""
        return None

    def push_batch(self, tuples: Sequence[Tuple], port: int = 0) -> None:
        """Receive a burst of tuples on *port*.

        Elements that can exploit batching (queues, demultiplexers) override
        this to do their per-push bookkeeping once per batch instead of once
        per tuple; the default simply replays the batch through :meth:`push`.
        """
        for tup in tuples:
            self.push(tup, port)

    def emit(self, tup: Tuple, output_port: int = 0) -> None:
        """Push *tup* to everything connected to *output_port*."""
        self.stats.emitted += 1
        targets = self._outputs.get(output_port)
        if not targets:
            return
        for downstream, in_port in targets:
            downstream.push(tup, in_port)

    def emit_batch(self, tuples: Sequence[Tuple], output_port: int = 0) -> None:
        """Push a burst of tuples downstream with one transfer per neighbour."""
        if not tuples:
            return
        self.stats.emitted += len(tuples)
        targets = self._outputs.get(output_port)
        if not targets:
            return
        for downstream, in_port in targets:
            downstream.push_batch(tuples, in_port)

    # -- processing hook --------------------------------------------------------------
    def process(self, tup: Tuple, port: int = 0) -> Iterable[Tuple]:
        """Transform one input tuple into zero or more output tuples.

        Subclasses implement this; the default is the identity.
        """
        return (tup,)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Sink(Element):
    """Collects every tuple pushed into it (used heavily in tests)."""

    kind = "sink"

    def __init__(self, name: str = "sink"):
        super().__init__(name)
        self.collected: List[Tuple] = []
        #: every push_batch as delivered, preserving batch boundaries — lets
        #: tests assert not just *what* arrived but *how it was grouped*
        self.batches: List[List[Tuple]] = []

    def push(self, tup: Tuple, port: int = 0) -> None:
        self.stats.pushed_in += 1
        self.collected.append(tup)

    def push_batch(self, tuples: Sequence[Tuple], port: int = 0) -> None:
        self.stats.pushed_in += len(tuples)
        self.collected.extend(tuples)
        self.batches.append(list(tuples))

    def clear(self) -> None:
        self.collected.clear()
        self.batches.clear()


class Callback(Element):
    """Invokes a Python callable for every tuple (bridges dataflow → host code)."""

    kind = "callback"

    def __init__(self, fn: Callable[[Tuple], None], name: str = "callback"):
        super().__init__(name)
        self._fn = fn

    def push(self, tup: Tuple, port: int = 0) -> None:
        self.stats.pushed_in += 1
        self._fn(tup)


class Discard(Element):
    """Silently drops everything (the planner wires unconsumed streams here)."""

    kind = "discard"

    def push(self, tup: Tuple, port: int = 0) -> None:
        self.stats.pushed_in += 1
        self.stats.dropped += 1


class Graph:
    """A registry of the elements making up one node's dataflow.

    The planner registers every element it creates so tests and the logging
    facility can inspect the compiled graph (element counts, per-element
    statistics), mirroring the introspection story in Section 3.5 / 7.
    """

    def __init__(self) -> None:
        self._elements: List[Element] = []

    def add(self, element: Element) -> Element:
        self._elements.append(element)
        return element

    def elements(self) -> List[Element]:
        return list(self._elements)

    def by_kind(self, kind: str) -> List[Element]:
        return [e for e in self._elements if e.kind == kind]

    def __len__(self) -> int:
        return len(self._elements)

    def describe(self) -> str:
        """A human-readable dump of the graph (element kind, name, stats)."""
        lines = []
        for e in self._elements:
            lines.append(
                f"{e.kind:16s} {e.name:40s} in={e.stats.pushed_in} out={e.stats.emitted}"
            )
        return "\n".join(lines)
