"""Dataflow elements: the building blocks of a P2 node's rule strands.

An :class:`Element` turns one input tuple into zero or more output tuples
(:meth:`Element.process`) and counts what it did (:class:`ElementStats`).
As in the paper, elements are small and parameterised by PEL programs where
they need per-tuple computation.  The planner chains the relational operators
of :mod:`repro.dataflow.operators` into rule strands and registers each in
the node's :class:`Graph`.  A node runs each strand inlined in its
trigger's generated procedure, which reads the same operators
(:mod:`repro.planner.strand_compiler`) and routes the heads between strands;
walking the chain is the reference semantics the procedures are tested on.
The one network-facing element is
:class:`~repro.dataflow.flow.TransmitBuffer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List

from ..core.tuples import Tuple


@dataclass
class ElementStats:
    """Per-element counters (exported for introspection/debugging).

    Contract: ``dropped`` (and ``emitted`` for :class:`Aggregate`) is
    maintained by the operators' own ``process`` logic, and the generated
    procedures are required to advance it identically to the interpreted
    walk (the strand-fusion differential suite asserts this).
    ``pushed_in``/``emitted`` on a :class:`TransmitBuffer` count the tuples
    enqueued and taken to be sent; no other element moves ``pushed_in``.
    """

    pushed_in: int = 0
    emitted: int = 0
    dropped: int = 0


def shallow_copy(obj: Any) -> Any:
    """A shallow copy of *obj* that is as quick to use as the original.

    Attributes are set one by one, in the order ``__init__`` set them, so
    the copy keeps CPython's compact attribute layout; ``copy.copy`` fills
    ``__dict__`` wholesale, and every later attribute access on such a copy
    — counters the generated procedures bump per firing — pays a dict lookup
    (measured: 7% of ``chord_static``'s ``node_s_per_s``).
    """
    new = object.__new__(type(obj))
    for name, value in vars(obj).items():
        setattr(new, name, value)
    return new


class Element:
    """Base class for all dataflow elements."""

    #: subclasses override for nicer graph dumps
    kind = "element"
    #: the :class:`ElementStats` fields this element maintains (what a graph
    #: dump shows); an operator that rejects tuples declares ``dropped``
    counters = ()

    def __init__(self, name: str = ""):
        self.name = name or self.kind
        self.stats = ElementStats()

    def process(self, tup: Tuple) -> Iterable[Tuple]:
        """Transform one input tuple into zero or more output tuples.

        Subclasses implement this; the default is the identity.
        """
        return (tup,)

    def rebind(self, host: Any, tables: Any) -> "Element":
        """This element for one node: a copy with counters of its own.

        The planner builds every operator once per program, pointing at no
        host; each node runs copies.  What a node cannot change — PEL
        programs, positions, folds — stays shared with the original;
        subclasses re-point what is the node's (*host*, its *tables*).
        """
        clone = shallow_copy(self)
        clone.stats = ElementStats()
        return clone

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


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

    def __len__(self) -> int:
        return len(self._elements)

    def describe(self) -> str:
        """A human-readable dump of the graph (element kind, name, stats)."""
        lines = []
        for e in self._elements:
            counters = " ".join(f"{c}={getattr(e.stats, c)}" for c in e.counters)
            lines.append(f"{e.kind:16s} {e.name:40s} {counters}".rstrip())
        return "\n".join(lines)
