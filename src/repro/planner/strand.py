"""Rule strands: the compiled, executable form of a single OverLog rule.

The planner turns every rule into one or more *strands* (Section 3.5): a
chain of dataflow elements triggered by the arrival of one relation's tuples
(the *event*), followed by equijoins against stored tables, selections,
assignments, optional aggregation, and a projection that builds the head
tuple.  Where each head tuple then goes (local table, local stream
loop-back, or a remote node) is fixed by the strand's ``loc_position`` and
``is_delete``, which the generated procedure that fired it routes by.

Execution is run-to-completion per event, matching the observable semantics
of P2's single-threaded event loop.

A strand's methods here are the element walk, ``event -> [head tuple,
...]``: :meth:`RuleStrand.fire` (and
:meth:`ContinuousAggregateStrand.refresh`) iterates the element chain with
one batch list per operator; it is the reference semantics.  What a node
runs is its triggers' procedures, generated as Python source by
:mod:`repro.planner.strand_compiler`, which inline every strand's body,
whatever its shape: a node never calls the walk.  The reference run loop of
the differential suites fires it, and :meth:`RuleStrand.process` wraps its
heads in :class:`HeadRoute` objects for tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple as PyTuple

from ..core.errors import PlannerError
from ..core.tuples import Tuple
from ..dataflow.element import Element, shallow_copy
from ..dataflow.operators import Aggregate, AntiJoin, LookupJoin, Project
from ..tables.table import Table, TableStore


@dataclass(slots=True)
class HeadRoute:
    """One derived head tuple and where it must go (built only by
    :func:`head_routes`, never on the node's own path)."""

    destination: Any          # network address (may equal the local address)
    tuple: Tuple
    is_delete: bool = False


def head_routes(strand: Any, heads: Sequence[Tuple], local_address: Any) -> List[HeadRoute]:
    """Address each of *strand*'s *heads*: its location field, or the local node."""
    loc, is_delete = strand.loc_position, strand.is_delete
    return [
        HeadRoute(local_address if loc is None else tup.fields[loc], tup, is_delete)
        for tup in heads
    ]


class RuleStrand:
    """A compiled rule, triggered by tuples of ``event_name``."""

    def __init__(
        self,
        rule_id: str,
        event_name: str,
        ops: Sequence[Element],
        project: Project,
        head_name: str,
        *,
        first_join_index: Optional[int] = None,
        aggregate: Optional[Aggregate] = None,
        fallback_project: Optional[Project] = None,
        loc_position: Optional[int] = None,
        is_delete: bool = False,
        min_event_arity: int = 0,
    ):
        self.rule_id = rule_id
        self.event_name = event_name
        self.ops = list(ops)
        self.project = project
        self.head_name = head_name
        self.first_join_index = first_join_index
        self.aggregate = aggregate
        self.fallback_project = fallback_project
        self.loc_position = loc_position
        self.is_delete = is_delete
        self.min_event_arity = min_event_arity
        self.fired = 0
        self.produced = 0

    def rebind(self, host: Any, tables: TableStore) -> "RuleStrand":
        """This strand for one node: its own operators, over *host* and *tables*.

        The planner builds a program's strands once, pointing at no host and
        never fired; every node runs copies whose elements are rebound
        (:meth:`Element.rebind`), so counters start at zero and nothing a
        node changes is shared.
        """
        clone = shallow_copy(self)
        clone.ops = [op.rebind(host, tables) for op in self.ops]
        clone.project = self.project.rebind(host, tables)
        if self.aggregate is not None:
            clone.aggregate = self.aggregate.rebind(host, tables)
        if self.fallback_project is not None:
            clone.fallback_project = self.fallback_project.rebind(host, tables)
        return clone

    # -- execution -----------------------------------------------------------------
    def process(self, event: Tuple, local_address: Any) -> List[HeadRoute]:
        """:meth:`fire`, with every head addressed (see :func:`head_routes`)."""
        return head_routes(self, self.fire(event), local_address)

    def arity_error(self, event: Tuple) -> PlannerError:
        """What both executors raise for an *event* shorter than the rule's."""
        return PlannerError(
            f"rule {self.rule_id}: event {event!r} has arity {len(event.fields)}, "
            f"expected at least {self.min_event_arity}"
        )

    def fire(self, event: Tuple) -> List[Tuple]:
        """Run the strand for one triggering *event*; the derived head tuples.

        The element walk: the generated procedures' differential oracle.
        """
        if len(event.fields) < self.min_event_arity:
            raise self.arity_error(event)
        self.fired += 1
        batch: List[Tuple] = [event]
        prefix_batch: Optional[List[Tuple]] = None
        for index, op in enumerate(self.ops):
            if self.first_join_index is not None and index == self.first_join_index:
                prefix_batch = list(batch)
            if not batch:
                break
            next_batch: List[Tuple] = []
            for tup in batch:
                next_batch.extend(op.process(tup))
            batch = next_batch
        if prefix_batch is None:
            prefix_batch = list(batch) if self.first_join_index is None else []

        heads: List[Tuple] = []
        for tup in batch:
            heads.extend(self.project.process(tup))

        if self.aggregate is not None:
            fallback = None
            if not heads and self.fallback_project is not None and prefix_batch:
                fallback = next(iter(self.fallback_project.process(prefix_batch[0])), None)
            heads = self.aggregate.aggregate(heads, empty_fallback=fallback)
        self.produced += len(heads)
        return heads

    # -- introspection -----------------------------------------------------------------
    def elements(self) -> List[Element]:
        out: List[Element] = list(self.ops) + [self.project]
        if self.aggregate is not None:
            out.append(self.aggregate)
        if self.fallback_project is not None:
            out.append(self.fallback_project)
        return out

    def describe(self) -> str:
        chain = " -> ".join(f"{e.kind}" for e in self.elements())
        return f"[{self.rule_id}] {self.event_name} :: {chain} => {self.head_name}"

    def __repr__(self) -> str:
        return f"<RuleStrand {self.rule_id} on {self.event_name!r} -> {self.head_name!r}>"


class ContinuousAggregateStrand:
    """A continuously maintained aggregate over materialized tables.

    Used for rules whose body mentions only stored tables and whose head
    carries an aggregate (Chord N3 ``bestSuccDist``, S1 ``succCount``).  The
    hosting node marks the strand dirty whenever any body table changes
    (insert, delete, or expiry) and then runs its refresh (:meth:`refresh`,
    or the generated one), which re-derives the aggregate and emits only the
    groups whose value changed — exactly the "aggregate elements that
    maintain an up-to-date aggregate on a table and emit it whenever it
    changes" of Section 3.4.
    """

    is_delete = False  # an aggregate head is never a delete

    def __init__(
        self,
        rule_id: str,
        base_table: Table,
        ops: Sequence[Element],
        project: Project,
        aggregate: Aggregate,
        head_name: str,
        loc_position: Optional[int],
        watched_tables: Sequence[Table],
    ):
        self.rule_id = rule_id
        self.base_table = base_table
        self.ops = list(ops)
        self.project = project
        self.aggregate = aggregate
        self.head_name = head_name
        self.loc_position = loc_position
        self.watched_tables = list(watched_tables)
        self._last_emitted: dict = {}
        #: ``base_table.version`` as of the last generated refresh that went
        #: through, and how many groups it found — what lets a
        #: ``count``/``min``/``max`` strand answer "nothing changed" without
        #: a rescan (see the strand compiler); ``None`` = rescan
        self.seen_version: Optional[int] = None
        self.seen_groups = 0
        self.recomputations = 0

    def rebind(self, host: Any, tables: TableStore) -> "ContinuousAggregateStrand":
        """This strand for one node (see :meth:`RuleStrand.rebind`): its own
        operators, its node's tables, an empty change-suppression cache."""
        clone = shallow_copy(self)
        clone.base_table = tables.get(self.base_table.name)
        clone.watched_tables = [tables.get(t.name) for t in self.watched_tables]
        clone.ops = [op.rebind(host, tables) for op in self.ops]
        clone.project = self.project.rebind(host, tables)
        clone.aggregate = self.aggregate.rebind(host, tables)
        clone._last_emitted = {}
        return clone

    def elements(self) -> List[Element]:
        return [*self.ops, self.project, self.aggregate]

    def reset(self) -> None:
        """Forget the change-suppression cache (node restart).

        Both executors reach the cache through :meth:`emit_changed`, i.e. by
        reference through the strand, so emptying it here is seen by the
        generated refresh too — as is forgetting the table version it last
        scanned at.
        """
        self._last_emitted.clear()
        self.seen_version = None

    def recompute(self, now: float, local_address: Any) -> List[HeadRoute]:
        """:meth:`refresh`, with every head addressed."""
        return head_routes(self, self.refresh(now), local_address)

    def emit_changed(self, heads: List[PyTuple[Any, ...]]) -> List[PyTuple[Any, ...]]:
        """The groups of *heads* (field tuples) whose value changed since they
        were last emitted (the tail both executors share)."""
        last_emitted = self._last_emitted
        group_key = self.aggregate.group_key
        changed: List[PyTuple[Any, ...]] = []
        for fields in heads:
            key = group_key(fields)
            if last_emitted.get(key) != fields:
                last_emitted[key] = fields
                changed.append(fields)
        return changed

    def refresh(self, now: float) -> List[Tuple]:
        """Re-derive the aggregate; the head tuples of the changed groups.

        The element walk, which always rescans: the generated refresh's oracle.
        """
        self.recomputations += 1
        # scan() already returns a fresh list that is safe to consume
        batch: List[Tuple] = self.base_table.scan(now)
        for op in self.ops:
            next_batch: List[Tuple] = []
            for tup in batch:
                next_batch.extend(op.process(tup))
            batch = next_batch
        projected: List[Tuple] = []
        for tup in batch:
            projected.extend(self.project.process(tup))
        heads = [tup.fields for tup in self.aggregate.aggregate(projected)]
        return [Tuple.trusted(self.head_name, fields) for fields in self.emit_changed(heads)]

    def describe(self) -> str:
        chain = " -> ".join(e.kind for e in self.elements())
        return f"[{self.rule_id}] continuous over {self.base_table.name} :: {chain} => {self.head_name}"

    def __repr__(self) -> str:
        return f"<ContinuousAggregateStrand {self.rule_id} over {self.base_table.name!r}>"


@dataclass
class PeriodicSpec:
    """A periodic event source attached to a strand (the ``periodic`` built-in)."""

    strand: RuleStrand
    period: float
    count: Optional[int] = None    # None = forever
    arity: int = 3                 # periodic(NI, E, Period [, Count])

    def make_event(self, address: Any, event_id: Any) -> Tuple:
        fields: List[Any] = [address, event_id, self.period]
        if self.arity >= 4:
            fields.append(self.count if self.count is not None else 0)
        return Tuple("periodic", fields[: self.arity])
