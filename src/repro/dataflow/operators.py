"""Relational dataflow operators.

These are the database-flavoured elements of Section 3.4: selection,
projection, assignment, stream-table equijoin, anti-join (negation) and tuple
aggregation.  Each is parameterised by PEL programs produced by the planner
and evaluates them against the tuples flowing through.  (Storing a head tuple
is not an element here: the node's per-relation handlers call
``Table.insert`` / ``Table.delete`` themselves.)

Every operator needs a *host* to build evaluation contexts: the hosting node
runtime (clock, RNG, address, identifier space, built-in registry).  Tests
use a lightweight stand-in.  The planner builds a program's operators once,
with no host, and gives every node copies pointed at it
(:meth:`Element.rebind`).

``process`` is each operator's reference semantics (the element walk's; no
node calls it).  The strand compiler (:mod:`repro.planner.strand_compiler`)
generates the same behaviour as source for every operator, and the
generated code advances the operator's ``stats`` exactly as ``process`` does.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple as PyTuple

from ..core import values
from ..core.errors import DataflowError
from ..core.idspace import IdSpace
from ..core.tuples import Tuple, key_getter
from ..pel.program import Program
from ..pel.vm import EvalContext, VM
from ..tables.table import Table
from .aggregates import EMPTY_GROUP_VALUE, get_fold
from .element import Element


class Host:
    """Minimal host implementation (tests / standalone operator use)."""

    def __init__(
        self,
        address: str = "local",
        builtins: Optional[dict] = None,
        idspace: Optional[IdSpace] = None,
        clock: float = 0.0,
        rng: Any = None,
    ):
        import random

        self.address = address
        self.builtins = builtins or {}
        self.idspace = idspace or IdSpace()
        self._clock = clock
        self.rng = rng or random.Random(0)

    def now(self) -> float:
        return self._clock


class PelElement(Element):
    """Shared machinery for elements that evaluate PEL programs."""

    def __init__(self, host: Any, name: str = ""):
        super().__init__(name)
        self.host = host

    def rebind(self, host: Any, tables: Any) -> "PelElement":
        clone = super().rebind(host, tables)
        clone.host = host
        return clone

    def _context(self, fields: Sequence[Any]) -> EvalContext:
        return EvalContext(
            fields=fields,
            builtins=getattr(self.host, "builtins", {}),
            node=self.host,
            idspace=getattr(self.host, "idspace", None),
        )

    def _eval(self, program: Program, fields: Sequence[Any]) -> Any:
        return VM.execute(program, self._context(fields))


class Select(PelElement):
    """Drops tuples for which the boolean PEL program evaluates to false."""

    kind = "select"
    counters = ("dropped",)

    def __init__(self, host: Any, program: Program, name: str = "select"):
        super().__init__(host, name)
        self.program = program

    def process(self, tup: Tuple) -> Iterable[Tuple]:
        if values.to_bool(self._eval(self.program, tup.fields)):
            return (tup,)
        self.stats.dropped += 1
        return ()


class Assign(PelElement):
    """Appends the value of a PEL expression as a new field (``X := expr``)."""

    kind = "assign"

    def __init__(self, host: Any, program: Program, name: str = "assign"):
        super().__init__(host, name)
        self.program = program

    def process(self, tup: Tuple) -> Iterable[Tuple]:
        return (tup.append(self._eval(self.program, tup.fields)),)


class Project(PelElement):
    """Builds the head tuple: one PEL program per output field."""

    kind = "project"

    def __init__(
        self,
        host: Any,
        programs: Sequence[Program],
        output_name: str,
        name: str = "project",
    ):
        super().__init__(host, name)
        self.programs = list(programs)
        self.output_name = output_name

    def process(self, tup: Tuple) -> Iterable[Tuple]:
        fields = [self._eval(p, tup.fields) for p in self.programs]
        return (Tuple(self.output_name, fields),)


class LookupJoin(PelElement):
    """Equijoin of the incoming (binding) tuple stream against a stored table.

    For each input tuple the element computes a key with ``key_programs``,
    looks up matching table rows on ``table_positions`` (index-backed), and
    emits the concatenation ``binding ++ row`` for every match.  This is the
    workhorse of OverLog execution, as Section 2.5 argues.
    """

    kind = "join"
    counters = ("dropped",)

    def __init__(
        self,
        host: Any,
        table: Table,
        table_positions: Sequence[int],
        key_programs: Sequence[Program],
        name: str = "join",
    ):
        super().__init__(host, name)
        if len(table_positions) != len(key_programs):
            raise DataflowError("join key positions and programs must align")
        self.table = table
        self.table_positions = list(table_positions)
        self.key_programs = list(key_programs)

    def rebind(self, host: Any, tables: Any) -> "LookupJoin":
        clone = super().rebind(host, tables)
        clone.table = tables.get(self.table.name)
        return clone

    def _matches(self, tup: Tuple) -> List[Tuple]:
        """The table rows *tup* joins with, in join match order."""
        now = self.host.now()
        if not self.table_positions:
            return self.table.scan(now)
        key = [self._eval(p, tup.fields) for p in self.key_programs]
        return self.table.lookup(self.table_positions, key, now)

    def process(self, tup: Tuple) -> Iterable[Tuple]:
        name = tup.name
        fields = tup.fields
        out = [Tuple(name, fields + row.fields) for row in self._matches(tup)]
        if not out:
            self.stats.dropped += 1
        return out


class AntiJoin(LookupJoin):
    """Negation: passes the binding tuple through only when the table has
    *no* matching row (``not member@Y(...)`` in the Narada rules)."""

    kind = "antijoin"

    def process(self, tup: Tuple) -> Iterable[Tuple]:
        if self._matches(tup):
            self.stats.dropped += 1
            return ()
        return (tup,)


class Aggregate(Element):
    """Per-event aggregation over a batch of projected head tuples.

    The strand collects every tuple produced for one triggering event and
    calls :meth:`aggregate`.  Grouping is by the non-aggregate head positions;
    each aggregate position is replaced by the aggregate of its group.  A
    ``count`` aggregate over an empty batch emits 0 when the caller supplies a
    fallback row (the paper's Narada rules R5–R7 depend on this).
    """

    kind = "aggregate"
    counters = ("emitted",)

    def __init__(
        self,
        group_positions: Sequence[int],
        agg_specs: Sequence[PyTuple[int, str]],
        name: str = "aggregate",
    ):
        super().__init__(name)
        self.group_positions = list(group_positions)
        self.group_key = key_getter(self.group_positions)
        self.agg_specs = list(agg_specs)
        # Resolved once, so an unknown name fails at plan time instead of at
        # the first firing.
        self.folds = [(pos, get_fold(func)) for pos, func in self.agg_specs]

    def aggregate(self, batch: Sequence[Tuple], empty_fallback: Optional[Tuple] = None) -> List[Tuple]:
        if not batch:
            if empty_fallback is None:
                return []
            if all(func in EMPTY_GROUP_VALUE for _, func in self.agg_specs):
                fields = list(empty_fallback.fields)
                for pos, func in self.agg_specs:
                    fields[pos] = EMPTY_GROUP_VALUE[func]
                return [Tuple(empty_fallback.name, fields)]
            return []
        # key -> (relation name, the first match's fields with each aggregate
        # position holding its fold state); dicts keep first-appearance order
        groups: "dict[tuple, PyTuple[str, list]]" = {}
        folds = self.folds
        for tup in batch:
            fields = tup.fields
            key = self.group_key(fields)
            group = groups.get(key)
            if group is None:
                state = list(fields)
                groups[key] = (tup.name, state)
                for pos, fold in folds:
                    state[pos] = fold.first(fields[pos])
            else:
                state = group[1]
                for pos, fold in folds:
                    state[pos] = fold.step(state[pos], fields[pos])
        out: List[Tuple] = []
        for name, state in groups.values():
            for pos, fold in folds:
                state[pos] = fold.result(state[pos])
            # group fields come from tuples; every fold returns one of its
            # inputs or an exact int/float
            out.append(Tuple.trusted(name, tuple(state)))
        self.stats.emitted += len(out)
        return out
