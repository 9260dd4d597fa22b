"""Soft-state tables.

A table stores tuples of one relation at one node, with the semantics the
paper describes in Sections 2.1 and 3.2:

* every tuple carries an insertion time and expires ``lifetime`` seconds later
  (re-inserting a tuple with the same primary key refreshes it; a write whose
  row is *identical* to the stored one — equal fields of equal types — moves
  nothing but the row's age and its place in scan and bucket order, and leaves
  the table's content :attr:`~Table.version` alone);
* the table holds at most ``max_size`` tuples; when full the oldest tuple is
  evicted (FIFO over insertion time);
* each tuple has a unique primary key (field positions given by the
  ``keys(...)`` clause of the ``materialize`` directive); inserting a tuple
  whose key already exists replaces the previous tuple;
* an equality probe is answered by the primary key when its positions
  contain the key's (:func:`covers_key`: a lookup in the key's own hash table
  and a check of the remaining fields), and otherwise by a secondary
  in-memory index on exactly its positions, if one was added, or by a scan —
  so a table keeps only the indexes a probe the key cannot answer reads;
* one change signal (:meth:`Table.on_change`) tells a listener that the
  table was written, deleted from or swept by expiry — the continuous
  aggregates use it to know when to recompute.

A write and a probe the primary key answers have one implementation each:
the text this module generates from the table's declaration —
:func:`write_source`, a stored relation's write block, specialised to its
key, ``lifetime``, ``max_size``, indexes and (for a node) its arity;
:func:`key_probe_source`, a probe that :func:`covers_key`.  A node's
generated procedures (:mod:`repro.planner.strand_compiler`) inline that
text; :meth:`Table.insert` and :meth:`Table.prober` compile it for the table
they are called on.

Time is externalised: the table never reads a wall clock, it is told the
current time by its caller (the node runtime, which in turn asks the
simulator).  That keeps the whole system deterministic under simulation.
Callers must present non-decreasing times, which every driver (event loop,
node runtime) guarantees; expiry exploits it by keeping ``_rows`` ordered by
insertion time and popping expired tuples from the head — amortized
O(expired) instead of the old O(table size) sweep per operation.

Keys are stored the way :func:`operator.itemgetter` extracts them: the bare
value for a one-field key, primary or secondary, a tuple otherwise — no
1-tuple is built per write or probe.  The format is private to this module:
:meth:`Table.get`, :meth:`Table.lookup` and a prober take a key as a tuple,
whatever its width.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from ..core.errors import TableError
from ..core.tuples import Tuple, identical_fields, key_getter
from ..pel.vm import load_generated

Key = PyTuple[Any, ...]

INFINITY = float("inf")

_INDENT = "    "

#: stands for a key of the wrong width, which matches no row
_NO_KEY = object()


def covers_key(positions: Sequence[int], key_positions: Sequence[int]) -> bool:
    """Whether a probe on *positions* binds every primary-key field, so the
    primary key answers it and no secondary index is wanted: the one rule the
    plan (:func:`repro.planner.optimizer.index_plan`) and the table share."""
    return set(key_positions) <= set(positions)


def _stored_key(positions: Sequence[int]) -> Callable[[Sequence[Any]], Any]:
    """``fields -> key`` as this module stores it: the bare value of a
    one-field key, a tuple of several (an empty tuple of none)."""
    return itemgetter(*positions) if positions else key_getter(positions)


def row_width(key_positions: Sequence[int], indexes: Iterable[Sequence[int]]) -> int:
    """The fields a row needs, the bound a write block checks: one past the
    highest key or index position."""
    return 1 + max(p for positions in (key_positions, *indexes) for p in positions)


@dataclass
class TableStats:
    """Counters useful for tests, debugging, and the memory-footprint bench."""

    inserts: int = 0
    refreshes: int = 0
    replacements: int = 0
    deletes: int = 0
    expirations: int = 0
    evictions: int = 0
    lookups: int = 0


class _SecondaryIndex:
    """A hash index over one or more field positions."""

    def __init__(self, positions: Sequence[int]):
        self.positions = tuple(positions)
        self._key_of = _stored_key(self.positions)
        self._buckets: Dict[Any, Dict[Any, Tuple]] = {}

    def add(self, primary_key: Any, tup: Tuple) -> None:
        key = self._key_of(tup.fields)
        self._buckets.setdefault(key, {})[primary_key] = tup

    def remove(self, primary_key: Any, tup: Tuple) -> None:
        key = self._key_of(tup.fields)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.pop(primary_key, None)
            if not bucket:
                del self._buckets[key]


class Table:
    """A node-local soft-state table."""

    def __init__(
        self,
        name: str,
        key_positions: Sequence[int],
        lifetime: float = INFINITY,
        max_size: float = INFINITY,
    ):
        if not key_positions:
            raise TableError(f"table {name!r} needs at least one primary-key field")
        if not lifetime > 0:  # a NaN too
            raise TableError(f"table {name!r}: lifetime must be positive")
        if max_size != INFINITY and (max_size < 1 or max_size % 1):  # a NaN too
            raise TableError(f"table {name!r}: max_size must be an integer >= 1, or infinity")
        self.name = name
        self.key_positions = tuple(key_positions)
        self._key_of = _stored_key(self.key_positions)
        self.lifetime = lifetime
        self.max_size = max_size
        self.stats = TableStats()
        #: Content version: moves whenever the *set of rows* does — a new
        #: row, a replacement, a delete, an expiry, an eviction, ``clear`` —
        #: and never on a refresh of an identical row, which changes only
        #: ages and order.  Readers whose result is a function of the content
        #: alone (the continuous ``count``/``min``/``max`` strands) skip
        #: their rescan while it stands still.
        self.version = 0
        # primary store: key -> (tuple, insertion_time); ordered by insertion
        # time because refreshes move to the tail.  That ordering is what
        # makes expiry amortized O(expired): expire() pops from the head and
        # stops at the first live row instead of sweeping the whole table.
        self._rows: "OrderedDict[Any, PyTuple[Tuple, float]]" = OrderedDict()
        # Earliest time any row may expire (a lower bound: head deletions and
        # refreshes can leave it conservatively early, never late).  While
        # ``now`` is below it, expire() is a single comparison.
        self._next_expiry: float = INFINITY
        self._indices: Dict[PyTuple[int, ...], _SecondaryIndex] = {}
        #: the fields a row needs (:func:`row_width`), checked before a write
        self._width = row_width(self.key_positions, ())
        #: positions -> the prober :meth:`prober` built for them
        self._probers: Dict[PyTuple[int, ...], Callable[[Key, float], Sequence[Tuple]]] = {}
        self._change_listeners: List[Callable[[], None]] = []
        #: :meth:`insert`'s write block, built on the first insert
        self._write: Optional[Callable[[Tuple, float], None]] = None
        #: a node's write block is bound to this table (:meth:`write_buckets`)
        self._written_by_code = False

    def on_change(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` once after each write (a refresh, and the evictions
        it caused, included), once per delete and once per expiry sweep that
        dropped a row."""
        self._change_listeners.append(fn)

    # -- indices ---------------------------------------------------------------
    def add_index(self, positions: Sequence[int]) -> None:
        """Create a secondary hash index on *positions* (idempotent; nothing
        for a set that :func:`covers_key` — the primary key answers it).

        Raises :class:`TableError` once a generated write block is bound to
        the table (:meth:`write_buckets`): that block maintains exactly the
        indexes it was generated with.
        """
        key = tuple(positions)
        if key in self._indices or covers_key(key, self.key_positions):
            return
        if self._written_by_code:
            raise TableError(
                f"table {self.name!r}: index {key} added after a generated write block was bound"
            )
        index = _SecondaryIndex(key)
        for pk, (tup, _) in self._rows.items():
            index.add(pk, tup)
        self._indices[key] = index
        self._width = row_width(self.key_positions, self._indices)
        self._probers.clear()  # a prober asked for from now on may use it
        self._write = None  # a write must maintain it

    def has_index(self, positions: Sequence[int]) -> bool:
        """Whether a probe on *positions* is answered without a scan."""
        key = tuple(positions)
        return covers_key(key, self.key_positions) or key in self._indices

    def indexed_positions(self) -> List[tuple]:
        """The secondary-index position sets currently installed (sorted)."""
        return sorted(self._indices)

    def declaration(self) -> PyTuple[Any, ...]:
        """What a generated write block is specialised to: ``(key positions,
        lifetime, max_size, secondary-index positions in installation order)``."""
        return self.key_positions, self.lifetime, self.max_size, tuple(self._indices)

    def write_buckets(self, declared: PyTuple[Any, ...]) -> List[Dict[Any, Dict[Any, Tuple]]]:
        """The bucket dicts of the secondary indexes a write block generated
        from *declared* (a :meth:`declaration`) maintains, in its order.

        Raises :class:`TableError` unless this table is what the block was
        generated from; from now on :meth:`add_index` raises instead of
        installing an index the block would not maintain.
        """
        if declared != self.declaration():
            raise TableError(
                f"table {self.name!r} is {self.declaration()}, "
                f"the write block was generated for {declared}"
            )
        self._written_by_code = True
        return [self._indices[positions]._buckets for positions in declared[3]]

    # -- core operations ---------------------------------------------------------
    def _misfit(self, tup: Tuple) -> TableError:
        return TableError(
            f"tuple {tup!r} does not fit table {self.name!r} key {self.key_positions}"
            f" and indexes {tuple(self._indices)}: {self._width} fields needed"
        )

    def _stored_pk(self, tup: Tuple) -> Any:
        try:
            return self._key_of(tup.fields)
        except Exception as exc:
            raise self._misfit(tup) from exc

    def _stored_pk_of_key(self, key: Sequence[Any]) -> Any:
        key = tuple(key)
        if len(key) != len(self.key_positions):
            return _NO_KEY
        return key[0] if len(key) == 1 else key

    def insert(self, tup: Tuple, now: float) -> bool:
        """Insert (or refresh) *tup* at time *now*; returns True.

        Soft state is kept alive by re-inserting it, so most writes find the
        row they carry already stored.  Such a refresh — the stored fields are
        :func:`~repro.core.tuples.identical_fields` to the new ones — pays for
        what it changes: the row's age, its place at the tail of the scan
        order and of each secondary-index bucket.  Anything else is a change
        of content and bumps :attr:`version`.  Either way the change signal
        fires (P2 propagates deltas on refresh, which is what keeps soft
        state alive across the overlay).  The write is the block a node
        inlines (:func:`write_source`, here for any arity), built on the
        first insert and again after :meth:`add_index`.
        """
        if tup.name != self.name:
            raise TableError(f"tuple {tup.name!r} inserted into table {self.name!r}")
        write = self._write
        if write is None:
            binds, body, names = write_source(self, None, "now", "table")
            sealed = self._written_by_code  # binding it seals no index
            body = ["f0 = event.fields", *body]
            write = self._write = _bound(self, binds, "write(event, now)", body, names)
            self._written_by_code = sealed
        write(tup, now)
        return True

    def delete(self, tup: Tuple, now: float) -> bool:
        """Delete the tuple with *tup*'s primary key.  Returns True if present."""
        if now >= self._next_expiry:
            self.expire(now)
        pk = self._stored_pk(tup)
        entry = self._rows.pop(pk, None)
        if entry is None:
            return False
        if self._indices:
            self._remove_from_indices(pk, entry[0])
        self.stats.deletes += 1
        self.version += 1
        for fn in self._change_listeners:
            fn()
        return True

    def expire(self, now: float) -> List[Tuple]:
        """Drop tuples older than the table lifetime; returns what was dropped.

        Amortized O(expired): ``_rows`` is ordered by insertion time, so this
        pops from the head and stops at the first live row.  When ``now`` is
        before ``_next_expiry`` — the common case on the hot path — it is a
        single comparison.
        """
        rows = self._rows
        if now < self._next_expiry or not rows:
            return []
        expired: List[Tuple] = []
        cutoff = now - self.lifetime
        while rows:
            pk, (tup, inserted_at) = next(iter(rows.items()))
            if inserted_at > cutoff:
                self._next_expiry = inserted_at + self.lifetime
                break
            del rows[pk]
            if self._indices:
                self._remove_from_indices(pk, tup)
            expired.append(tup)
        else:
            self._next_expiry = INFINITY
        if expired:
            self.stats.expirations += len(expired)
            self.version += 1
            for fn in self._change_listeners:
                fn()
        return expired

    def clear(self) -> int:
        """Drop every row without a change signal (power-cycle semantics).

        Used by :meth:`~repro.runtime.node.P2Node.restart`: a crashed process
        loses its soft state silently — no delete rules, no
        continuous-aggregate recomputation.
        Rows and indices are emptied in place (generated code holds the
        dicts) and the expiry bound reset; returns the
        number of rows dropped.  The content :attr:`version` moves even so —
        a version-keyed reader must not mistake the reborn table for the old.
        """
        dropped = len(self._rows)
        self.version += 1
        self._rows.clear()
        for index in self._indices.values():
            index._buckets.clear()
        self._next_expiry = INFINITY
        return dropped

    # -- queries -----------------------------------------------------------------
    def lookup(self, positions: Sequence[int], key: Sequence[Any], now: float) -> List[Tuple]:
        """All live tuples whose fields at *positions* equal *key*, by the
        access path :meth:`prober` picks — primary key, secondary index, or a
        scan when neither answers *positions*."""
        key = tuple(key)
        if len(key) != len(positions):
            raise self._key_misfit(positions, key)
        return list(self.prober(positions)(key, now))

    def _key_misfit(self, positions: Sequence[int], key: Key) -> TableError:
        return TableError(
            f"table {self.name!r}: key {key!r} does not fit positions {tuple(positions)}"
        )

    def prober(self, positions: Sequence[int]) -> Callable[[Key, float], Sequence[Tuple]]:
        """``probe(key, now) -> rows`` for *positions*: the one place the access
        path is chosen.  Positions that :func:`covers_key` are answered by the
        primary key, through the text :func:`key_probe_source` generates — one
        ``dict`` lookup, then the remaining fields compared the way the
        ``dict`` compares keys (identity first, then ``==``); other positions
        by the secondary index on exactly them, if there is one; anything else
        by a scan.

        Generated procedures take a prober once per join the key does not
        answer and call it per probe (a probe the key answers is inlined,
        :func:`key_probe_source`); :meth:`lookup` takes one per call.  Every probe expires lazily,
        counts one ``stats.lookups`` and returns a materialised result that
        later mutation of the table cannot invalidate, in bucket (join match)
        order.  *key* must be a tuple of one value per position; a probe the
        key answers raises :class:`TableError` for any other length, as
        :meth:`lookup` does, before it counts a lookup.  An index installed
        after this call is not picked up, so install indexes first.
        One prober per position set is built and handed to every caller (a
        node's strands and relation procedures bind the same ones).
        """
        positions = tuple(positions)
        probe = self._probers.get(positions)
        if probe is None:
            probe = self._probers[positions] = self._make_prober(positions)
        return probe

    def _make_prober(self, positions: PyTuple[int, ...]) -> Callable[[Key, float], Sequence[Tuple]]:
        if covers_key(positions, self.key_positions):
            keys = [f"key[{at}]" for at in range(len(positions))]
            binds, statements, test, row = key_probe_source(
                "table", self, positions, keys, "now", "hit"
            )
            # a key that does not fit raises as lookup() does, before counting
            fits = [f"if len(key) != {len(positions)}:",
                    f"    raise table._key_misfit({positions!r}, key)"]
            return _bound(self, binds, "probe(key, now)",
                          [*fits, *statements, f"return ({row},) if {test} else ()"], {})
        stats = self.stats
        expire = self.expire
        rows = self._rows
        index = self._indices.get(positions)
        if index is not None:
            get_bucket = index._buckets.get
            bare = len(positions) == 1

            def probe(key: Key, now: float) -> Sequence[Tuple]:
                if now >= self._next_expiry:
                    expire(now)
                stats.lookups += 1
                bucket = get_bucket(key[0] if bare else key)
                return list(bucket.values()) if bucket is not None else ()

            return probe
        key_of = key_getter(positions)

        def probe(key: Key, now: float) -> Sequence[Tuple]:
            if now >= self._next_expiry:
                expire(now)
            stats.lookups += 1
            return [tup for tup, _ in rows.values() if key_of(tup.fields) == key]

        return probe

    def scan(self, now: float) -> List[Tuple]:
        """All live tuples."""
        self.expire(now)
        return [tup for tup, _ in self._rows.values()]

    def get(self, key: Sequence[Any], now: float) -> Optional[Tuple]:
        """The tuple with primary key *key*, if present."""
        if now >= self._next_expiry:
            self.expire(now)
        entry = self._rows.get(self._stored_pk_of_key(key))
        return entry[0] if entry else None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(tup for tup, _ in self._rows.values())

    # -- internals -----------------------------------------------------------------
    def _remove_from_indices(self, pk: Any, tup: Tuple) -> None:
        for index in self._indices.values():
            index.remove(pk, tup)

    def _enforce_size(self) -> None:
        if self.max_size == INFINITY:
            return
        while len(self._rows) > self.max_size:
            pk, (tup, _) = next(iter(self._rows.items()))
            del self._rows[pk]
            self._remove_from_indices(pk, tup)
            self.stats.evictions += 1
            self.version += 1

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={len(self._rows)}, "
            f"keys={self.key_positions}, lifetime={self.lifetime})"
        )


# -- generated code -------------------------------------------------------------
# A write and a probe the primary key answers, as text specialised to a table's
# declaration and installed indexes: what would be decided per call is decided
# once, when the text is made.  A node's procedures inline it; ``Table.insert``
# and ``Table.prober`` compile it for their table.


#: generated text -> its ``bind``: tables of one declaration share the code
_BINDERS: Dict[str, Callable[..., Any]] = {}


def _bound(
    table: Table, binds: List[str], signature: str, body: List[str], names: Dict[str, Any]
) -> Callable[..., Any]:
    """The function *signature* with *body*, generated, once *binds* have run
    with ``table`` bound to *table*."""
    text = "\n".join([
        "def bind(table):", *[_INDENT + line for line in binds], f"{_INDENT}def {signature}:",
        *[2 * _INDENT + line for line in body], f"{_INDENT}return {signature.split('(')[0]}",
    ]) + "\n"
    bind = _BINDERS.get(text)
    if bind is None:
        path = ("tables", "generated", f"{zlib.crc32(text.encode()):08x}.py")
        bind = _BINDERS[text] = load_generated(text, path, names)["bind"]
    return bind(table)


def _key_text(items: Sequence[str]) -> str:
    """The text of a key of *items*, as this module stores it: bare, or a tuple."""
    return items[0] if len(items) == 1 else "(" + ", ".join(items) + ")"


def _fields_key(fields: str, positions: Sequence[int]) -> str:
    """The text of *fields*' key at *positions*."""
    return _key_text([f"{fields}[{p}]" for p in positions])


def _identical(old: str, row: str, new: str, arity: Optional[int]) -> str:
    """The text of ``identical_fields(row, new)``, binding *row* to *old*,
    unrolled for *arity* fields: the same type and no ``!=``, field by field;
    a nested tuple, or a row of another arity, goes to
    :func:`~repro.core.tuples.identical_fields` itself."""
    if arity is None:
        return f"identical_fields(({old} := {row}), {new})"
    tests = [
        f"(t := type(a := {old}[{i}])) is type(b := {new}[{i}])"
        f" and (not a != b if t is not tuple else identical_fields(a, b))"
        for i in range(arity)
    ]
    return (f"({' and '.join(tests) or 'True'} if len({old} := {row}) == len({new}) == {arity}"
            f" else identical_fields({old}, {new}))")


def write_source(
    table: Table, arity: Optional[int], clock: str, table_expr: str
) -> PyTuple[List[str], List[str], Dict[str, Any]]:
    """A write block for *table*'s relation: the write of the fields ``f0``,
    whose tuple is ``event`` (``None`` for a head derived on a node), at time
    *clock*, specialised to the table's
    :meth:`Table.declaration` and to *arity* (the relation's, or ``None``:
    :meth:`Table.insert`'s block, for rows of any arity).  Returns ``(bind
    statements, body statements, names)``: the bind statements read the
    table from *table_expr* once, the body runs per tuple, *names* are the
    module globals both use.

    Left out, because the declaration decides them: the name check (a
    procedure only ever sees its own relation), the expiry bound for an
    infinite ``lifetime``, eviction for an infinite ``max_size``, the loop over
    the indexes (one straight-line block each).  A tuple too short for the
    key or an index (:func:`row_width`) raises :class:`TableError` after
    expiry and before anything else moves.  The block ends with the table's
    change signal.

    A :class:`~repro.core.tuples.Tuple` is built only for a row that changes
    the content, and only when ``event`` is ``None``: a refresh of an
    identical row stores ``event`` if there is one (so a tuple that arrived,
    or :meth:`Table.insert`'s, is the row from now on) and otherwise keeps
    the stored object, whose fields are identical to ``f0``.  Either way
    ``event`` holds the stored tuple afterwards.
    """
    key_positions, lifetime, max_size, indexes = declared = table.declaration()
    finite = lifetime != INFINITY
    buckets = ", ".join(f"t_index{j}" for j in range(len(indexes)))
    binds = [
        f"t_table = {table_expr}",
        f"[{buckets}] = t_table.write_buckets(t_DECLARED)" if indexes
        else "t_table.write_buckets(t_DECLARED)",
        "t_rows = t_table._rows",
        "t_get = t_rows.get",
        "t_move = t_rows.move_to_end",
        "t_stats = t_table.stats",
        "t_expire = t_table.expire",
        "t_listeners = t_table._change_listeners",
    ]
    if max_size != INFINITY:
        binds.append("t_evict = t_table._enforce_size")
    later = f"now + {lifetime!r}"
    built = f"trusted({table.name!r}, f0)"
    body = [
        f"now = {clock}",
        "if now >= t_table._next_expiry:",
        "    t_expire(now)",
        f"if len(f0) < {row_width(key_positions, indexes)}:",
        f"    raise t_table._misfit(event if event is not None else {built})",
        f"pk = {_fields_key('f0', key_positions)}",
        "old = t_get(pk)",
        f"if old is not None and {_identical('o', 'old[0].fields', 'f0', arity)}:",
        "    if event is None:",
        "        event = old[0]",
        "    t_stats.refreshes += 1",
        "    t_rows[pk] = (event, now)",
        "    t_move(pk)",
    ]
    if finite:
        body += ["    if len(t_rows) == 1:", f"        t_table._next_expiry = {later}"]
    for j, positions in enumerate(indexes):
        # to the tail of its bucket: bucket order is join match order
        body += [f"    bucket = t_index{j}[{_fields_key('f0', positions)}]",
                 "    del bucket[pk]", "    bucket[pk] = event"]
    body += ["else:", "    if event is None:", f"        event = {built}", "    if old is not None:"]
    for j, positions in enumerate(indexes):
        body += [f"        k = {_fields_key('o', positions)}",
                 f"        if (bucket := t_index{j}.get(k)) is not None:",
                 "            bucket.pop(pk, None)", "            if not bucket:",
                 f"                del t_index{j}[k]"]
    body += [
        "        del t_rows[pk]",
        "        t_stats.replacements += 1",
        "    else:",
        "        t_stats.inserts += 1",
        "    t_table.version += 1",
    ]
    if finite:
        body += ["    if not t_rows:", f"        t_table._next_expiry = {later}"]
    body.append("    t_rows[pk] = (event, now)")
    for j, positions in enumerate(indexes):
        body.append(f"    t_index{j}.setdefault({_fields_key('f0', positions)}, {{}})[pk] = event")
    if max_size != INFINITY:
        body += [f"    if len(t_rows) > {max_size!r}:", "        t_evict()"]
    body += ["for fn in t_listeners:", "    fn()"]
    return binds, body, {
        "t_DECLARED": declared, "identical_fields": identical_fields, "trusted": Tuple.trusted,
    }


def key_probe_source(
    name: str, table: Table, positions: Sequence[int], keys: Sequence[str], clock: str, hit: str
) -> PyTuple[List[str], List[str], str, str]:
    """A probe of *table* on *positions* that :func:`covers_key`, inline, for
    the key texts *keys* (one per position, each cheap and unable to raise):
    what a node's procedures inline and :meth:`Table.prober` compiles.

    Returns ``(bind statements, statements, hit test, row)``: the bind
    statements read the table from ``name`` (bound by the caller) into
    names prefixed *name*; the statements expire lazily and count one
    ``stats.lookups``; the hit test is true when a row matches, binding
    its entry to *hit*; *row* is the matching row's text.
    """
    positions, key_positions = tuple(positions), table.key_positions
    binds = [f"{name}_get = {name}._rows.get", f"{name}_expire = {name}.expire",
             f"{name}_stats = {name}.stats"]
    statements = [f"if {clock} >= {name}._next_expiry:", f"    {name}_expire({clock})",
                  f"{name}_stats.lookups += 1"]
    pk = _key_text([keys[positions.index(p)] for p in key_positions])
    test = f"({hit} := {name}_get({pk})) is not None"
    rest = [(p, at) for at, p in enumerate(positions) if p not in key_positions]
    if rest:
        # the remaining fields, all read before they are compared, identity
        # first and then ``==``: how the key's dict compares keys
        value = _fields_key(f"{hit}[0].fields", [p for p, _ in rest])
        wanted = _key_text([keys[at] for _, at in rest])
        test += f" and ((v := {value}) is (w := {wanted}) or v == w)"
    return binds, statements, test, f"{hit}[0]"


class TableStore:
    """The collection of tables at one node, keyed by relation name."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def create(
        self,
        name: str,
        key_positions: Sequence[int],
        lifetime: float = INFINITY,
        max_size: float = INFINITY,
    ) -> Table:
        if name in self._tables:
            raise TableError(f"table {name!r} already exists")
        table = Table(name, key_positions, lifetime, max_size)
        self._tables[name] = table
        return table

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(f"unknown table {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def clear_all(self) -> int:
        """Silently empty every table (see :meth:`Table.clear`); returns rows dropped."""
        return sum(table.clear() for table in self._tables.values())
