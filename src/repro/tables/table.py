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
* listeners can observe inserts, deletes, and expirations — the dataflow
  layer uses these for table-delta rule strands and continuous aggregates.

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
:meth:`Table.primary_key` returns a tuple, and :meth:`Table.get`,
:meth:`Table.delete_by_key`, :meth:`Table.lookup` and a prober take one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from ..core.errors import TableError
from ..core.tuples import Tuple, identical_fields, key_getter

Key = PyTuple[Any, ...]
Listener = Callable[[Tuple], None]

INFINITY = float("inf")

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
        if lifetime <= 0:
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
        #: positions -> the prober :meth:`prober` built for them
        self._probers: Dict[PyTuple[int, ...], Callable[[Key, float], Sequence[Tuple]]] = {}
        self._insert_listeners: List[Listener] = []
        self._delete_listeners: List[Listener] = []
        self._expire_listeners: List[Listener] = []

    # -- listeners -------------------------------------------------------------
    def on_insert(self, fn: Listener) -> None:
        """Call *fn* with each tuple inserted (or refreshed) into the table."""
        self._insert_listeners.append(fn)

    def on_delete(self, fn: Listener) -> None:
        """Call *fn* with each tuple explicitly deleted or evicted."""
        self._delete_listeners.append(fn)

    def on_expire(self, fn: Listener) -> None:
        """Call *fn* with each tuple that times out."""
        self._expire_listeners.append(fn)

    # -- indices ---------------------------------------------------------------
    def add_index(self, positions: Sequence[int]) -> None:
        """Create a secondary hash index on *positions* (idempotent; nothing
        for a set that :func:`covers_key` — the primary key answers it)."""
        key = tuple(positions)
        if key in self._indices or covers_key(key, self.key_positions):
            return
        index = _SecondaryIndex(key)
        for pk, (tup, _) in self._rows.items():
            index.add(pk, tup)
        self._indices[key] = index
        self._probers.clear()  # a prober asked for from now on may use it

    def has_index(self, positions: Sequence[int]) -> bool:
        """Whether a probe on *positions* is answered without a scan."""
        key = tuple(positions)
        return covers_key(key, self.key_positions) or key in self._indices

    def indexed_positions(self) -> List[tuple]:
        """The secondary-index position sets currently installed (sorted)."""
        return sorted(self._indices)

    # -- core operations ---------------------------------------------------------
    def _misfit(self, tup: Tuple) -> TableError:
        return TableError(
            f"tuple {tup!r} does not fit table {self.name!r} key {self.key_positions}"
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

    def primary_key(self, tup: Tuple) -> Key:
        """*tup*'s primary key, as a tuple whatever its width."""
        pk = self._stored_pk(tup)
        return (pk,) if len(self.key_positions) == 1 else pk

    def insert(self, tup: Tuple, now: float) -> bool:
        """Insert (or refresh) *tup* at time *now*.

        Returns True if the table contents changed or the tuple was refreshed;
        in either case insert listeners fire (P2 propagates deltas on refresh,
        which is what keeps soft state alive across the overlay).

        Soft state is kept alive by re-inserting it, so most writes find the
        row they carry already stored.  Such a refresh — the stored fields are
        :func:`~repro.core.tuples.identical_fields` to the new ones — pays for
        what it changes: the row's age, its place at the tail of the scan
        order and of each secondary-index bucket.  Anything else is a change
        of content and bumps :attr:`version`.
        """
        if tup.name != self.name:
            raise TableError(f"tuple {tup.name!r} inserted into table {self.name!r}")
        if now >= self._next_expiry:
            self.expire(now)
        fields = tup.fields
        try:
            pk = self._key_of(fields)
        except Exception as exc:
            raise self._misfit(tup) from exc
        rows = self._rows
        existing = rows.get(pk)
        if existing is not None and identical_fields(existing[0].fields, fields):
            self.stats.refreshes += 1
            rows[pk] = (tup, now)
            rows.move_to_end(pk)
            if len(rows) == 1 and self.lifetime != INFINITY:
                self._next_expiry = now + self.lifetime
            for index in self._indices.values():
                # to the tail of its bucket: bucket order is the order a join
                # sees its matches, and a re-added row would be last
                bucket = index._buckets[index._key_of(fields)]
                del bucket[pk]
                bucket[pk] = tup
        else:
            if existing is not None:
                if self._indices:
                    self._remove_from_indices(pk, existing[0])
                del rows[pk]
                self.stats.replacements += 1
            else:
                self.stats.inserts += 1
            self.version += 1
            if not rows and self.lifetime != INFINITY:
                self._next_expiry = now + self.lifetime
            rows[pk] = (tup, now)
            for index in self._indices.values():
                index.add(pk, tup)
            if len(rows) > self.max_size:
                self._enforce_size()
        for fn in self._insert_listeners:
            fn(tup)
        return True

    def delete(self, tup: Tuple, now: float) -> bool:
        """Delete the tuple with *tup*'s primary key.  Returns True if present."""
        if now >= self._next_expiry:
            self.expire(now)
        return self._drop(self._stored_pk(tup)) is not None

    def delete_by_key(self, key: Key, now: float) -> Optional[Tuple]:
        """Delete by primary key value; returns the removed tuple if any."""
        if now >= self._next_expiry:
            self.expire(now)
        return self._drop(self._stored_pk_of_key(key))

    def _drop(self, pk: Any) -> Optional[Tuple]:
        entry = self._rows.pop(pk, None)
        if entry is None:
            return None
        stored = entry[0]
        if self._indices:
            self._remove_from_indices(pk, stored)
        self.stats.deletes += 1
        self.version += 1
        for fn in self._delete_listeners:
            fn(stored)
        return stored

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
            for tup in expired:
                for fn in self._expire_listeners:
                    fn(tup)
        return expired

    def clear(self) -> int:
        """Drop every row without firing any listener (power-cycle semantics).

        Used by :meth:`~repro.runtime.node.P2Node.restart`: a crashed process
        loses its soft state silently — no delete rules, no
        continuous-aggregate recomputation.
        Indices are emptied in place and the expiry bound reset; returns the
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
            raise TableError(
                f"table {self.name!r}: key {key!r} does not fit positions {tuple(positions)}"
            )
        return list(self.prober(positions)(key, now))

    def prober(self, positions: Sequence[int]) -> Callable[[Key, float], Sequence[Tuple]]:
        """``probe(key, now) -> rows`` for *positions*: the one place the access
        path is chosen.  Positions that :func:`covers_key` are answered by the
        primary key — one ``dict`` lookup, then the remaining fields compared
        the way the ``dict`` compares keys (identity first, then ``==``);
        other positions by the secondary index on exactly them, if there is
        one; anything else by a scan.

        Generated procedures take a prober per join once and call it per
        probe; :meth:`lookup` takes one per call.  Every probe expires lazily,
        counts one ``stats.lookups`` and returns a materialised result that
        later mutation of the table cannot invalidate, in bucket (join match)
        order.  *key* must be a tuple of one value per position.  An index
        installed after this call is not picked up, so install indexes first.
        One prober per position set is built and handed to every caller (a
        node's strands and relation procedures bind the same ones).
        """
        positions = tuple(positions)
        probe = self._probers.get(positions)
        if probe is None:
            probe = self._probers[positions] = self._make_prober(positions)
        return probe

    def _make_prober(self, positions: PyTuple[int, ...]) -> Callable[[Key, float], Sequence[Tuple]]:
        stats = self.stats
        expire = self.expire
        rows = self._rows
        key_positions = self.key_positions
        if covers_key(positions, key_positions):
            get = rows.get
            pk_of = _stored_key([positions.index(p) for p in key_positions])
            rest = [(p, at) for at, p in enumerate(positions) if p not in key_positions]
            if rest:
                field_of = _stored_key([p for p, _ in rest])
                wanted_of = _stored_key([at for _, at in rest])

            def probe(key: Key, now: float) -> Sequence[Tuple]:
                if now >= self._next_expiry:
                    expire(now)
                stats.lookups += 1
                entry = get(pk_of(key))
                if entry is None:
                    return ()
                row = entry[0]
                if rest:
                    value, wanted = field_of(row.fields), wanted_of(key)
                    if not (value is wanted or value == wanted):
                        return ()
                return (row,)

            return probe
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

    def __contains__(self, tup: Tuple) -> bool:
        entry = self._rows.get(self._stored_pk(tup))
        return entry is not None and entry[0] == tup

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
            for fn in self._delete_listeners:
                fn(tup)

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={len(self._rows)}, "
            f"keys={self.key_positions}, lifetime={self.lifetime})"
        )


class TableStore:
    """The collection of tables at one node, keyed by relation name."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._sorted_names: Optional[List[str]] = None

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
        self._sorted_names = None
        return table

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(f"unknown table {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> List[str]:
        """Sorted table names; the sort is cached (tables are rarely created)."""
        if self._sorted_names is None:
            self._sorted_names = sorted(self._tables)
        return list(self._sorted_names)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def clear_all(self) -> int:
        """Silently empty every table (see :meth:`Table.clear`); returns rows dropped."""
        return sum(table.clear() for table in self._tables.values())

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())
