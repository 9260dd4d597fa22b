"""Tuples: the unit of data transfer in P2.

A :class:`Tuple` is an immutable, named vector of values.  The name is the
relation (table or stream) the tuple belongs to — e.g. ``lookup`` or
``succ`` — and the fields follow the positional convention of the paper: the
first field is almost always the address of the node where the tuple lives
(the location specifier ``@NI``).

Tuples are immutable once created (the paper makes the same design decision,
so that a tuple can be both stored and forwarded without copying); "modifying"
a tuple means building a new one.

Like P2, which passes a tuple by reference and builds one only when something
will hold it, a node builds a :class:`Tuple` for a head it derives only where
one is shown: a head handed to the network, a row that changes a table's
content, a delivery to a subscriber, a delete and an error message.  A head
that stays on the node rides its run queue as ``(relation, fields)``, and a
refresh of an identical row keeps the stored object.  The wire, the tables
and the public API (:meth:`Tuple.make`, ``P2Node.route``,
``Network.send_batch``) carry tuples.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence, Tuple as PyTuple

from . import values
from .errors import TupleError

_tuple_counter = 0


def fresh_tuple_id() -> int:
    """Monotonically increasing tuple identifier (used for event IDs)."""
    global _tuple_counter
    _tuple_counter += 1
    return _tuple_counter


class Tuple:
    """An immutable named tuple of P2 values.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"lookup"``.
    fields:
        The values; coerced through :func:`repro.core.values.coerce`.
    """

    __slots__ = ("name", "fields", "_hash")

    def __init__(self, name: str, fields: Sequence[Any] = ()):
        if not name or not isinstance(name, str):
            raise TupleError(f"tuple name must be a non-empty string, got {name!r}")
        coerced = tuple(values.coerce(f) for f in fields)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", coerced)

    # -- construction helpers -------------------------------------------------
    @classmethod
    def trusted(cls, name: str, fields: PyTuple[Any, ...]) -> "Tuple":
        """Build a tuple from a ``tuple`` of values that are already P2 values.

        The constructor generated procedures use where a head becomes a
        tuple (see the module docstring): fields copied out of existing
        tuples were coerced when those were
        built, and computed fields are coerced by the caller, so neither the
        name check nor the per-field :func:`~repro.core.values.coerce` pass
        of ``__init__`` runs again.  Handing it anything else breaks the
        marshaling and hashing guarantees — it is not an ingress path.
        """
        self = _new(cls)
        _set_name(self, name)
        _set_fields(self, fields)
        return self

    @classmethod
    def make(cls, name: str, *fields: Any) -> "Tuple":
        """Convenience constructor: ``Tuple.make("succ", ni, s, si)``."""
        return cls(name, fields)

    def append(self, *extra: Any) -> "Tuple":
        """Return a new tuple with *extra* values appended."""
        return Tuple(self.name, self.fields + tuple(values.coerce(x) for x in extra))

    # -- immutability ----------------------------------------------------------
    def __setattr__(self, key: str, value: Any) -> None:
        raise TupleError("tuples are immutable")

    # -- accessors -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, idx: int) -> Any:
        try:
            return self.fields[idx]
        except IndexError:
            raise TupleError(
                f"field {idx} out of range for {self.name!r} (arity {len(self.fields)})"
            ) from None

    def __iter__(self) -> Iterator[Any]:
        return iter(self.fields)

    def key(self, positions: Iterable[int]) -> PyTuple[Any, ...]:
        """Return the sub-tuple of fields at *positions* (used as index keys)."""
        return tuple(self.fields[p] for p in positions)

    # -- equality / hashing ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tuple)
            and self.name == other.name
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        # Computed on first use and cached in the slot: tables and indices
        # key on field tuples, so most tuples are never hashed at all.  The
        # hash is an in-process dict/set key only: it never feeds seeds,
        # persisted state, or cross-process ordering (those sort on fields).
        try:
            return self._hash
        except AttributeError:
            value = hash((self.name, self.fields))  # det: allow(DET002): in-process key only
            _set_hash(self, value)
            return value

    # -- sizing / display --------------------------------------------------------
    def estimate_size(self) -> int:
        """Approximate marshaled size in bytes (name + fields)."""
        return 4 + len(self.name) + values.estimate_sizes(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(values.to_str(f) for f in self.fields)
        return f"{self.name}({inner})"


# slot descriptors: write the (otherwise immutable) slots without the
# by-name lookup of ``object.__setattr__``
_new = object.__new__
_set_name = Tuple.name.__set__
_set_fields = Tuple.fields.__set__
_set_hash = Tuple._hash.__set__


def identical_fields(a: PyTuple[Any, ...], b: PyTuple[Any, ...]) -> bool:
    """Equal values *and* equal value types, field for field.

    Python's ``==`` alone calls ``1``, ``True`` and ``1.0`` the same field,
    yet they order differently under :func:`~repro.core.values.compare` and
    marshal to 5, 2 and 9 bytes.  This is the one definition of "the same
    row" that licenses treating a table write as a pure refresh.

    A NaN is identical to nothing, itself included — as under ``==`` on the
    floats themselves, which tuple comparison skips for one shared object.
    ``compare`` ties a NaN with every number, so which of the two a ``min`` or
    ``max`` keeps depends on the order they are scanned in, and a refresh
    moves a row to the end of that order: such a write counts as a change.

    One pass over the field pairs: ``x != y`` on the fields themselves (not
    inside a tuple comparison, which skips one shared object) is true for a
    NaN, and a nested tuple is compared the same way, field by field.
    """
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        kind = type(x)
        if kind is not type(y):
            return False
        if kind is tuple:
            if not identical_fields(x, y):
                return False
        elif x != y:
            return False
    return True


def key_getter(positions: Sequence[int]) -> Callable[[PyTuple[Any, ...]], PyTuple[Any, ...]]:
    """``fields -> key`` for fixed *positions*, as :meth:`Tuple.key` builds it.

    Tables, secondary indices and aggregates extract the same positions from
    every tuple they see; an :func:`operator.itemgetter` built once does it
    without a generator per call.  (``itemgetter`` of one position returns the
    bare value and of none is an error, so those two cases are wrapped.)
    """
    positions = tuple(positions)
    if len(positions) > 1:
        return itemgetter(*positions)
    if not positions:
        return lambda fields: ()
    (position,) = positions
    return lambda fields: (fields[position],)
