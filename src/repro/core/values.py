"""The P2 concrete type system.

The paper's runtime passes around reference-counted ``Value`` objects: strings,
integers, floating-point timestamps, booleans, null, and large unique
identifiers.  In Python we represent values with plain objects and centralise
the *coercion and comparison rules* here, so that the PEL virtual machine, the
table layer, and the network marshaler all agree on how values behave.

The important operations are:

* :func:`coerce` — normalise an arbitrary Python object into a P2 value.
* :func:`to_int`, :func:`to_float`, :func:`to_bool`, :func:`to_str` —
  conversions with P2 semantics (e.g. the null value converts to 0 / "" /
  False rather than raising).
* :func:`compare` — a total order across values of mixed types, needed by
  aggregates (``min``/``max``) and by table indices.
* :func:`estimate_sizes` — serialized size in bytes, used by the transport
  for maintenance-bandwidth accounting.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Tuple as PyTuple, Union

from .errors import ValueError_

#: The distinguished null value.  The paper writes it as ``"-"`` in Chord's
#: landmark/pred facts; we accept both ``NULL`` and the string "-" and treat
#: the string form as an ordinary string (the specs compare against "-"
#: explicitly), while ``NULL`` is the type-system level null.
NULL = None

ValueLike = Union[None, bool, int, float, str, bytes, PyTuple[Any, ...]]


def coerce(obj: Any) -> ValueLike:
    """Normalise *obj* into a value the rest of the system understands.

    Accepts the Python primitives used throughout the library and rejects
    anything else loudly — silent acceptance of arbitrary objects makes
    marshaling bugs very hard to find.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(coerce(x) for x in obj)
    raise ValueError_(f"cannot represent {obj!r} ({type(obj).__name__}) as a P2 value")


def to_int(value: ValueLike) -> int:
    """Convert to an integer with P2 coercion rules."""
    if type(value) is int:  # the common case first
        return value
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            raise ValueError_(f"cannot convert string {value!r} to int") from None
    raise ValueError_(f"cannot convert {value!r} to int")


def to_float(value: ValueLike) -> float:
    """Convert to a float with P2 coercion rules."""
    if value is None:
        return 0.0
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ValueError_(f"cannot convert string {value!r} to float") from None
    raise ValueError_(f"cannot convert {value!r} to float")


def to_bool(value: ValueLike) -> bool:
    """Convert to a boolean (null and empty containers are false)."""
    if value is None:
        return False
    if isinstance(value, (bool, int, float)):
        return bool(value)
    if isinstance(value, (str, bytes, tuple)):
        return len(value) > 0
    raise ValueError_(f"cannot convert {value!r} to bool")


def to_str(value: ValueLike) -> str:
    """Convert to a display string."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


def _rank(value: ValueLike) -> int:
    """Rank of a value's type in the cross-type total order."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 2
    if isinstance(value, str):
        return 3
    if isinstance(value, bytes):
        return 4
    if isinstance(value, tuple):
        return 5
    raise ValueError_(f"unknown value {value!r}")


def compare(a: ValueLike, b: ValueLike) -> int:
    """Three-way comparison defining a total order over all values.

    Values of the same numeric family compare numerically; otherwise the type
    rank decides.  This mirrors P2's ``Value::compareTo`` and is what table
    indices and ``min``/``max`` aggregates use.
    """
    ra, rb = _rank(a), _rank(b)
    if ra == 2 and rb == 2:
        # native comparison: Python's int/int and int/float orderings are
        # exact, so identifiers above 2**53 (160-bit Chord ids) stay distinct
        return (a > b) - (a < b)  # type: ignore[operator]
    if ra != rb:
        return (ra > rb) - (ra < rb)
    if a == b:
        return 0
    return 1 if a > b else -1  # type: ignore[operator]


def equal(a: ValueLike, b: ValueLike) -> bool:
    """Equality under the same rules as :func:`compare`."""
    return compare(a, b) == 0


def estimate_sizes(items: Iterable[ValueLike]) -> int:
    """Approximate marshaled size of *items* in bytes — the one place the
    format is written.

    The paper reports maintenance traffic in bytes per second; this estimator
    backs that accounting.  Each value is one tag byte plus an XDR-like
    payload: 4-byte ints, 8-byte floats, length-prefixed strings, and big
    integers in as many bytes as they need.  Runs over the fields of every
    tuple sent, so it is a single pass that tests the exact type of each
    value first.
    """
    size = 0
    for v in items:
        kind = type(v)
        if kind is int:
            nbytes = (v.bit_length() + 7) >> 3
            size += 1 + nbytes if nbytes > 4 else 5
        elif kind is str:
            size += 5 + (len(v) if v.isascii() else len(v.encode("utf-8")))
        elif kind is float:
            size += 9
        elif v is None or kind is bool:
            size += 2
        elif kind is bytes:
            size += 5 + len(v)
        elif kind is tuple:
            size += 5 + estimate_sizes(v)
        else:  # a subclass marshals as the atom it extends
            for base in (int, float, str, bytes, tuple):
                if isinstance(v, base):
                    size += estimate_sizes((base(v),))
                    break
            else:
                raise ValueError_(f"unknown value {v!r}")
    return size


def make_unique_id(seed: Iterable[Any]) -> int:
    """Derive a large unique identifier from *seed* (SHA-1 based, as Chord).

    Used both by the ``f_sha1`` OverLog built-in and by the hand-coded Chord
    baseline so that identifier assignment matches across implementations.
    """
    h = hashlib.sha1()
    for part in seed:
        h.update(to_str(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "big")
