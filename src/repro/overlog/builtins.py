"""Built-in OverLog functions (the ``f_*`` namespace).

The paper's OverLog uses a small set of built-ins (``f_now``, ``f_rand``,
``f_coinFlip``, ...).  Each built-in is a Python callable receiving the PEL
:class:`~repro.pel.vm.EvalContext` first, so it can reach the hosting node's
clock, random source, address, and identifier space — all of which come from
the simulator, keeping programs deterministic under a fixed seed.

Ring-arithmetic helpers (``f_dist``, ``f_wrap``, ``f_pow2``, ``f_fingerKey``)
are additions this reproduction makes explicit: the paper's appendix writes
modular identifier arithmetic with ordinary ``+``/``-``/``<<`` and relies on
the C++ Value semantics; here the spec text names the ring operations, which
keeps the Chord rules unambiguous whatever the width of the identifier space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..core import values
from ..core.errors import PELError

if TYPE_CHECKING:  # the PEL machine imports this module's defaults
    from ..pel.vm import EvalContext

BuiltinFunction = Callable[..., Any]


def _require_node(ctx: EvalContext, name: str) -> Any:
    if ctx.node is None:
        raise PELError(f"built-in {name} needs a hosting node context")
    return ctx.node


def f_now(ctx: EvalContext) -> float:
    """Current wall-clock time at the local node (simulated seconds)."""
    node = ctx.node
    return float(node.now()) if node is not None else 0.0


def f_rand(ctx: EvalContext) -> float:
    """Uniform random float in [0, 1) from the node's seeded generator."""
    node = _require_node(ctx, "f_rand")
    return node.rng.random()


def f_coinFlip(ctx: EvalContext, probability: Any) -> bool:
    """True with the given probability."""
    node = _require_node(ctx, "f_coinFlip")
    return node.rng.random() < values.to_float(probability)


def f_randInt(ctx: EvalContext, low: Any, high: Any) -> int:
    """Uniform random integer in [low, high]."""
    node = _require_node(ctx, "f_randInt")
    return node.rng.randint(values.to_int(low), values.to_int(high))


def f_sha1(ctx: EvalContext, value: Any) -> int:
    """SHA-1 based identifier of *value*, reduced into the node's id space."""
    return ctx.idspace.wrap(values.make_unique_id([value]))


def f_localAddr(ctx: EvalContext) -> Any:
    """The local node's network address."""
    node = _require_node(ctx, "f_localAddr")
    return node.address


def f_localId(ctx: EvalContext) -> int:
    """The local node's overlay identifier (if the runtime assigned one)."""
    node = _require_node(ctx, "f_localId")
    ident = getattr(node, "node_id", None)
    if ident is None:
        raise PELError("node has no overlay identifier")
    return ident


# -- ring arithmetic -----------------------------------------------------------
# Ring identifiers are exact ``int``s all but always, and generated code
# computes f_wrap, f_dist and f_fingerKey over ints (and f_now) in place, as
# :data:`repro.pel.vm.BUILTIN_FORMS` writes them, while a node's registry
# still holds the very function defined here: the two must stay equal.  The
# call, and so any other atom, goes through ``values.to_int`` and IdSpace.

def f_wrap(ctx: EvalContext, value: Any) -> int:
    """Reduce an integer into the identifier space."""
    return ctx.idspace.wrap(values.to_int(value))


def f_pow2(ctx: EvalContext, exponent: Any) -> int:
    """2**exponent (finger spacing)."""
    return 1 << values.to_int(exponent)


def f_dist(ctx: EvalContext, frm: Any, to: Any) -> int:
    """Clockwise ring distance from *frm* to *to*."""
    return ctx.idspace.distance(values.to_int(frm), values.to_int(to))


def f_fingerKey(ctx: EvalContext, ident: Any, index: Any) -> int:
    """The Chord finger target ``ident + 2**index`` on the ring."""
    return ctx.idspace.finger_target(values.to_int(ident), values.to_int(index))


# -- conversions / misc --------------------------------------------------------

def f_str(ctx: EvalContext, value: Any) -> str:
    return values.to_str(value)


def f_int(ctx: EvalContext, value: Any) -> int:
    return values.to_int(value)


def f_float(ctx: EvalContext, value: Any) -> float:
    return values.to_float(value)


def f_max(ctx: EvalContext, a: Any, b: Any) -> Any:
    return a if values.compare(a, b) >= 0 else b


def f_min(ctx: EvalContext, a: Any, b: Any) -> Any:
    return a if values.compare(a, b) <= 0 else b


DEFAULT_BUILTINS: Dict[str, BuiltinFunction] = {
    "f_now": f_now,
    "f_rand": f_rand,
    "f_coinFlip": f_coinFlip,
    "f_randInt": f_randInt,
    "f_sha1": f_sha1,
    "f_localAddr": f_localAddr,
    "f_localId": f_localId,
    "f_wrap": f_wrap,
    "f_pow2": f_pow2,
    "f_dist": f_dist,
    "f_fingerKey": f_fingerKey,
    "f_str": f_str,
    "f_int": f_int,
    "f_float": f_float,
    "f_max": f_max,
    "f_min": f_min,
}


def make_builtins(extra: Optional[Dict[str, BuiltinFunction]] = None) -> Dict[str, BuiltinFunction]:
    """The default registry, optionally extended with application built-ins."""
    registry = dict(DEFAULT_BUILTINS)
    if extra:
        registry.update(extra)
    return registry


# -- static signatures ---------------------------------------------------------
#
# Type signatures for the static analyzer (:mod:`repro.overlog.check`).  Each
# entry maps a built-in name to ``(arg_types, result_type)`` over the abstract
# types the type-inference pass unifies:
#
# * ``"num"``  — int or float
# * ``"str"``  — string
# * ``"bool"`` — boolean
# * ``"addr"`` — a network address (a string at runtime, but kept distinct so
#   location specifiers can be checked)
# * ``"any"``  — unconstrained argument
# * ``"T"``    — polymorphic: all ``"T"`` positions (and the result, if
#   ``"T"``) unify with each other
#
# The analyzer checks call arity against ``len(arg_types)`` (OLG016) and warns
# about names absent from this table (OLG015).

BUILTIN_SIGNATURES: Dict[str, tuple] = {
    "f_now": ((), "num"),
    "f_rand": ((), "num"),
    "f_coinFlip": (("num",), "bool"),
    "f_randInt": (("num", "num"), "num"),
    "f_sha1": (("any",), "num"),
    "f_localAddr": ((), "addr"),
    "f_localId": ((), "num"),
    "f_wrap": (("num",), "num"),
    "f_pow2": (("num",), "num"),
    "f_dist": (("num", "num"), "num"),
    "f_fingerKey": (("num", "num"), "num"),
    "f_str": (("any",), "str"),
    "f_int": (("any",), "num"),
    "f_float": (("any",), "num"),
    "f_max": (("T", "T"), "T"),
    "f_min": (("T", "T"), "T"),
}
