"""Aggregate functions available in OverLog heads (``min<>``, ``max<>``, ...).

Each aggregate is defined once, as a left :class:`Fold` over a group's
matches in derivation order.  :class:`~repro.dataflow.operators.Aggregate`
(the interpreted oracle) and the code the strand compiler generates both run
that fold a match at a time, so neither holds a group's rows.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple

from ..core import values
from ..core.errors import DataflowError


class Fold(NamedTuple):
    """``first(item)`` opens a group's state, ``step(state, item)`` absorbs
    the next match, ``result(state)`` is the group's value."""

    first: Callable[[Any], Any]
    step: Callable[[Any, Any], Any]
    result: Callable[[Any], Any] = lambda state: state


def _add(total: Any, item: Any) -> Any:
    # int + int stays in integers: identifiers above 2**53 must not round
    # (a bool is not an exact int: it makes the sum a float)
    if isinstance(total, int) and isinstance(item, int) and not isinstance(item, bool):
        return total + item
    return total + values.to_float(item)


#: ``min``/``max`` replace the best only on a strict win, so the earliest of
#: several equal values (``1``, ``1.0``) is the one kept
FOLDS: Dict[str, Fold] = {
    "min": Fold(lambda v: v, lambda best, v: v if values.compare(v, best) < 0 else best),
    "max": Fold(lambda v: v, lambda best, v: v if values.compare(v, best) > 0 else best),
    "count": Fold(lambda v: 1, lambda n, v: n + 1),
    "sum": Fold(lambda v: _add(0, v), _add),
    "avg": Fold(
        lambda v: (_add(0, v), 1),
        lambda state, v: (_add(state[0], v), state[1] + 1),
        lambda state: state[0] / state[1],
    ),
}

#: Aggregates that have a meaningful value on an empty group (only count).
EMPTY_GROUP_VALUE = {"count": 0}


def get_fold(name: str) -> Fold:
    try:
        return FOLDS[name]
    except KeyError:
        raise DataflowError(f"unknown aggregate function {name!r}") from None
