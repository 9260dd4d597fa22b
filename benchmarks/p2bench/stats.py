"""Sample statistics, the output digest, and the comparison verdicts."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: percentiles a latency sample may be summarised by, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is reported only with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """Nearest rank of the *pct* percentile among *count* ordered samples."""
    # rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *samples* (need not be sorted)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def supported_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with >= 10 of *count* samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for pct in PERCENTILE_LADDER:
        if count - _rank(count, pct) >= MIN_SAMPLES_BEYOND:
            best = pct
    return best


def summarise(values: Iterable[float]) -> dict:
    """Median, quartiles and count of a host-time sample."""
    data = [float(v) for v in values]
    if not data:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(data) == 1:
        return {"median": data[0], "q1": data[0], "q3": data[0], "n": 1}
    q1, median, q3 = statistics.quantiles(data, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(data)}


def spread(summary: dict) -> float:
    """Inter-quartile range as a share of the median."""
    if not summary["n"] or not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def digest(simulated: Dict[str, object], counts: Dict[str, object]) -> str:
    """sha256 over the sorted simulated metrics and counts of one run.

    Floats go through ``repr`` (``json`` does that), so two runs agree only
    when every simulated quantity is bit-identical.
    """
    blob = json.dumps(
        {"simulated": simulated, "counts": counts}, sort_keys=True, allow_nan=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- verdicts
def _worse_by(base: float, new: float, better: str) -> float:
    """How far *new* is on the wrong side of *base*, in the metric's unit."""
    return (new - base) if better == "lower" else (base - new)


def verdict(metric: dict, base: dict, new: dict) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one row.

    *metric* is an end-to-end metric definition (``better``, ``bound``,
    ``bound_kind`` ``rel``/``abs``, ``host``); *base* and *new* are
    :func:`summarise` results.  A host metric whose inter-quartile range on
    either side exceeds its bound cannot support a verdict either way.
    """
    if base["median"] is None or new["median"] is None:
        return "same" if base["median"] == new["median"] else "worse"
    bound = metric["bound"]
    if metric["bound_kind"] == "rel":
        limit = bound * abs(base["median"])
    else:
        limit = bound
    if metric["host"] and max(spread(base), spread(new)) > bound:
        return "unresolved"
    worse = _worse_by(base["median"], new["median"], metric["better"])
    if worse > limit:
        return "worse"
    if metric["host"]:
        # a host gain must clear the same margin a regression has to
        return "better" if -worse > limit else "same"
    return "better" if worse < 0 else "same"


def ratio(base: Optional[float], new: Optional[float]) -> Optional[float]:
    if base is None or new is None or base == 0:
        return None
    return new / base


def fmt(value: Optional[float]) -> str:
    """Compact fixed-width number for the report tables."""
    if value is None:
        return "undefined"
    if isinstance(value, int) or value == 0:
        return str(int(value))
    if abs(value) >= 1000:
        return f"{value:.1f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def table(rows: List[Sequence[str]]) -> str:
    """Left-aligned text table; the first row is the header."""
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
