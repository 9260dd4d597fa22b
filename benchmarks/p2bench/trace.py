"""Phase spans and profile attribution for the traced run.

Two kinds of span, both recorded from the benchmark's own files:

* *phase spans* — :class:`SpanRecorder` wraps the driver's calls into the
  engine (``setup.parse`` … ``run.drain``); each is ``{name, parent, start,
  end, cpu_s}`` plus, once a simulation exists, the simulated seconds and the
  count deltas it covered.  Spans nest by ``with`` blocks, so a span's *self time*
  is its duration minus its direct children's (:func:`self_times`).
* *function spans* — every function the stdlib profiler saw during the
  profiled slice, with its ``tottime`` as self time, bucketed into a layer
  by the path of the file that defines it (:func:`layer_of`).

Spans stay in memory; the child process writes them out once, at exit.
"""

# det: allow(DET001, file): the recorder's clock is the measurement itself
# (host seconds per phase); it never feeds simulated time or an RNG stream.

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from .spec import LAYERS

#: ``src/repro/<package>`` -> layer; files listed in _FILE_LAYERS override.
_PACKAGE_LAYERS = {
    "overlog": "overlog",
    "planner": "planner",
    "dataflow": "dataflow",
    "pel": "pel",
    "core": "core",
    "tables": "tables",
    "runtime": "runtime",
    "net": "net.transport",
    "sim": "sim",
    # overlay glue (traffic classifier, join helpers) and result plumbing run
    # on behalf of the harness, not of a rule
    "overlays": "harness",
    "experiments": "harness",
    "analysis": "harness",
}
_FILE_LAYERS = {
    "net/reliable.py": "net.reliable",
    "sim/faults.py": "sim.faults",
    "sim/metrics.py": "harness",
    "sim/workload.py": "harness",
    "sim/churn.py": "harness",
    "sim/monitors.py": "harness",
    # f_now/f_dist/... are PEL's call targets; the parser does not run here
    "overlog/builtins.py": "pel",
}
#: metric -> (file suffix, function name) of the calls ROADMAP item 5 counts
#: per dispatch
COUNTED_CALLS = {
    "core.tuple_builds_per_dispatch": ("core/tuples.py", "__init__"),
    "core.coerce_per_dispatch": ("core/values.py", "coerce"),
    "core.compare_per_dispatch": ("core/values.py", "compare"),
    "pel.steps_per_dispatch": ("pel/vm.py", "step"),
}


def layer_of(path: str) -> str:
    """The layer a source file's self time is charged to."""
    norm = path.replace("\\", "/")
    cut = norm.rfind("/repro/")
    if cut >= 0:
        inner = norm[cut + len("/repro/"):]
        if inner in _FILE_LAYERS:
            return _FILE_LAYERS[inner]
        package = inner.split("/", 1)[0]
        if "/" in inner and package in _PACKAGE_LAYERS:
            return _PACKAGE_LAYERS[package]
    if "/benchmarks/p2bench/" in norm:
        return "harness"
    return "other"


class SpanRecorder:
    """Nested phase spans with optional simulated-time and count deltas."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self._clock = clock
        self.spans: List[dict] = []
        self._open: List[dict] = []

    def begin(self, name: str, probe=None, start: Optional[float] = None) -> dict:
        """Open *name* under the innermost open span.

        *probe* is a zero-argument callable returning ``{"simulated_s": now,
        <count>: value, ...}``; the span stores the difference between its
        two readings.  *start* backdates the span (process entry).
        """
        span = {
            "run": self.run_id,
            "name": name,
            "parent": self._open[-1]["name"] if self._open else None,
            "start": self._clock() if start is None else start,
            "end": None,
            "cpu_s": time.process_time(),
        }
        if probe is not None:
            span["_probe"] = probe
            span["_before"] = probe()
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, name: str) -> dict:
        span = self._open.pop()
        if span["name"] != name:
            raise RuntimeError(f"span {name!r} closed while {span['name']!r} is innermost")
        span["end"] = self._clock()
        span["cpu_s"] = time.process_time() - span["cpu_s"]
        probe = span.pop("_probe", None)
        if probe is not None:
            before, after = span.pop("_before"), probe()
            span["simulated_s"] = after.pop("simulated_s") - before.pop("simulated_s")
            span["counts"] = {key: after[key] - before[key] for key in after}
        return span

    @contextmanager
    def span(self, name: str, probe=None) -> Iterator[dict]:
        span = self.begin(name, probe)
        try:
            yield span
        finally:
            self.end(name)

    def find(self, name: str) -> dict:
        """The (single) span called *name*."""
        (span,) = [s for s in self.spans if s["name"] == name]
        return span

    def duration(self, name: str) -> float:
        """Host seconds of the closed span called *name*."""
        span = self.find(name)
        return span["end"] - span["start"]


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per span: duration minus what its direct children cover."""
    own = {s["name"]: s["end"] - s["start"] for s in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def attribute_profile(stats, dispatches: int) -> dict:
    """Bucket ``cProfile.Profile.getstats()`` entries into layers.

    The profiler must have run with ``builtins=False``: C-call time then
    lands in the ``inlinetime`` of the Python function that made the call,
    i.e. in the calling layer.  Functions without a source file (the
    ``__init__``/``__lt__`` that ``dataclass`` generates, compiled from
    ``<string>``) are charged to the layer that called them, through the
    profiler's per-caller sub-entries.  Returns the self-time shares (summing
    to 1), the counted calls per dispatch, and every function as a span.
    """
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    counted = dict.fromkeys(COUNTED_CALLS, 0)
    functions = []
    for entry in stats:
        code = entry.code
        if isinstance(code, str):  # a builtin: only present with builtins=True
            path, line, name = "~", 0, code
        else:
            path, line, name = code.co_filename, code.co_firstlineno, code.co_name
        sourceless = path.startswith("<")
        layer = "(caller)" if sourceless else layer_of(path)
        if not sourceless:
            self_by_layer[layer] += entry.inlinetime
            for sub in entry.calls or ():
                callee = sub.code
                if not isinstance(callee, str) and callee.co_filename.startswith("<"):
                    self_by_layer[layer] += sub.inlinetime
            norm = path.replace("\\", "/")
            for key, (suffix, func) in COUNTED_CALLS.items():
                if name == func and norm.endswith("/repro/" + suffix):
                    counted[key] += entry.callcount
        functions.append(
            {
                "layer": layer,
                "function": f"{path}:{line}({name})",
                "calls": entry.callcount,
                "self_s": entry.inlinetime,
                "total_s": entry.totaltime,
            }
        )
    # a source-less function called from another one has no layer to go to
    total = sum(f["self_s"] for f in functions)
    self_by_layer["other"] += total - sum(self_by_layer.values())
    functions.sort(key=lambda f: (-f["self_s"], f["function"]))
    return {
        "self_share": {
            layer: (value / total if total else 0.0)
            for layer, value in self_by_layer.items()
        },
        "self_s": total,
        "dispatches": dispatches,
        "per_dispatch": {
            key: (count / dispatches if dispatches else 0.0)
            for key, count in counted.items()
        },
        "functions": functions,
    }
