"""Tier-1 tests of the benchmark's own logic (collected by the plain pytest run).

Nothing here measures anything: the statistics, the span arithmetic, the
path bucketing, the engine-API list and the determinism of the four drivers
are checked on inputs small enough to finish in a few seconds.
"""

from __future__ import annotations

import cProfile
import dataclasses
import inspect
import json
import os
import re

import pytest

from benchmarks.p2bench import adapter, hostspeed, spec, stats, trace, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ------------------------------------------------------------------ statistics
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (480, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.supported_percentile(count) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50.0) == 50
    assert stats.percentile(samples, 95.0) == 95
    assert stats.percentile([7.0], 99.0) == 7.0
    assert len([s for s in samples if s > stats.percentile(samples, 90.0)]) == 10
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_digest_is_order_free_and_bit_exact():
    a = stats.digest({"x": 0.1 + 0.2, "y": 1}, {"n": 3})
    assert a == stats.digest({"y": 1, "x": 0.1 + 0.2}, {"n": 3})
    assert a != stats.digest({"x": 0.3, "y": 1}, {"n": 3})  # 0.30000000000000004 != 0.3


def test_verdicts_follow_the_bounds():
    by_name = {m["name"]: m for m in spec.END_TO_END}
    host = by_name["node_s_per_s"]  # higher is better, 10 % relative
    steady = lambda m: {"median": m, "q1": m * 0.99, "q3": m * 1.01, "n": 5}  # noqa: E731
    assert stats.verdict(host, steady(1000.0), steady(1040.0)) == "same"
    assert stats.verdict(host, steady(1000.0), steady(880.0)) == "worse"
    assert stats.verdict(host, steady(1000.0), steady(1200.0)) == "better"
    noisy = {"median": 880.0, "q1": 800.0, "q3": 960.0, "n": 5}
    assert stats.verdict(host, steady(1000.0), noisy) == "unresolved"
    share = by_name["fail_share"]  # lower is better, +0.01 absolute
    exact = lambda v: {"median": v, "q1": v, "q3": v, "n": 5}  # noqa: E731
    assert stats.verdict(share, exact(0.0), exact(0.0)) == "same"
    assert stats.verdict(share, exact(0.0), exact(0.008)) == "same"
    assert stats.verdict(share, exact(0.0), exact(0.02)) == "worse"
    assert stats.verdict(share, exact(0.5), exact(0.4)) == "better"
    undefined = by_name["mean_hops"]
    assert stats.verdict(undefined, exact(None), exact(None)) == "same"


# ------------------------------------------------------------------ spans
def test_span_self_time_is_duration_minus_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 10.0, 12.0])
    rec = trace.SpanRecorder("t", clock=lambda: next(ticks))
    with rec.span("run"):                 # 0 .. 12
        with rec.span("run.join"):        # 1 .. 5
            with rec.span("run.join.x"):  # 2 .. 4
                pass
        with rec.span("run.measure"):     # 9 .. 10
            pass
    own = trace.self_times(rec.spans)
    assert own == {"run": 12 - 4 - 1, "run.join": 4 - 2, "run.join.x": 2, "run.measure": 1}
    assert sum(own.values()) == rec.duration("run")
    parents = {s["name"]: s["parent"] for s in rec.spans}
    assert parents == {"run": None, "run.join": "run", "run.join.x": "run.join",
                       "run.measure": "run"}


def test_span_probe_records_simulated_time_and_count_deltas():
    state = {"simulated_s": 10.0, "sim.events": 5}
    rec = trace.SpanRecorder("t")
    with rec.span("run", probe=lambda: dict(state)) as span:
        state.update({"simulated_s": 30.0, "sim.events": 12})
    assert span["simulated_s"] == 20.0 and span["counts"] == {"sim.events": 7}
    with pytest.raises(RuntimeError):
        rec.begin("a")
        rec.end("b")


# ------------------------------------------------------------------ bucketing
@pytest.mark.parametrize(
    "path, layer",
    [
        ("/x/src/repro/core/tuples.py", "core"),
        ("/x/src/repro/pel/vm.py", "pel"),
        ("/x/src/repro/overlog/builtins.py", "pel"),
        ("/x/src/repro/overlog/parser.py", "overlog"),
        ("/x/src/repro/planner/strand_compiler.py", "planner"),
        ("/x/src/repro/dataflow/operators.py", "dataflow"),
        ("/x/src/repro/tables/table.py", "tables"),
        ("/x/src/repro/runtime/node.py", "runtime"),
        ("/x/src/repro/net/transport.py", "net.transport"),
        ("/x/src/repro/net/reliable.py", "net.reliable"),
        ("/x/src/repro/sim/event_loop.py", "sim"),
        ("/x/src/repro/sim/faults.py", "sim.faults"),
        ("/x/src/repro/sim/metrics.py", "harness"),
        ("/x/src/repro/overlays/chord.py", "harness"),
        ("/x/benchmarks/p2bench/workloads.py", "harness"),
        ("/repro/benchmarks/p2bench/workloads.py", "harness"),  # a checkout named repro
        ("/usr/lib/python3.11/random.py", "other"),
        ("<string>", "other"),
    ],
)
def test_path_to_layer(path, layer):
    assert trace.layer_of(path) == layer
    assert layer in spec.LAYERS


def test_profile_attribution_sums_to_one_and_counts_calls():
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    for i in range(200):
        adapter.Tuple.make("succ", "n", i)
    profiler.disable()
    profile = trace.attribute_profile(profiler.getstats(), dispatches=100)
    assert abs(sum(profile["self_share"].values()) - 1.0) < 1e-9
    assert profile["self_share"]["core"] > 0.5
    assert profile["per_dispatch"]["core.tuple_builds_per_dispatch"] == 2.0
    assert profile["per_dispatch"]["core.coerce_per_dispatch"] == 4.0  # 2 fields


# ------------------------------------------------------------------ engine API
@pytest.mark.parametrize("dotted", sorted(adapter.API))
def test_adapter_api_matches_live_signatures(dotted):
    target = adapter
    for part in dotted.split("."):
        target = getattr(target, part)
    parameters = inspect.signature(target).parameters
    open_ended = any(p.kind is p.VAR_KEYWORD for p in parameters.values())
    for name in adapter.API[dotted]:
        assert open_ended or name in parameters, f"{dotted} lost parameter {name!r}"


def test_only_the_adapter_imports_the_engine():
    package = os.path.dirname(os.path.abspath(__file__))
    engine_import = re.compile(r"\s*(import|from)\s+repro\b")
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py") and filename != "adapter.py":
            with open(os.path.join(package, filename), encoding="utf-8") as fh:
                offenders = [line.strip() for line in fh if engine_import.match(line)]
            assert not offenders, f"{filename}: {offenders}"


# ------------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer", "run_seconds",
                           "workloads"]
    assert doc["run_seconds"] == spec.REFERENCE_SECONDS
    assert doc["paths"] == ["benchmarks/p2bench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert doc["end_to_end"] == list(spec.CONTRACT_END_TO_END)
    assert doc["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in spec.PER_LAYER.items()
    ]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS.values())


# ------------------------------------------------------------------ drivers
def _tiny(name: str) -> spec.Workload:
    """4 nodes, 20 simulated seconds, same shape as the full workload."""
    full = spec.WORKLOADS[name]
    if full.overlay == "narada":
        return dataclasses.replace(full, population=4, stabilise_s=8.0, measure_s=12.0,
                                   slice_s=6.0, pace_s=4.0)
    idle = 3.0 if full.idle_s else 0.0
    return dataclasses.replace(
        full, population=4, stabilise_s=6.0, idle_s=idle, measure_s=9.0 - idle,
        drain_s=1.0, slice_s=3.0, pace_s=3.0, session_s=12.0 if full.session_s else 0.0,
    )


def _run_tiny(name: str, seed: int):
    rec = trace.SpanRecorder(name)
    rec.begin("setup")
    tiny = _tiny(name)
    overlay = workloads.build(tiny, seed, rec)
    return workloads.run(tiny, seed, rec, overlay, hostspeed.HostSpeed()), rec


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_driver_smoke_and_digest_repeats(name, monkeypatch):
    monkeypatch.setattr(workloads, "PACE_SAMPLE_S", 0.0)  # one kernel chunk per step
    (first, rec), (second, _) = _run_tiny(name, 7), _run_tiny(name, 7)
    assert rec.duration("setup") > 0.0 and rec.duration("run") > 0.0
    assert {"setup.parse", "setup.check", "setup.build", "run.measure",
            "run.measure.slice"} <= {s["name"] for s in rec.spans}
    assert first["simulated"]["simulated_s"] == 20.0
    assert first["digest"] == second["digest"]
    pacer = first["pacer"]
    assert 0.0 < pacer.slice_wall_s < pacer.wall_s < rec.duration("run")
    assert pacer.reference_s > 0.0
    assert first["counts"]["runtime.dispatches"] > 0
    assert set(first["counts"]) == set(spec.COUNTS)
    reliable = [v for k, v in first["counts"].items() if k.startswith("net.reliable.")]
    assert any(reliable) == spec.WORKLOADS[name].lossy
    assert _run_tiny(name, 8)[0]["digest"] != first["digest"]


def test_reference_kernel_is_frozen():
    # the checksum pins the kernel's work: editing it moves every baseline
    meter = hostspeed.HostSpeed()
    meter.kernel(2)
    assert meter.checksum == 326862180
    assert meter.sample(0.0) > 0.0


def test_scaling_stretches_every_phase_and_nothing_else():
    full = spec.WORKLOADS["chord_lossy"]
    half = full.scaled(0.5)
    assert (half.stabilise_s, half.idle_s, half.measure_s, half.drain_s, half.slice_s,
            half.pace_s) == (60.0, 15.0, 120.0, 15.0, 60.0, 10.0)
    assert (half.population, half.lookup_rate, half.timers) == (
        full.population, full.lookup_rate, full.timers)
    assert full.scaled(1.0) is full
