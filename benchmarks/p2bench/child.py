"""Child-process entry: one job per fresh interpreter, one JSON line out.

The parent (:mod:`.cli`) never imports the engine; it starts this module
with ``python -m benchmarks.p2bench.child '<job json>'`` once per
repetition, so every run pays the same import, sees the same empty caches
and reports its own ``ru_maxrss``.  Jobs: ``workload`` (untraced, traced or
set-up only), ``probes`` and ``shards``.
"""

# det: allow(DET001, file): the child reads the wall and CPU clocks because
# host time per phase is what it measures; nothing read here reaches the
# simulation, whose clock is the event loop's and whose RNGs take --seed.

from __future__ import annotations

import time

#: process entry, read before anything of the engine is imported
T_ENTRY = time.perf_counter()

import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from .hostspeed import HostSpeed  # noqa: E402
from .spec import REFERENCE_SECONDS, WORKLOADS  # noqa: E402
from .trace import SpanRecorder, attribute_profile, self_times  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: host seconds of reference kernel right after set-up
SETUP_SAMPLE_S = 0.25


def workload_job(job: dict) -> dict:
    """Run one workload once; ``job`` has workload, seed, seconds, mode."""
    mode = job.get("mode", "untraced")  # untraced | traced | setup
    rec = SpanRecorder(run_id=f"{job['workload']}:{job['seed']}:{mode}")
    rec.begin("setup", start=T_ENTRY)
    with rec.span("setup.import"):
        from . import workloads
    spec = WORKLOADS[job["workload"]]
    spec = spec.scaled(job["seconds"] / REFERENCE_SECONDS)
    overlay = workloads.build(spec, job["seed"], rec)
    # host times are stated at reference host speed (hostspeed.py): set-up by
    # a sample taken right after it, the run step by step by its pacer
    meter = HostSpeed()
    speed = meter.sample(SETUP_SAMPLE_S)
    raw = {"setup_s": rec.duration("setup"), "setup_host_speed": speed}
    host = {"setup_s": raw["setup_s"] * speed, "raw": raw}
    if mode == "setup":
        return {"workload": spec.name, "seed": job["seed"], "mode": mode, "host": host}
    profiler = cProfile.Profile(builtins=False) if mode == "traced" else None
    result = workloads.run(spec, job["seed"], rec, overlay, meter, profiler)
    pacer = result.pop("pacer")

    run = rec.find("run")
    node_s = spec.population * run["simulated_s"]
    raw.update(
        run_wall_s=pacer.wall_s,
        slice_wall_s=pacer.slice_wall_s,
        node_s_per_s=node_s / pacer.wall_s,
    )
    host.update(
        run_wall_s=pacer.reference_s,
        slice_wall_s=pacer.slice_reference_s,
        node_s_per_s=node_s / pacer.reference_s,
        host_speed=pacer.reference_s / pacer.wall_s,
        # the run span also holds the kernel samples: both clocks include them
        host_steal_share=max(0.0, 1.0 - run["cpu_s"] / (run["end"] - run["start"])),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    result.update(workload=spec.name, seed=job["seed"], mode=mode, host=host)
    if profiler is not None:
        profile = attribute_profile(
            profiler.getstats(),
            rec.find("run.measure.slice")["counts"]["runtime.dispatches"],
        )
        functions = profile.pop("functions")
        result["profile"] = profile
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace_{spec.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"run": rec.run_id, "digest": result["digest"], "spans": rec.spans,
                 "span_self_s": self_times(rec.spans), "profile": profile,
                 "functions": functions},
                fh, indent=1,
            )
        result["trace_file"] = os.path.relpath(path)  # the parent starts us at the root
    return result


def main(argv=None) -> int:
    job = json.loads((sys.argv[1:] if argv is None else argv)[0])
    if job["kind"] == "workload":
        result = workload_job(job)
    else:
        from . import probes

        if job["kind"] == "shards":
            result = probes.shards_probe(job["seed"], HostSpeed())
        else:
            result = probes.run_all(HostSpeed())
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
