"""Sweep phase: one fresh interpreter running a cold and a warm sweep.

Started by ``perfbench/run.py``.  It pins itself to the last core of
``--cpus`` and, through ``os.register_at_fork``, gives each forked sweep
worker a core of its own.  After imports it prints ``{"ready": true}``
(the parent times set-up up to that line), then runs the specs in
``--specs`` (a JSON list of ``JobSpec.to_json()`` strings) through
``SweepRunner(workers=2, cache=ResultCache(--cache))``: once cold,
which simulates and stores every spec, then ``--warm-passes`` times
warm, each with a fresh runner and cache object over the same
directory, which read every result back.  It prints one JSON result
line with the timings and what the parent needs to check the results.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _pin_forked_workers(cpus) -> None:
    forks = [0]

    def before() -> None:
        forks[0] += 1

    def after_in_child() -> None:
        os.sched_setaffinity(0, {cpus[(forks[0] - 1) % len(cpus)]})

    os.register_at_fork(before=before, after_in_child=after_in_child)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--specs", required=True)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--cpus", default=None)
    ap.add_argument("--warm-passes", type=int, default=10)
    ap.add_argument("--trace", default=None, metavar="DIR",
                    help="install the sweep shims and write totals and "
                         "spans of this process and its workers here")
    args = ap.parse_args()
    if args.cpus:
        cpus = [int(c) for c in args.cpus.split(",")]
        os.sched_setaffinity(0, {cpus[-1]})
        _pin_forked_workers(cpus)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        import shims

        os.makedirs(args.trace, exist_ok=True)
        tracer = shims.Tracer()
        shims.install_sweep_shims(tracer, args.trace)

    from repro import JobSpec, SweepRunner
    from repro.sweep.cache import ResultCache

    with open(args.specs, encoding="utf-8") as fh:
        specs = [JobSpec.from_json(text) for text in json.load(fh)]
    print(json.dumps({"ready": True}), flush=True)

    t0 = time.perf_counter()
    with SweepRunner(workers=2, cache=ResultCache(args.cache)) as runner:
        cold = runner.run(specs)
    cold_s = time.perf_counter() - t0
    out = {
        "cold_s": cold_s,
        "statuses": [r.status for r in cold.results],
        "result_bytes": sum(len(r.report_pickle) for r in cold.results),
        "warm_s": [],
        "warm_hits": [],
        "warm_same": [],
    }
    if tracer is not None:
        out["cold_totals"] = tracer.totals()
        tracer.reset()
    for _ in range(args.warm_passes):
        cache = ResultCache(args.cache)
        t0 = time.perf_counter()
        with SweepRunner(workers=2, cache=cache) as runner:
            warm = runner.run(specs)
        out["warm_s"].append(time.perf_counter() - t0)
        out["warm_hits"].append(cache.hits)
        out["warm_same"].append(sum(
            w.report_pickle == c.report_pickle and w.status == "ok"
            for w, c in zip(warm.results, cold.results)
        ))
    out["warm_lookups"] = len(specs) * args.warm_passes
    if tracer is not None:
        out["warm_totals"] = tracer.totals()
        out["worker_totals"] = []
        for path in glob.glob(os.path.join(args.trace, "sweep-worker-*.json")):
            with open(path, encoding="utf-8") as fh:
                out["worker_totals"].append(json.load(fh))
        tracer.write_spans(os.path.join(args.trace, "sweep-process.spans.jsonl"))
    out["maxrss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
