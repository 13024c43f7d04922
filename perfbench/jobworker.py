"""Job-phase worker: one fresh interpreter that times whole ``run_job`` calls.

Started by ``perfbench/run.py``; not meant to be run by hand, but it can be::

    python3 perfbench/jobworker.py --app amber --ntasks 16 \
        --params '{"steps": 50}' --seed 1 --order on,off

It pins itself to ``--cpu`` (the simulator runs one thread at a time, so
one core removes cross-core lock handoffs), imports the stack, runs one
tiny warm-up job so lazy set-up is paid before timing, and prints
``{"ready": true}``.  The parent times set-up up to that line.  Then it
runs the job once per entry of ``--order`` (``on`` = ``IpmConfig()``,
``off`` = ``ipm=None``) and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--app", required=True)
    ap.add_argument("--ntasks", type=int, required=True)
    ap.add_argument("--params", default="{}")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--order", default="on,off")
    ap.add_argument("--cpu", type=int, default=None)
    ap.add_argument("--trace", default=None, metavar="DIR",
                    help="install the layer shims and write each job's "
                         "spans to DIR/job-<mode>.spans.jsonl")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        import shims

        tracer = shims.Tracer()
        shims.install_job_shims(tracer)

    from repro import IpmConfig, JobSpec, run_job
    from repro.sweep.cache import pickle_report

    run_job(JobSpec(app="square", ntasks=2, ipm=IpmConfig()))
    print(json.dumps({"ready": True}), flush=True)

    out = {}
    for mode in args.order.split(","):
        spec = JobSpec(
            app=args.app,
            ntasks=args.ntasks,
            app_params=json.loads(args.params),
            ipm=IpmConfig() if mode == "on" else None,
            seed=args.seed,
        )
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        result = run_job(spec)
        job_s = time.perf_counter() - t0
        rec = {
            "job_s": job_s,
            "wallclock": result.wallclock,
            "events": result.events_executed,
        }
        if result.report is not None:
            rec["digest"] = hashlib.sha256(
                pickle_report(result.report)
            ).hexdigest()
            rec["calls"] = sum(
                row[1] for task in result.report.tasks
                for row in task.table.iter_rows()
            )
        if tracer is not None:
            rec["layers"] = shims.job_layers(tracer, job_s,
                                             result.events_executed)
            tracer.write_spans(
                os.path.join(args.trace, f"job-{mode}.spans.jsonl"))
        out[mode] = rec
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
