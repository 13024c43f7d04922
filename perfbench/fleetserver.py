"""Fleet-head launcher: ``python -m repro fleet serve`` in a pinned process.

Started by ``perfbench/run.py``::

    python3 perfbench/fleetserver.py --cpu 0 --stats STATS.json \
        [--trace SPANS.jsonl] -- fleet serve --data-dir D --announce A

Everything after ``--`` goes to the ``repro`` command line unchanged.
With ``--trace`` the fleet shims are installed first.  When the server
stops (SIGTERM drains it like Ctrl-C) the launcher writes ``--stats``:
its peak RSS and, when traced, the span totals and the store counters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int, default=None)
    ap.add_argument("--stats", required=True)
    ap.add_argument("--trace", default=None, metavar="SPANS_FILE")
    args = ap.parse_args(argv[:split])
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    tracer = stores = None
    if args.trace:
        sys.path.insert(0, HERE)
        import shims

        tracer = shims.Tracer()
        stores = shims.install_fleet_shims(tracer)

    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv[split + 1:])
    finally:
        stats = {
            "maxrss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            stats["totals"] = tracer.totals()
            if stores:
                store = stores[-1]
                stats["store"] = {
                    "records": store.records,
                    "duplicates": store.dup_records,
                    "parse_errors": store.parse_errors,
                    "replayed": store.history_replayed,
                }
            tracer.write_spans(args.trace)
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main())
