"""Regenerate ``pinned.json``: the simulated results every run checks.

Run from the repository root when a change is *meant* to alter
simulated results (a change that only speeds the simulator up must
leave them byte-identical)::

    python3 perfbench/pin.py

For each workload's job and each job seed it records the monitored
run's ``JobReport`` pickle digest, virtual wallclock and monitored call
count, and the unmonitored run's wallclock (``run.PINNED_KEYS``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import JOB_SEEDS, PINNED_KEYS, WORKLOADS  # noqa: E402


def main() -> int:
    pinned = {}
    for workload, cfg in WORKLOADS.items():
        pinned[workload] = {}
        for seed in JOB_SEEDS:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "jobworker.py"),
                 "--app", cfg["app"], "--ntasks", str(cfg["ntasks"]),
                 "--params", json.dumps(cfg["params"]), "--seed", str(seed),
                 "--order", "on,off"],
                check=True, capture_output=True, text=True,
            ).stdout.splitlines()[-1]
            result = json.loads(out)
            pinned[workload][str(seed)] = {
                mode: {k: result[mode][k] for k in keys}
                for mode, keys in PINNED_KEYS.items()
            }
            print(workload, seed, pinned[workload][str(seed)], flush=True)
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
