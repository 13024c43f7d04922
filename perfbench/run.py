"""End-to-end benchmark: monitored job wall time, sweep turnaround, fleet ingest.

Run from the repository root::

    python3 perfbench/run.py --workload amber16 --seed 1 --seconds 40 --trace 0

Every workload drives the public surfaces from outside, in three
phases, each in fresh processes started from here:

* **job** — ``repro.run_job(JobSpec)`` of the workload's application,
  once with ``IpmConfig()`` and once with ``ipm=None``, in a worker
  pinned to one core (``jobworker.py``);
* **sweep** — small monitored specs through ``SweepRunner(workers=2,
  cache=ResultCache(dir))``, cold then warm (``sweepworker.py``);
* **fleet** — a ``fleet serve --data-dir`` head (``fleetserver.py``)
  fed by one acknowledged publisher connection in a closed loop, then
  an open loop at half the closed loop's throughput with one HTTP
  client querying, then restarted on the same data dir to time replay.

The phases run in turn (job, sweep, fleet, job, ...) until ``--seconds``
are spent.

The two workloads differ in the job phase: ``amber16`` is bound by
``simt`` handoffs and ``core`` charges, ``paratec32`` by the ``cuda``
substrate.  Simulated results are deterministic, so every run checks
them (job report digests, virtual wallclock and call counts pinned in
``pinned.json``; sweep statuses and cold/warm bytes; fleet acks,
counts and replay) and counts each mismatch as a failed operation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
phase once with the layer shims of ``shims.py`` and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

#: the job phase of each workload (everything else is shared).
WORKLOADS = {
    "amber16": {"app": "amber", "ntasks": 16, "params": {"steps": 50}},
    "paratec32": {"app": "paratec", "ntasks": 32, "params": {"iterations": 4}},
}

#: job-spec seeds the pinned results exist for; --seed picks one.
JOB_SEEDS = (1, 2, 3, 4)

#: the simulated results of each job mode that must equal pinned.json.
#: Events executed are reported (simt.events) but not checked: a pure
#: speed-up of the simulator may execute fewer events for the same
#: timeline, as the sleep fast-forward did.
PINNED_KEYS = {"on": ("digest", "wallclock", "calls"), "off": ("wallclock",)}

#: the virtual wallclock of the paper's Fig. 11 AMBER banner, seconds.
PAPER_AMBER_WALLCLOCK = 45.78

#: every untraced run makes at least this many rounds of each phase.
MIN_ROUNDS = 3

#: sweep phase: apps at preset=tiny (4 ranks) plus square x2, per seed.
SWEEP_APPS = (("hpl", 4, {"preset": "tiny"}), ("amber", 4, {"preset": "tiny"}),
              ("paratec", 4, {"preset": "tiny"}), ("square", 2, {}))
SWEEP_SEEDS = 4
SWEEP_WARM_PASSES = 10

#: fleet phase shape.
FLEET_JOBS = 200
CLOSED_WINDOW = 64
#: The head tees every record into its history log, which fsyncs and
#: closes the active 4 MiB segment on the append that fills it, under
#: the store lock, so every ack behind that append waits for the disk.
#: The closed loop ends on the CLOSED_SEGMENTS-th such append, so its
#: throughput includes those flushes.  The open loop then runs over
#: OPEN_SEGMENTS more segments (~16k records each), each time stopping
#: one record short of the rotation; the record that fills the segment
#: is sent untimed in between.  So the open loop's ack tail shows the
#: head's own stalls rather than how long one flush of the host's disk
#: took.  The six segments (~97k records) also give the restart ~0.7 s
#: of replay, well above the jitter of the interpreter start both
#: set-up times include.
CLOSED_SEGMENTS = 3
OPEN_SEGMENTS = 3
#: open loop: evenly spaced records at this share of the round's
#: closed-loop throughput.  (Sending one burst per sampler tick instead
#: makes every ack but the first of a burst wait for the publisher's
#: next send: the head writes acks without TCP_NODELAY, so Nagle holds
#: them until the delayed TCP ACK.)
OPEN_LOAD = 0.5
QUERY_PERIOD = 0.010
#: every QUERY_MIX-th query is /metrics, the rest are coarse
#: /jobs/<id>/rollups?resolution=ROLLUP_RESOLUTION views: the two differ
#: ~10x in cost, and this mix puts the median among the rollups and the
#: 99th percentile among the /metrics scrapes.
QUERY_MIX = 5
ROLLUP_RESOLUTION = 1.0

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "job_s": "s", "job_unmonitored_s": "s", "monitor_overhead_s": "s",
    "sweep_cold_s": "s", "sweep_warm_s": "s",
    "ingest_records_per_s": "1/s", "ack_p50_ms": "ms", "ack_p99_ms": "ms",
    "query_p50_ms": "ms", "query_p99_ms": "ms",
    "replay_records_per_s": "1/s",
}

#: measured and printed on a '#' line, but not in the result's metrics:
#: between identical runs on a 2-core shared host their spread (first to
#: third quartile over ten seeds, as a share of the median) has come
#: near or above 0.25, the largest bound a metric may have.
#: monitor_overhead_s on paratec32 is a difference of two noisy job
#: times; ack_p99_ms is set by one full garbage collection of the head
#: (NOTES.md gives the figures).
UNGATED = ("monitor_overhead_s", "ack_p99_ms", "query_p99_ms")


class Ledger:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(round(q / 100.0 * len(ordered) + 0.5))))
    return ordered[rank - 1]


def cpu_plan() -> Dict[str, Any]:
    """Which cores the benchmark's processes are pinned to.

    The job worker, this process (the fleet publisher and query client)
    and the fleet head share the last core; the two sweep workers get
    one core each.  The head and its client share a core on purpose:
    with them on two cores every ack and query pays a cross-core
    wake-up whose delay varies with the host, which moved the latency
    metrics by 20-30 % between otherwise identical runs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {"cpus": cpus, "nproc": os.cpu_count(), "core": cpus[-1]}


class Child:
    """A benchmark subprocess speaking JSON lines; set-up ends at 'ready'."""

    def __init__(self, argv: List[str]) -> None:
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT, stdout=subprocess.PIPE,
            text=True,
        )
        self.setup_s: Optional[float] = None

    def _line(self) -> Optional[Dict[str, Any]]:
        line = self.proc.stdout.readline()
        return json.loads(line) if line.strip() else None

    def result(self, timeout: float = 170.0) -> Optional[Dict[str, Any]]:
        try:
            ready = self._line()
            if ready is None:
                return None
            self.setup_s = time.perf_counter() - self.t0
            return self._line()
        finally:
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def run_phases(phases: Dict[str, Any], seconds: float,
               trace: bool) -> Dict[str, List[Dict[str, Any]]]:
    """Run one round of each phase in turn until --seconds are spent.

    Round-robin over the whole run lands a slow spell of the host on all
    phases instead of on one.  An untraced run makes at least
    MIN_ROUNDS rounds of each phase; a traced run makes one.
    """
    rows: Dict[str, List[Dict[str, Any]]] = {name: [] for name in phases}
    t0 = time.perf_counter()
    for n in itertools.count(1):
        for name, gen in phases.items():
            rows[name].extend(next(gen))
        if trace or (n >= MIN_ROUNDS and time.perf_counter() - t0 >= seconds):
            break
    for gen in phases.values():
        gen.close()
    return rows


# -- job phase -----------------------------------------------------------------


def job_phase(workload: str, job_seed: int, trace: bool,
              plan: Dict[str, Any], ledger: Ledger, pinned: Dict[str, Any]):
    """Rounds of the job phase (a generator: one list of rows per round).

    Each mode runs in a fresh worker: the first job in a process pays
    the page faults of first touching its memory (~600 MB on paratec32)
    and a second job reuses it, so two modes in one worker would time
    differently depending on which went first.
    """
    cfg = WORKLOADS[workload]
    expect = pinned[workload][str(job_seed)]
    argv = [os.path.join(HERE, "jobworker.py"), "--app", cfg["app"],
            "--ntasks", str(cfg["ntasks"]), "--params",
            json.dumps(cfg["params"]), "--seed", str(job_seed),
            "--cpu", str(plan["core"])]
    while True:
        rows = []
        runs = [(argv + ["--order", mode], False) for mode in ("on", "off")]
        if trace:
            runs = [(argv + ["--order", "on"], False),
                    (argv + ["--order", "on,off", "--trace",
                             os.path.join(WORK, "trace")], True)]
        for child_argv, traced in runs:
            child = Child(child_argv)
            out = child.result()
            if out is None:
                ledger.check(False, "job worker died")
                continue
            for mode, keys in PINNED_KEYS.items():
                if mode not in out:
                    continue
                got, want = out[mode], expect[mode]
                bad = [k for k in keys if got.get(k) != want[k]]
                ledger.check(not bad, f"job {mode}: {bad} differ from pinned")
            rows.append({"setup_s": child.setup_s, "traced": traced, **out})
        yield rows


# -- sweep phase -------------------------------------------------------------------


def sweep_phase(seed: int, trace: bool, plan: Dict[str, Any], ledger: Ledger):
    """Rounds of the sweep phase (a generator: one list of rows per round)."""
    from repro import IpmConfig, JobSpec

    rng = random.Random(seed)
    spec_seeds = rng.sample(range(100, 100_000), SWEEP_SEEDS)
    specs = [
        JobSpec(app=app, ntasks=n, app_params=params, ipm=IpmConfig(), seed=s)
        for s in spec_seeds for app, n, params in SWEEP_APPS
    ]
    spec_path = os.path.join(WORK, "sweep-specs.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump([s.to_json() for s in specs], fh)
    for n in itertools.count():
        cache = os.path.join(WORK, f"sweep-cache-{n}")
        shutil.rmtree(cache, ignore_errors=True)
        argv = [os.path.join(HERE, "sweepworker.py"), "--specs", spec_path,
                "--cache", cache, "--cpus",
                ",".join(str(c) for c in plan["cpus"][:2]),
                "--warm-passes", str(SWEEP_WARM_PASSES)]
        if trace:
            argv += ["--trace", os.path.join(WORK, "trace", "sweep")]
        child = Child(argv)
        out = child.result()
        shutil.rmtree(cache, ignore_errors=True)
        if out is None:
            ledger.check(False, "sweep process died")
            yield []
            continue
        for i, status in enumerate(out["statuses"]):
            ledger.check(status == "ok", f"sweep spec {i}: status {status}")
        for same in out["warm_same"]:
            ledger.check(same == len(specs),
                         f"warm pass returned {same}/{len(specs)} same results")
        yield [{"setup_s": child.setup_s, **out}]


# -- fleet phase ---------------------------------------------------------------------


class FleetServer:
    """One ``fleet serve --data-dir`` process started through the launcher."""

    def __init__(self, data_dir: str, tag: str, plan: Dict[str, Any],
                 trace: bool) -> None:
        self.announce = os.path.join(WORK, f"announce-{tag}.json")
        self.stats_path = os.path.join(WORK, f"server-{tag}.json")
        for path in (self.announce, self.stats_path):
            if os.path.exists(path):
                os.unlink(path)
        argv = [sys.executable, os.path.join(HERE, "fleetserver.py"),
                "--cpu", str(plan["core"]), "--stats", self.stats_path]
        if trace:
            argv += ["--trace", os.path.join(WORK, "trace",
                                             f"fleet-{tag}.spans.jsonl")]
        argv += ["--", "fleet", "serve", "--ingest", "127.0.0.1:0",
                 "--http", "127.0.0.1:0", "--data-dir", data_dir,
                 "--announce", self.announce]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        self.stats: Dict[str, Any] = {}
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError("fleet server exited before announcing")
                if time.perf_counter() - t0 > 60.0:
                    raise RuntimeError("fleet server did not announce in 60 s")
                try:
                    with open(self.announce, encoding="utf-8") as fh:
                        self.endpoints = json.load(fh)
                    break
                except (OSError, ValueError):
                    time.sleep(0.001)
            self.setup_s = time.perf_counter() - t0
            host, _, port = self.endpoints["http"].rpartition(":")
            self.http = (host, int(port))
            host, _, port = self.endpoints["ingest"].rpartition(":")
            self.ingest = (host, int(port))
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def get(self, path: str) -> Any:
        conn = http.client.HTTPConnection(*self.http, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            return resp.status, json.loads(body)
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            with open(self.stats_path, encoding="utf-8") as fh:
                self.stats = json.load(fh)
        except (OSError, ValueError):
            self.stats = {}


def make_record(rng: random.Random, seq: int, pub: str) -> bytes:
    job = seq % FLEET_JOBS
    record = {
        "kind": "sample", "job": f"job-{job:03d}",
        "t": (seq // FLEET_JOBS) * 0.05, "pub": pub, "seq": seq,
        "points": [
            {"name": "gpu_busy_fraction",
             "labels": {"gpu": "0", "node": f"dirac{job % 16:02d}"},
             "value": round(rng.random(), 4)},
            {"name": "copy_bytes", "labels": {"gpu": "0"},
             "value": rng.randrange(1 << 24)},
        ],
    }
    return json.dumps(record, sort_keys=True).encode() + b"\n"


def fleet_records(
        rng: random.Random,
        pub: str) -> Tuple[List[bytes], int, List[Tuple[int, int]]]:
    """One round's records, where the closed loop ends and the open loops.

    A record's wire bytes equal the head's history-log line for it (both
    are the record encoded with sorted keys), so the segment boundaries
    are known here.  Each open loop is ``(start, end)`` of one segment,
    ending one record short of the record that rotates it.
    """
    from repro.fleet.history import DEFAULT_SEGMENT_BYTES

    records: List[bytes] = []
    rotations: List[int] = []
    size = 0
    while len(rotations) < CLOSED_SEGMENTS + OPEN_SEGMENTS:
        line = make_record(rng, len(records), pub)
        records.append(line)
        size += len(line)
        if size >= DEFAULT_SEGMENT_BYTES:
            rotations.append(len(records))
            size = 0
    bounds = rotations[CLOSED_SEGMENTS - 1:]
    opens = [(start, end - 1) for start, end in zip(bounds, bounds[1:])]
    return records, bounds[0], opens


class AckReader:
    """Reads ack lines off the publisher socket; acks arrive in order."""

    def __init__(self, sock: socket.socket, pub: str) -> None:
        self.sock = sock
        # the head encodes acks with sorted keys, so an ack for this
        # publisher is exactly this prefix, the sequence number and "}"
        # (checked without a JSON parse to keep the client cheap).
        self.prefix = json.dumps({"kind": "ack", "pub": pub, "seq": 0},
                                 sort_keys=True).encode()[:-2]
        self.buf = b""
        self.next_seq = 0
        self.bad = 0

    def read(self) -> List[int]:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("fleet server closed the connection")
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        seqs = []
        cut = len(self.prefix)
        for line in lines:
            if not (line.startswith(self.prefix) and line.endswith(b"}")
                    and line[cut:-1] == str(self.next_seq).encode()):
                self.bad += 1
            seqs.append(self.next_seq)
            self.next_seq += 1
        return seqs


def closed_loop(sock, reader: AckReader, records: List[bytes], start: int,
                end: int) -> float:
    sent = acked = start
    t0 = time.perf_counter()
    while acked < end:
        top = min(end, acked + CLOSED_WINDOW)
        if sent < top:
            sock.sendall(b"".join(records[sent:top]))
            sent = top
        acked += len(reader.read())
    return time.perf_counter() - t0


def open_loop(server: FleetServer, sock, reader: AckReader,
              records: List[bytes], start: int, count: int, rate: float,
              rng: random.Random) -> Dict[str, List[float]]:
    due0 = time.perf_counter() + 0.02
    due = [due0 + i / rate for i in range(count)]
    late = [0.0] * count
    acks = [0.0] * count
    queries: List[float] = []
    statuses: List[int] = []
    done = threading.Event()
    errors: List[BaseException] = []

    def sender() -> None:
        try:
            i = 0
            while i < count:
                now = time.perf_counter()
                if due[i] > now:
                    time.sleep(due[i] - now)
                    now = time.perf_counter()
                j = i
                while j < count and due[j] <= now:
                    j += 1
                sock.sendall(b"".join(records[start + i:start + j]))
                sent = time.perf_counter()
                for k in range(i, j):
                    late[k] = sent - due[k]
                i = j
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    def querier() -> None:
        conn = http.client.HTTPConnection(*server.http, timeout=30)
        try:
            n = 0
            nxt = time.perf_counter()
            while not done.is_set():
                if n % QUERY_MIX:
                    path = (f"/jobs/job-{rng.randrange(FLEET_JOBS):03d}/rollups"
                            f"?resolution={ROLLUP_RESOLUTION}")
                else:
                    path = "/metrics"
                t0 = time.perf_counter()
                conn.request("GET", path)
                resp = conn.getresponse()
                resp.read()
                queries.append(time.perf_counter() - t0)
                statuses.append(resp.status)
                n += 1
                # paced, with no catch-up burst after a slow query
                nxt = max(nxt + QUERY_PERIOD, time.perf_counter())
                time.sleep(max(0.0, nxt - time.perf_counter()))
        except BaseException as exc:
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender), threading.Thread(target=querier)]
    for t in threads:
        t.start()
    try:
        acked = 0
        while acked < count and not errors:
            for seq in reader.read():
                now = time.perf_counter()
                acks[seq - start] = now - due[seq - start]
                acked += 1
    finally:
        done.set()
        for t in threads:
            t.join(60)
    if errors:
        raise errors[0]
    return {"ack": acks, "late": late, "query": queries, "status": statuses}


def fleet_round(data_dir: str, tag: str, records: List[bytes], closed: int,
                opens: List[Tuple[int, int]], pub: str, rng: random.Random,
                trace: bool, plan: Dict[str, Any],
                ledger: Ledger) -> Dict[str, Any]:
    """One fleet round: live head, closed and open loops, restart replay."""
    count = len(records)
    row: Dict[str, Any] = {"closed": closed, "records": count, "ack": [],
                           "late": [], "query": [], "status": []}
    server = FleetServer(data_dir, f"{tag}-live", plan, trace)
    try:
        row["setup_s"] = server.setup_s
        with socket.create_connection(server.ingest, timeout=60) as sock:
            sock.sendall(json.dumps(
                {"kind": "hello", "pub": pub, "ack": True}).encode() + b"\n")
            reader = AckReader(sock, pub)
            row["closed_s"] = closed_loop(sock, reader, records, 0, closed)
            row["open_rate"] = OPEN_LOAD * closed / row["closed_s"]
            for start, end in opens:
                for key, values in open_loop(
                        server, sock, reader, records, start, end - start,
                        row["open_rate"], rng).items():
                    row[key] += values
                # the record that fills the segment rotates it, untimed
                closed_loop(sock, reader, records, end, end + 1)
        ledger.check(reader.bad == 0 and reader.next_seq == count,
                     f"fleet acks: {reader.next_seq}/{count}, "
                     f"{reader.bad} out of order")
        for status in row["status"]:
            ledger.check(status == 200, f"fleet query status {status}")
        status, jobs = server.get("/jobs")
        samples = sum(j["samples"] for j in jobs["jobs"])
        ledger.check(status == 200 and samples == count,
                     f"fleet /jobs samples {samples} != acked {count}")
        status, fleet = server.get("/fleet")
        errors = fleet["ingest"]["parse_errors"]
        ledger.check(status == 200 and errors == 0,
                     f"fleet parse errors: {errors}")
    finally:
        server.stop()
    row["live_stats"] = server.stats
    restart = FleetServer(data_dir, f"{tag}-replay", plan, trace)
    try:
        row["restart_s"] = restart.setup_s
        status, history = restart.get("/history")
        ledger.check(status == 200 and history["replayed"] == count,
                     f"fleet replayed {history.get('replayed')} != {count}")
    finally:
        restart.stop()
    row["replay_stats"] = restart.stats
    return row


def fleet_phase(seed: int, trace: bool, plan: Dict[str, Any], ledger: Ledger):
    """Rounds of the fleet phase (a generator: one list of rows per round).

    A round that raises (a head that dies or never announces, a closed
    socket, a timeout, a malformed reply) counts as one failed operation
    and yields no row.
    """
    rng = random.Random(seed)
    pub = f"perfbench-{seed}"
    records, closed, opens = fleet_records(rng, pub)
    for n in itertools.count():
        data_dir = os.path.join(WORK, f"fleet-data-{n}")
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            rows = [fleet_round(data_dir, str(n), records, closed, opens,
                                pub, rng, trace, plan, ledger)]
        except Exception as exc:
            ledger.check(False, f"fleet round {n}: {exc!r}")
            rows = []
        shutil.rmtree(data_dir, ignore_errors=True)
        yield rows


# -- metrics -----------------------------------------------------------------------------


def end_to_end(job_rows, sweep_rows, fleet_rows) -> Dict[str, float]:
    med = statistics.median
    query = [v for r in fleet_rows for v in r["query"]]
    start = med(r["setup_s"] for r in fleet_rows)
    rss = [med(r["maxrss_mb"] for r in job_rows if mode in r)
           for mode in ("on", "off")]
    rss.append(med(r["maxrss_mb"] for r in sweep_rows))
    rss.append(med(r["live_stats"].get("maxrss_mb", 0.0) for r in fleet_rows))
    job_s = med(r["on"]["job_s"] for r in job_rows if "on" in r)
    job_off_s = med(r["off"]["job_s"] for r in job_rows if "off" in r)
    return {
        "setup_s": (med(r["setup_s"] for r in job_rows)
                    + med(r["setup_s"] for r in sweep_rows) + start),
        "peak_rss_mb": max(rss),
        "job_s": job_s,
        "job_unmonitored_s": job_off_s,
        "monitor_overhead_s": job_s - job_off_s,
        "sweep_cold_s": med(r["cold_s"] for r in sweep_rows),
        "sweep_warm_s": med(v for r in sweep_rows for v in r["warm_s"]),
        "ingest_records_per_s": med(r["closed"] / r["closed_s"]
                                    for r in fleet_rows),
        "ack_p50_ms": med(percentile(r["ack"], 50) for r in fleet_rows) * 1e3,
        "ack_p99_ms": med(percentile(r["ack"], 99) for r in fleet_rows) * 1e3,
        "query_p50_ms": percentile(query, 50) * 1e3,
        "query_p99_ms": percentile(query, 99) * 1e3,
        "replay_records_per_s": med(
            r["records"] / max(r["restart_s"] - start, 1e-3)
            for r in fleet_rows),
    }


def per_layer(job_rows, sweep_rows, fleet_rows) -> Dict[str, tuple]:
    """Per-layer metrics of the traced run, as name -> (value, unit)."""
    sys.path.insert(0, HERE)
    import shims

    traced = next(r for r in job_rows if r["traced"])
    untraced = next(r for r in job_rows if not r["traced"])
    units = {"_s": "s", "_us": "us", "_ratio": "ratio"}
    out: Dict[str, tuple] = {}
    for name, value in traced["on"]["layers"].items():
        unit = next((u for suffix, u in units.items()
                     if name.endswith(suffix)), "count")
        out[name] = (value, unit)
    out["simt.handoffs_unmonitored"] = (
        traced["off"]["layers"]["simt.handoffs"], "count")
    out["core.calls"] = (traced["on"]["calls"], "count")
    out["trace.job_s"] = (traced["on"]["job_s"], "s")
    out["trace.overhead_s"] = (traced["on"]["job_s"] - untraced["on"]["job_s"],
                               "s")

    sweep = sweep_rows[0]
    cold = sweep["cold_totals"]["self_s"]
    warm = sweep["warm_totals"]["self_s"]
    workers = shims.merge_totals(sweep["worker_totals"])
    wself, wcalls = workers["self_s"], workers["calls"]
    out["core.finalize_s"] = (wself.get("core.finalize", 0.0), "s")
    out["sweep.specs"] = (len(sweep["statuses"]), "count")
    out["sweep.worker_jobs"] = (wcalls.get("sweep.run_job", 0), "count")
    out["sweep.run_job_s"] = (wself.get("sweep.run_job", 0.0), "s")
    out["sweep.xml_s"] = (wself.get("sweep.execute", 0.0), "s")
    out["sweep.pickle_s"] = (wself.get("sweep.pickle", 0.0), "s")
    out["sweep.result_bytes"] = (sweep["result_bytes"], "bytes")
    out["sweep.cache_store_s"] = (cold.get("sweep.cache_store", 0.0), "s")
    out["sweep.pool_spawn_s"] = (cold.get("sweep.pool_spawn", 0.0), "s")
    out["sweep.pool_wait_s"] = (cold.get("sweep.pool_wait", 0.0), "s")
    out["sweep.cache_lookup_s"] = (warm.get("sweep.cache_lookup", 0.0), "s")
    out["sweep.cache_hit_ratio"] = (
        sum(sweep["warm_hits"]) / max(1, sweep["warm_lookups"]), "ratio")

    fleet = fleet_rows[0]
    live = fleet["live_stats"]
    lself = live.get("totals", {}).get("self_s", {})
    store = live.get("store", {})
    replay = fleet["replay_stats"]
    rself = replay.get("totals", {}).get("self_s", {})
    out["fleet.records"] = (store.get("records", 0), "count")
    out["fleet.decode_s"] = (lself.get("fleet.decode", 0.0), "s")
    out["fleet.ingest_s"] = (lself.get("fleet.ingest", 0.0), "s")
    out["fleet.history_append_s"] = (lself.get("fleet.history_append", 0.0), "s")
    out["fleet.duplicates"] = (store.get("duplicates", 0), "count")
    out["fleet.parse_errors"] = (store.get("parse_errors", 0), "count")
    out["fleet.query_s"] = (lself.get("fleet.query", 0.0), "s")
    # attach_history's span: its own self time plus the ingests it drives
    out["fleet.replay_s"] = (rself.get("fleet.replay", 0.0)
                             + rself.get("fleet.ingest", 0.0), "s")
    out["fleet.replay_records"] = (replay.get("store", {}).get("replayed", 0),
                                   "count")
    out["load.late_p99_ms"] = (percentile(fleet["late"], 99) * 1e3, "ms")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    trace = bool(args.trace)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "trace") if trace else WORK, exist_ok=True)
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    plan = cpu_plan()
    os.sched_setaffinity(0, {plan["core"]})
    ledger = Ledger()

    job_seed = JOB_SEEDS[args.seed % len(JOB_SEEDS)]
    rows = run_phases({
        "job": job_phase(args.workload, job_seed, trace, plan, ledger, pinned),
        "sweep": sweep_phase(args.seed, trace, plan, ledger),
        "fleet": fleet_phase(args.seed, trace, plan, ledger),
    }, args.seconds, trace)
    job_rows, sweep_rows, fleet_rows = rows["job"], rows["sweep"], rows["fleet"]

    print(f"# workload {args.workload}, seed {args.seed} (job seed {job_seed}),"
          f" nproc {plan['nproc']}, cpus {plan['cpus']}: job worker, fleet "
          f"head and its client on cpu {plan['core']}, sweep workers on "
          f"cpus {plan['cpus'][:2]}")
    on = job_rows[0]["on"] if job_rows and "on" in job_rows[0] else {}
    if args.workload == "amber16":
        print(f"# virtual wallclock {on.get('wallclock', float('nan')):.2f} s "
              f"(paper Fig. 11: {PAPER_AMBER_WALLCLOCK} s)")
    else:
        print(f"# virtual wallclock {on.get('wallclock', float('nan')):.2f} s "
              f"(model unvalidated at this scale)")
    print(f"# samples: {len(job_rows)} job workers, {len(sweep_rows)} sweep "
          f"rounds, {len(fleet_rows)} fleet rounds, "
          f"{sum(len(r['ack']) for r in fleet_rows)} acks, "
          f"{sum(len(r['query']) for r in fleet_rows)} queries")
    if fleet_rows:
        rate = statistics.median(r["open_rate"] for r in fleet_rows)
        late = max(percentile(r["late"], 99) for r in fleet_rows)
        print(f"# open loop: {rate:.0f} records/s ({OPEN_LOAD} of the closed "
              f"loop), generator late p99 {late * 1e3:.3f} ms at worst")
    for problem in ledger.problems[:20]:
        print(f"# FAILED: {problem}")
    metrics: Dict[str, Dict[str, Any]] = {}
    modes = {mode for r in job_rows for mode in ("on", "off") if mode in r}
    if modes == {"on", "off"} and sweep_rows and fleet_rows:
        if trace:
            for name, (value, unit) in per_layer(job_rows, sweep_rows,
                                                 fleet_rows).items():
                metrics[name] = {"value": value, "unit": unit}
        else:
            for name, value in end_to_end(job_rows, sweep_rows,
                                          fleet_rows).items():
                if name in UNGATED:
                    print(f"# {name} {value:.6f} {END_TO_END_UNITS[name]} "
                          f"(not gated: too noisy between runs)")
                else:
                    metrics[name] = {"value": value,
                                     "unit": END_TO_END_UNITS[name]}
    else:
        ledger.check(False, "a phase produced no rounds")
    if trace and metrics:
        parts = {name: metrics[name]["value"] for name in (
            "simt.handoff_s", "core.self_s", "cuda.self_s", "mpi.self_s",
            "libs.self_s", "apps.self_s", "cluster.build_s")}
        print("# traced job_s = " + " + ".join(
            f"{v:.3f} {k}" for k, v in parts.items())
            + f" = {sum(parts.values()):.3f} s; handoffs monitored/"
            f"unmonitored = {metrics['simt.handoffs']['value']}/"
            f"{metrics['simt.handoffs_unmonitored']['value']}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    if not trace:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
