"""Timing shims for the traced run: spans around each layer's entry points.

Nothing here edits the program: the shims replace attributes of the
``repro`` modules and classes inside the benchmark's own processes
(the job worker, the sweep process and its forked workers, the fleet
server launcher) before any job, sweep or server starts.

A span records name, start, end, parent and thread.  A layer's *self*
time is its span minus its child spans.  Blocking is a child too: the
scheduler parks in ``Simulator._switch_to`` while a process holds the
baton (``simt.dispatch``) and a process parks in
``SimProcess._yield_to_scheduler`` while it waits in ``Simulator.sleep``
or a ``simt.waiters`` wait (``simt.wait``).  Exactly one thread holds
the baton at a time, so the busy self times of the layers never
overlap, and ``simt.handoff_s`` is the job's wall time minus the busy
self time of every layer other than ``simt``: scheduler loop, event
heap, thread switches and anything no shim covers.
"""

from __future__ import annotations

import json
import os
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List

#: the layers whose busy self time the job accounting subtracts.
JOB_LAYERS = ("core", "cuda", "mpi", "libs", "apps", "cluster")


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "counts", "tid")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.tid = threading.get_ident()


class Tracer:
    """Per-thread span stacks and totals; spans kept in memory until written."""

    def __init__(self, keep: int = 200_000) -> None:
        self.keep = keep
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so each call records one span called ``name``."""
        state = self._state
        spans = self.spans
        keep = self.keep

        def traced(*args: Any, **kwargs: Any) -> Any:
            st = state()
            stack = st.stack
            frame = [perf_counter(), 0.0, name]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - frame[0]
                st.self_s[name] = st.self_s.get(name, 0.0) + dur - frame[1]
                st.calls[name] = st.calls.get(name, 0) + 1
                parent = None
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                if len(spans) < keep:
                    spans.append((name, frame[0], t1, parent, st.tid))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def current(self) -> str:
        """Name of the innermost open span on this thread ('' if none)."""
        stack = self._state().stack
        return stack[-1][2] if stack else ""

    def reset(self) -> None:
        with self._lock:
            for st in self._states:
                st.self_s.clear()
                st.calls.clear()
                st.counts.clear()
        del self.spans[:]

    def totals(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {},
                                            "counts": {}}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, src in (("self_s", st.self_s), ("calls", st.calls),
                             ("counts", st.counts)):
                dst = out[key]
                for name, value in list(src.items()):
                    dst[name] = dst.get(name, 0) + value
        return out

    def write_spans(self, path: str) -> None:
        pid = os.getpid()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tid in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "thread": tid, "pid": pid,
                }) + "\n")


def merge_totals(parts: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {}, "counts": {}}
    for part in parts:
        for key, src in part.items():
            dst = out.setdefault(key, {})
            for name, value in src.items():
                dst[name] = dst.get(name, 0) + value
    return out


def _wrap_methods(tracer: Tracer, cls: type, pick: Callable[[str], str]) -> None:
    """Span every public method of ``cls`` that ``pick`` names a span for."""
    for attr, value in list(vars(cls).items()):
        if (attr.startswith("_") or not callable(value)
                or isinstance(value, (staticmethod, classmethod))):
            continue
        name = pick(attr)
        if name:
            setattr(cls, attr, tracer.span(name, value))


def install_job_shims(tracer: Tracer) -> None:
    """Shim simt, core, cuda, mpi, libs, apps and cluster entry points."""
    from repro.cluster import jobs
    from repro.core import hashtable, ipm, wrapper_gen
    from repro.cuda import driver, memory, runtime
    from repro.libs import cublas, cufft
    from repro.mpi import comm
    from repro.simt import events, process, simulator
    from repro.sweep import registry

    sim_cls = simulator.Simulator
    sim_cls._switch_to = tracer.span("simt.dispatch", sim_cls._switch_to)
    wait = tracer.span("simt.wait", process.SimProcess._yield_to_scheduler)

    def _yield_to_scheduler(self, target=None):
        if target == "sleep":
            tracer.count("simt.sleep_waits")
        return wait(self, target)

    process.SimProcess._yield_to_scheduler = _yield_to_scheduler
    orig_sleep = sim_cls.sleep

    def sleep(self, duration):
        if duration > 0:
            tracer.count("simt.sleeps")
            if tracer.current().startswith("core."):
                tracer.count("core.overhead_charges")
        return orig_sleep(self, duration)

    sim_cls.sleep = sleep
    orig_push = events.EventHeap.push

    def push(self, *args, **kwargs):
        tracer.count("simt.heap_pushes")
        return orig_push(self, *args, **kwargs)

    events.EventHeap.push = push

    orig_make = wrapper_gen._make_wrapper

    def _make_wrapper(*args, **kwargs):
        return tracer.span("core.wrapper", orig_make(*args, **kwargs))

    wrapper_gen._make_wrapper = _make_wrapper
    for attr in ("update", "intern", "locate"):
        setattr(hashtable.PerfHashTable, attr, tracer.span(
            "core.hashtable", getattr(hashtable.PerfHashTable, attr)))
    ipm_cls = ipm.Ipm
    ipm_cls.finalize = tracer.span("core.finalize", ipm_cls.finalize)
    ipm_cls.__init__ = tracer.span("core.init", ipm_cls.__init__)
    for attr in ("wrap_runtime", "wrap_driver", "wrap_mpi", "wrap_cublas",
                 "wrap_cufft"):
        setattr(ipm_cls, attr, tracer.span("core.init", getattr(ipm_cls, attr)))

    def cuda_pick(attr: str) -> str:
        if not attr.startswith("cu"):
            return ""
        return "cuda.memcpy" if "Memcpy" in attr else "cuda.api"

    _wrap_methods(tracer, runtime.Runtime, cuda_pick)
    _wrap_methods(tracer, driver.Driver, cuda_pick)
    for cls in (runtime.Runtime, driver.Driver):
        cls.__init__ = tracer.span("cuda.init", cls.__init__)
    memory.DeviceMemory.malloc = tracer.span(
        "cuda.malloc", memory.DeviceMemory.malloc)

    _wrap_methods(tracer, comm.RankComm,
                  lambda a: "mpi.api" if a.startswith("MPI_") else "")
    comm.CommWorld.rank_comm = tracer.span("mpi.init",
                                           comm.CommWorld.rank_comm)
    _wrap_methods(tracer, cublas.Cublas,
                  lambda a: "libs.api" if a.startswith("cublas") else "")
    _wrap_methods(tracer, cufft.Cufft,
                  lambda a: "libs.api" if a.startswith("cufft") else "")
    for cls in (cublas.Cublas, cufft.Cufft):
        cls.__init__ = tracer.span("libs.init", cls.__init__)

    orig_build = registry.build_app

    def build_app(*args, **kwargs):
        return tracer.span("apps.main", orig_build(*args, **kwargs))

    registry.build_app = build_app
    jobs.make_dirac = tracer.span("cluster.build", jobs.make_dirac)
    jobs._run_spec = tracer.span("job", jobs._run_spec)


def _layer_self(self_s: Dict[str, float], layer: str) -> float:
    return sum(v for k, v in self_s.items() if k.startswith(layer + "."))


def job_layers(tracer: Tracer, job_s: float, events: int) -> Dict[str, float]:
    """Per-layer metrics of one traced job (call right after it ends)."""
    t = tracer.totals()
    self_s, calls, counts = t["self_s"], t["calls"], t["counts"]
    busy = {layer: _layer_self(self_s, layer) for layer in JOB_LAYERS}
    handoffs = calls.get("simt.dispatch", 0)
    handoff_s = job_s - sum(busy.values())
    sleeps = counts.get("simt.sleeps", 0)
    fastforwarded = sleeps - counts.get("simt.sleep_waits", 0)
    return {
        "simt.events": events,
        "simt.heap_pushes": counts.get("simt.heap_pushes", 0),
        "simt.sleeps": sleeps,
        "simt.sleeps_fastforwarded": fastforwarded,
        "simt.fastforward_ratio": fastforwarded / sleeps if sleeps else 0.0,
        "simt.handoffs": handoffs,
        "simt.handoff_s": handoff_s,
        "simt.handoff_us": handoff_s / handoffs * 1e6 if handoffs else 0.0,
        "core.wrapper_self_s": self_s.get("core.wrapper", 0.0),
        "core.overhead_charges": counts.get("core.overhead_charges", 0),
        "core.hashtable_self_s": self_s.get("core.hashtable", 0.0),
        "core.self_s": busy["core"],
        "cuda.calls": calls.get("cuda.api", 0) + calls.get("cuda.memcpy", 0),
        "cuda.self_s": busy["cuda"],
        "cuda.malloc_calls": calls.get("cuda.malloc", 0),
        "cuda.malloc_s": self_s.get("cuda.malloc", 0.0),
        "cuda.memcpy_s": self_s.get("cuda.memcpy", 0.0),
        "libs.self_s": busy["libs"],
        "mpi.calls": calls.get("mpi.api", 0),
        "mpi.self_s": busy["mpi"],
        "apps.self_s": busy["apps"],
        "cluster.build_s": busy["cluster"],
    }


def install_sweep_shims(tracer: Tracer, dump_dir: str) -> None:
    """Shim the sweep layer in this process and in its forked workers.

    Workers are forked from this process, so they inherit the shims;
    each one starts from zeroed totals and writes them to ``dump_dir``
    when its serve loop ends (a forked worker never runs atexit).
    """
    from repro.cluster import jobs
    from repro.core import ipm
    from repro.sweep import cache, runner, warmpool

    cache.ResultCache.lookup = tracer.span("sweep.cache_lookup",
                                           cache.ResultCache.lookup)
    cache.ResultCache.store = tracer.span("sweep.cache_store",
                                          cache.ResultCache.store)
    warmpool.WarmWorker.__init__ = tracer.span("sweep.pool_spawn",
                                               warmpool.WarmWorker.__init__)
    warmpool.WarmWorkerPool.run_batch = tracer.span(
        "sweep.pool_wait", warmpool.WarmWorkerPool.run_batch)
    runner.execute_spec_json = tracer.span("sweep.execute",
                                           runner.execute_spec_json)
    runner.pickle_report = tracer.span("sweep.pickle", runner.pickle_report)
    jobs.run_job = tracer.span("sweep.run_job", jobs.run_job)
    ipm.Ipm.finalize = tracer.span("core.finalize", ipm.Ipm.finalize)
    orig_serve = warmpool._serve

    def _serve(conn) -> None:
        tracer.reset()
        try:
            orig_serve(conn)
        finally:
            path = os.path.join(dump_dir, f"sweep-worker-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tracer.totals(), fh)
            tracer.write_spans(path[:-5] + ".spans.jsonl")

    warmpool._serve = _serve


def install_fleet_shims(tracer: Tracer) -> List[Any]:
    """Shim the fleet head; returns the list its FleetStores land in."""
    from repro.fleet import history, ingest, store

    stores: List[Any] = []
    orig_init = store.FleetStore.__init__

    def __init__(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        stores.append(self)

    store.FleetStore.__init__ = __init__
    ingest.decode_line = tracer.span("fleet.decode", ingest.decode_line)
    store.FleetStore.ingest_status = tracer.span(
        "fleet.ingest", store.FleetStore.ingest_status)
    history.HistoryLog.append = tracer.span("fleet.history_append",
                                            history.HistoryLog.append)
    for attr in ("openmetrics", "job_rollups", "jobs_summary",
                 "fleet_summary", "history_summary"):
        setattr(store.FleetStore, attr, tracer.span(
            "fleet.query", getattr(store.FleetStore, attr)))
    store.FleetStore.attach_history = tracer.span(
        "fleet.replay", store.FleetStore.attach_history)
    return stores
