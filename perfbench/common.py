"""Shared pieces of the benchmark: spans, memory sampling, doc hashing,
statistics, and the Ray session the workloads run in."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import time
import zlib

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".bench_out")


# ---------------------------------------------------------------- spans


class Tracer:
    """In-memory span recorder.  ``span`` is a no-op while ``enabled`` is
    false, so the same code path runs traced and untraced."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0
        # when enabled, timed operations alternate traced / untraced so
        # the run measures its own tracing overhead
        self.active = enabled

    def new_op(self, alternate: bool = True) -> int:
        self._op += 1
        self.active = self.enabled and (not alternate or self._op % 2 == 1)
        return self._op

    @contextlib.contextmanager
    def span(self, name: str, op: int = 0):
        if not (self.enabled and (self.active or op == 0)):
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "op": op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict:
        """Per span name: calls, total and self seconds (duration minus
        the part covered by direct children, which never overlap here:
        the benchmark makes its calls one after another)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s, c in zip(self.spans, child):
            d = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - c
        return out

    def dump(self, path: str) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump([{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                       for s in self.spans], f)


# ---------------------------------------------------------------- memory


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for c in kids.get(p, []):
            out.append(c)
            todo.append(c)
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssPeaks:
    """Peak resident memory of this process and every process it spawned
    (the Ray head processes and workers), read from /proc: the sum over
    processes of each one's high-water mark (VmHWM).  ``sample`` runs
    between operations, never inside a timed call; the kernel keeps each
    process's high-water mark, so peaks inside an operation still count."""

    def __init__(self) -> None:
        self.hwm: dict[int, int] = {}

    def sample(self) -> None:
        me = os.getpid()
        for p in [me] + descendants(me):
            kb = _hwm_kb(p)
            if kb > self.hwm.get(p, 0):
                self.hwm[p] = kb

    def peak_mb(self) -> float:
        self.sample()
        return sum(self.hwm.values()) / 1024.0


RSS = RssPeaks()


# Ray Data's own bookkeeping actors: they poll on a timer and record
# stats, so their CPU follows wall time, not the work done
RAY_BOOKKEEPING = (b"ray::_StatsActor", b"ray::AutoscalingRequester")


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            args = f.read().split(b"\0")
    except OSError:
        return False
    if args[0].startswith(b"ray::"):     # a started worker names itself
        return not args[0].startswith(RAY_BOOKKEEPING)
    # a worker still starting: python .../default_worker.py (the raylet
    # names default_worker.py too, but only further down its arguments)
    return len(args) > 1 and args[1].endswith(b"default_worker.py")


def ray_workers() -> list[int]:
    """Ray worker processes spawned by this run: the processes that run
    tokrle's tasks, not Ray's daemons (gcs_server, raylet, agents) or
    Ray Data's bookkeeping actors, whose CPU grows with wall time rather
    than with the work done."""
    return [p for p in descendants(os.getpid()) if _is_ray_worker(p)]


def _proc_cpu_s(pid: int) -> float:
    """CPU seconds of another process, all its threads, from its CPU-time
    clock (nanosecond resolution, unlike the clock ticks in /proc)."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        return 0.0                      # exited since the scan


# The host's speed drifts: on the shared 4-vCPU VM the same operation
# took up to 45% more CPU time in one phase than in another, between runs
# a minute apart, with or without stolen time.  ``measured`` times a
# fixed computation on the same CPU before every operation; run.py
# scales the gated CPU metrics by REF_PROBE_S over the run's mean probe.
PROBE: list[float] = []
# the probe's typical CPU seconds on that VM; it only sets the scale of
# the reference CPU seconds, comparisons between runs do not depend on it
REF_PROBE_S = 0.030


def host_probe_s() -> float:
    """CPU seconds of a fixed computation that does not touch tokrle, in
    this thread: fresh pages, a sort, a compression, interpreter work."""
    t0 = time.thread_time()
    x = np.arange(1 << 18, dtype=np.int64) * 2654435761 % (1 << 20)
    x = np.sort(x)
    zlib.compress(x.astype(np.int32).tobytes(), 1)
    sum(i * i for i in range(10000))
    return time.thread_time() - t0


def measured(fn, *a, **kw):
    """(wall seconds, CPU seconds, result) of one call.  CPU seconds are
    those of this process (all threads: Ray Data's executor runs in the
    driver) plus every Ray worker process; a worker that starts during
    the call counts in full.  The kernel charges no time the hypervisor
    stole to a process, so unlike wall time this leaves out the waits of
    an oversubscribed host, but not the slower work under its
    contention: the host probe, timed first on the same CPU
    (``pin_work``), measures that."""
    workers = ray_workers()
    pin_work([os.getpid()] + workers)
    PROBE.append(host_probe_s())
    w0 = {p: _proc_cpu_s(p) for p in workers}
    c0 = time.process_time()
    dt, r = timed(fn, *a, **kw)
    c1 = time.process_time()
    cpu = c1 - c0 + sum(_proc_cpu_s(p) - w0.get(p, 0.0)
                        for p in ray_workers())
    RSS.sample()
    return dt, cpu, r


def cpu_steal_s() -> float:
    """Seconds of CPU time the hypervisor took from this VM since boot,
    summed over CPUs (the ``steal`` column of /proc/stat)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------- checks


def doc_hash(tokens: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(tokens, dtype=np.int32)
                           .tobytes(), digest_size=12).digest()


def table_doc_hashes(table) -> dict[str, bytes]:
    """doc_id -> token hash for a token table (doc_id, tokens list)."""
    import pyarrow.compute as pc

    col = table.column("tokens").combine_chunks()
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
    offs = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    ids = table.column("doc_id").to_pylist()
    return {d: doc_hash(flat[offs[i]:offs[i + 1]])
            for i, d in enumerate(ids)}


def count_mismatches(got: dict, want: dict) -> int:
    """Docs missing, extra, or with a different token hash."""
    bad = len(set(got) ^ set(want))
    bad += sum(1 for d, h in got.items() if d in want and want[d] != h)
    return bad


# ---------------------------------------------------------------- stats


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


def dir_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def parquet_files(d: str) -> list[str]:
    out = []
    for base, _, files in os.walk(d):
        out += [os.path.join(base, f) for f in files
                if f.endswith(".parquet")]
    return sorted(out)


def timed(fn, *a, **kw):
    """(wall seconds, result) of one call."""
    t0 = time.perf_counter()
    r = fn(*a, **kw)
    return time.perf_counter() - t0, r


# ---------------------------------------------------------------- session


def nproc() -> int:
    """What coreutils ``nproc`` prints: usable CPUs, capped by
    OMP_NUM_THREADS and OMP_THREAD_LIMIT."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v)) if var == "OMP_THREAD_LIMIT" else int(v)
    return max(1, n)


WORK_CPUS = sorted(os.sched_getaffinity(0))[:nproc()]
_pinned: set[int] = set()


def pin_work(pids) -> None:
    """Bind every thread of these processes to WORK_CPUS, the CPUs the
    host probe runs on, so the probe measures the CPU the work ran on.
    Unpinned, the driver and the worker sat on different vCPUs whose
    speeds differ from moment to moment, and the probe did not track.
    Threads a pinned process starts later inherit the binding; Ray's
    daemons stay unpinned, so they do not queue behind the work."""
    for pid in pids:
        if pid in _pinned:
            continue
        with contextlib.suppress(OSError):
            for tid in os.listdir(f"/proc/{pid}/task"):
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(int(tid), WORK_CPUS)
            _pinned.add(pid)


def ray_session(tmp: str):
    """Fresh local Ray session with ``num_cpus = nproc``.  Workers
    import tokrle from the repository root via the runtime_env, so the
    run does not depend on the caller's cwd.  Ray's own files go under
    ``tmp``, a path relative to the repository root, which must be the
    cwd: Ray wants an absolute temp dir and its Unix socket paths
    (<tmp>/session_<date>_<usec>_<pid>/sockets/plasma_store) must fit in
    107 bytes, so the dir is named through /proc/self/cwd, which every
    Ray process inherits, and the run writes nothing outside the
    repository however long its path is."""
    import logging

    import ray

    ncpu = nproc()
    os.makedirs(tmp, exist_ok=True)
    tmp = os.path.join("/proc/self/cwd", tmp)
    pp = os.environ.get("PYTHONPATH")
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 << 20,
             _temp_dir=tmp,
             runtime_env={"env_vars": {
                 "PYTHONPATH": ROOT + (os.pathsep + pp if pp else "")}})
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return {"num_cpus": ncpu, "ray_temp_dir": tmp}


def stop_session(timeout: float = 30.0) -> int:
    """Shut Ray down and wait until every process this run spawned has
    exited; stragglers are killed.  Returns how many had to be killed."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    me = os.getpid()
    deadline = time.time() + timeout
    while time.time() < deadline:
        left = descendants(me)
        if not left:
            return 0
        _reap()
        time.sleep(0.2)
    left = descendants(me)
    for p in left:
        with contextlib.suppress(OSError):
            os.kill(p, signal.SIGKILL)
    t = time.time() + 10
    while descendants(me) and time.time() < t:
        _reap()
        time.sleep(0.1)
    return len(left)


def _reap() -> None:
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
