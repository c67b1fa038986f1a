"""Helpers shared by the benchmark runner and its workload processes.

Nothing here imports ``repro``: statistics, the in-memory span recorder,
the host calibration loop, the run fingerprint, process plumbing and a
minimal Prometheus text reader.  Workload processes import this module
by path (``perfbench`` is not a package on ``sys.path``).
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: a timed percentile counts only with at least this many samples beyond it
MIN_BEYOND_TAIL = 10
#: fresh start-ups timed per run; ``setup_s`` is their median
SETUP_SPAWNS = 3


class RunFailed(RuntimeError):
    """The run cannot produce a trustworthy number (not an op failure)."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    if not values:
        raise RunFailed("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100), numpy's default."""
    if not values:
        raise RunFailed("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def tail(values: Sequence[float], q: float, what: str) -> Tuple[float, int]:
    """The pinned tail percentile and how many samples lie beyond it.

    Fewer than :data:`MIN_BEYOND_TAIL` samples beyond the percentile make
    it an extrapolation, so the run fails instead of reporting it.
    """
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    if beyond < MIN_BEYOND_TAIL:
        raise RunFailed(
            f"{what}: only {beyond} of {len(values)} samples beyond p{q:g} "
            f"(need {MIN_BEYOND_TAIL}); the run is too short for its tail")
    return value, beyond


@dataclasses.dataclass
class Jobs:
    """What :func:`run_jobs` measured: ``(seconds, outcome)`` per job of
    each phase, and the operations attempted and failed."""

    untraced: List[Tuple[float, Any]]
    traced: List[Tuple[float, Any]]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)

    def overhead_pct(self) -> float:
        """Traced vs untraced median job time, in percent."""
        return (median([s for s, _ in self.traced])
                / median([s for s, _ in self.untraced]) - 1.0) * 100.0


def run_jobs(job: Callable[[], Any], check: Callable[[Any], Optional[str]],
             seconds: float, min_jobs: int, trace: "Trace", traced: bool,
             start_tracing: Callable[[], None] = lambda: None) -> Jobs:
    """The run discipline of the ``search`` and ``tune`` processes.

    ``job`` is timed; ``check`` (untimed) returns a problem or None.  A
    phase starts jobs until it has ``min_jobs``, then while a job of
    median length still ends within its budget.  An untraced run is one
    phase of ``seconds``; a traced run is an untraced half (one job at
    least), then ``start_tracing()``, then a traced half.
    """
    jobs = Jobs([], [])

    def phase(budget_s: float, runs: List, least: int) -> None:
        deadline = time.perf_counter() + budget_s
        while (len(runs) < least or time.perf_counter()
               + median([s for s, _ in runs]) <= deadline):
            with trace.span("job", op=jobs.attempted):
                start = time.perf_counter()
                outcome = job()
                runs.append((time.perf_counter() - start, outcome))
            jobs.attempted += 1
            problem = check(outcome)
            if problem:
                jobs.failed += 1
                jobs.problems.append(problem)

    if not traced:
        phase(seconds, jobs.untraced, min_jobs)
        return jobs
    phase(seconds / 2, jobs.untraced, 1)
    start_tracing()
    trace.enabled = True
    phase(seconds / 2, jobs.traced, 1)
    return jobs


def bucket_quantile(bounds: Sequence[float], counts: Sequence[float],
                    q: float) -> float:
    """Quantile (0..1) of a fixed-bucket histogram, linear within a bucket.

    ``counts`` are per-bucket (not cumulative), one more than ``bounds``
    for the overflow bucket, whose upper edge is taken as its lower one.
    """
    total = sum(counts)
    if total <= 0:
        return 0.0
    target = q * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count and seen + count >= target:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else lower
            return lower + (upper - lower) * (target - seen) / count
        seen += count
    return float(bounds[-1])


# ----------------------------------------------------------------------
# tracing: spans kept in memory, written once when the run ends
# ----------------------------------------------------------------------
class Trace:
    """Spans (name, start, end, parent, op id) and counts at layer
    boundaries.  A disabled trace records nothing and costs one branch."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"id": span_id, "name": name, "parent": parent, "op": op,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed interval (e.g. one HTTP request); it
        belongs to the enclosing span's operation, or is one by itself."""
        if self.enabled:
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            op = span_id if parent is None else self.spans[parent]["op"]
            self.spans.append({"id": span_id, "name": name,
                               "parent": parent, "op": op,
                               "start": start, "end": end})

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def self_ms(self) -> Dict[str, float]:
        """Per span name: total self time (duration minus the union of
        its direct children's intervals), in ms."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            own = (span["end"] - span["start"] - covered) * 1e3
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"kind": "span", **span}) + "\n")
            handle.write(json.dumps({"kind": "counts",
                                     "counts": self.counts}) + "\n")


# ----------------------------------------------------------------------
# host drift probe and run fingerprint
# ----------------------------------------------------------------------
def host_calib_ms() -> float:
    """Best of five runs of a fixed numpy + pure-Python loop, in ms.

    Uses no BLAS call and nothing from ``repro``, so a change to the
    program cannot move it; only the host can (a busy neighbour, a
    throttled core).  Diagnostic only, never gated.
    """
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    # preallocated outputs: no allocation in the timed loop, so the
    # allocator's state (which a long run changes) cannot move the probe
    work = np.empty_like(data)
    acc = np.empty_like(data)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        for _ in range(4):
            np.copyto(work, data)
            work.sort()
            np.exp(data, out=acc)
            np.cumsum(acc, out=acc)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def blas_info() -> Dict[str, object]:
    """BLAS library, version and thread count in effect in this process.

    Read-only: the getters of the numpy-bundled OpenBLAS, found through
    this process's own memory map.  Never sets anything.
    """
    import numpy as np

    info: Dict[str, object] = {"name": None, "version": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = config.get("name")
        info["version"] = config.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower()
                           and line.rstrip().endswith(".so")})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}",
                                 None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    info["threads"] = int(getter())
                    return info
    return info


def source_commit(root: Path) -> Dict[str, Optional[str]]:
    """The git commit when the checkout is a repository, and always a
    digest of the program's sources (the benchmark runs from plain
    exports too)."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def fingerprint(root: Path, workload: str, seed: int) -> Dict[str, object]:
    import numpy as np

    cores = os.cpu_count()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = cores
    return {"workload": workload, "seed": seed, **source_commit(root),
            "cores": cores, "usable_cores": usable,
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def child_env(root: Path, workdir: Path) -> Dict[str, str]:
    """The environment of every process the benchmark starts: the
    caller's, plus the checkout's ``src`` on the import path and temp
    files kept inside the run's working directory.  No thread-count
    variable is set or removed."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["TMPDIR"] = str(workdir)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_process(cmd: List[str], root: Path, workdir: Path,
                  **popen) -> subprocess.Popen:
    """Start ``cmd`` in the checkout as the leader of a new process group,
    so :func:`stop_process` also reaches its descendants (e.g. a trial
    pool's workers)."""
    return subprocess.Popen(cmd, cwd=root, env=child_env(root, workdir),
                            start_new_session=True, **popen)


def signal_group(proc: subprocess.Popen, signum: int) -> bool:
    """Send ``signum`` to the process's group; False once it is empty."""
    try:
        os.killpg(proc.pid, signum)
        return True
    except ProcessLookupError:
        return False


def stop_process(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """SIGTERM the process group, then SIGKILL what is left after
    ``grace_s``; reaps the process and waits until its group is empty."""
    signal_group(proc, signal.SIGTERM)
    try:
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        signal_group(proc, signal.SIGKILL)
        proc.wait(timeout=grace_s)
    deadline = time.monotonic() + grace_s
    while signal_group(proc, 0):
        if time.monotonic() > deadline:
            signal_group(proc, signal.SIGKILL)
        time.sleep(0.02)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RunFailed(f"no VmHWM for pid {pid}")


def emit(event: Dict) -> None:
    """One JSON line from a workload process to the runner."""
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Prometheus text (the server's /metrics)
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

Samples = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def parse_metrics(text: str) -> Samples:
    samples: Samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        key = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, key)] = float(value)
    return samples


def metric_sum(samples: Samples, name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(value for (sample, key), value in samples.items()
               if sample == name and want <= set(key))


def diff_samples(after: Samples, before: Samples) -> Samples:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def histogram_quantile(samples: Samples, name: str, q: float,
                       **labels: str) -> float:
    """Quantile of a (diffed) Prometheus histogram, in its own unit."""
    want = set(labels.items())
    cumulative: List[Tuple[float, float]] = []
    for (sample, key), value in samples.items():
        if sample != f"{name}_bucket" or not want <= set(key):
            continue
        le = dict(key)["le"]
        cumulative.append((math.inf if le == "+Inf" else float(le), value))
    cumulative.sort()
    bounds = [le for le, _ in cumulative if le != math.inf]
    counts, previous = [], 0.0
    for _, value in cumulative:
        counts.append(value - previous)
        previous = value
    return bucket_quantile(bounds, counts, q)
