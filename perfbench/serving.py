"""The ``serve-read`` and ``serve-onboard`` workloads.

Both drive an unmodified ``python -m repro serve`` process with its
defaults (one process, 4,096-entry result cache) over real HTTP, from
one closed-loop client: the next request is sent only after the
previous reply has been read, each on a new connection.

* ``serve-read``: an ``imdb``/``paper`` GCN bundle (4,932 target ids,
  21,420 nodes).  After an untimed pass has filled the cache, each
  ``/predict`` asks for one id drawn uniformly from all targets, so about
  17% of reads miss the cache and pay a full-graph forward.
* ``serve-onboard``: an ``imdb``/``small`` bundle (2,141 nodes), driven
  in a fixed cycle: onboard a missing-attribute actor, onboard a movie
  with raw features (starring that actor), read the movie back, then
  make a few base reads.  The overlay grows by hundreds of nodes a run.

Both do a fixed amount of timed work (``READS_PER_S`` reads or
``CYCLES_PER_S`` cycles per second of ``--seconds``), so every run of a
seed sends the same requests, whatever the speed of the code or host.

The served bundle is fixed (dataset and training seed 0), like a
deployed model; the workload seed draws the traffic: ids, edges and raw
features.  Every reply is checked against an answer table computed in
the untimed prelude with ``InferenceEngine.predict`` on the same bundle.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (SETUP_SPAWNS, RunFailed, Trace, diff_samples,
                    histogram_quantile, median, metric_sum, parse_metrics,
                    peak_rss_mb, start_process, stop_process, tail)

HIDDEN = 32
TRAIN_EPOCHS = 3
BASE_READS_PER_CYCLE = 3
#: fixed work per second of ``--seconds``, sized to fit at the speed of
#: the code the benchmark was built on: every run of a seed then sends
#: the same requests onto the same sequence of overlay sizes, however
#: fast the code or the host
READS_PER_S = 170
CYCLES_PER_S = 15
WARM_READS = 200
WARM_CYCLES = 5
#: a timed phase that takes this many times ``--seconds`` fails the run
WATCHDOG_FACTOR = 3.0
#: a server that is not ready by then has failed to start
START_TIMEOUT_S = 60.0

SCALES = {"serve-read": "paper", "serve-onboard": "small"}


# ----------------------------------------------------------------------
# prelude: bundle + answer table (untimed)
# ----------------------------------------------------------------------
def build_bundle(scale: str, out_dir: Path):
    """Export a GCN bundle like ``scripts/serve_smoke.py`` does and
    answer every base target once with ``InferenceEngine.predict``."""
    import numpy as np

    from repro.completion import FixedAssignmentFeatures, SearchSpace
    from repro.datasets import get_dataset
    from repro.models import build_model
    from repro.serving import (DatasetSpec, InferenceEngine, ModelBundle,
                               build_bundle as export)
    from repro.training import NodeClassificationTrainer, TrainConfig, set_seed

    set_seed(0)
    dataset = get_dataset("imdb", scale=scale, seed=0)
    space = SearchSpace()
    assignment = np.random.default_rng(0).integers(
        0, len(space), size=dataset.missing_global_ids.shape[0])
    features = FixedAssignmentFeatures(dataset, HIDDEN, assignment,
                                       space=space)
    model = build_model("gcn", dataset, hidden_dim=HIDDEN, out_dim=HIDDEN)
    NodeClassificationTrainer(model, features, dataset,
                              TrainConfig(epochs=TRAIN_EPOCHS,
                                          patience=10)).train()
    bundle = export(dataset, DatasetSpec("imdb", scale, 0), "gcn", model,
                    features, hidden_dim=HIDDEN, out_dim=HIDDEN)
    path = bundle.save(out_dir / f"imdb-{scale}.npz")
    engine = InferenceEngine(ModelBundle.load(path))
    graph = dataset.graph
    answers = engine.predict(np.arange(graph.num_nodes_of("movie")))
    counts = {t: graph.num_nodes_of(t) for t in graph.node_types}
    op_names = list(engine.bundle.op_names)
    return path, [int(a) for a in answers], counts, op_names


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process, timed from spawn to readiness."""

    def __init__(self, root: Path, workdir: Path, bundle: Path,
                 telemetry: Optional[Path] = None) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        cmd = [sys.executable, "-m", "repro", "serve", "--bundle",
               str(bundle), "--port", str(self.port)]
        if telemetry is not None:
            cmd += ["--telemetry-out", str(telemetry)]
        self.log = open(workdir / f"server-{self.port}.log", "wb")
        spawned = time.monotonic()
        self.proc = start_process(cmd, root, workdir, stdout=self.log,
                                  stderr=self.log)
        try:
            self.listen_s = self._wait_listening() - spawned
            self.setup_s = self._wait_ready() - spawned
        except BaseException:
            self.stop()
            raise
        self.ready_s = self.setup_s - self.listen_s

    def _alive(self) -> None:
        if self.proc.poll() is not None:
            raise RunFailed(f"repro serve exited with {self.proc.returncode}"
                            f" during start-up; see {self.log.name}")

    def _wait_listening(self) -> float:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            self._alive()
            try:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=1.0):
                    return time.monotonic()
            except OSError:
                time.sleep(0.002)
        raise RunFailed("repro serve never accepted a connection")

    def _wait_ready(self) -> float:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            self._alive()
            status, _ = self.request("GET", "/readyz")
            if status == 200:
                return time.monotonic()
            time.sleep(0.002)
        raise RunFailed("repro serve never reported ready")

    def request(self, method: str, path: str,
                payload: Optional[Dict] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {} if body is None else {
                "Content-Type": "application/json"}
            conn.request(method, path, body=body, headers=headers)
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def metrics(self):
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RunFailed(f"/metrics answered {status}")
        return parse_metrics(body.decode())

    def stop(self) -> None:
        stop_process(self.proc)
        self.log.close()


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
class Client:
    """Closed-loop traffic against one server, with output checks."""

    def __init__(self, server: Server, answers: List[int], trace: Trace):
        self.server = server
        self.answers = answers
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        """Count one failed operation, keeping the first few reasons."""
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def call(self, name: str, path: str, payload: Dict):
        """One timed POST; returns (ms, decoded reply or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            status, body = self.server.request("POST", path, payload)
        except (OSError, http.client.HTTPException) as error:
            self.fail(f"{path}: {type(error).__name__}: {error}")
            return (time.perf_counter() - start) * 1e3, None
        end = time.perf_counter()
        self.trace.add(name, start, end)
        if status != 200:
            self.fail(f"{path} answered {status}: {body[:200]!r}")
            return (end - start) * 1e3, None
        return (end - start) * 1e3, json.loads(body)

    def read(self, node_ids: List[int], expected: List[int],
             name: str = "predict") -> float:
        ms, reply = self.call(name, "/predict", {"node_ids": node_ids})
        if reply is not None and reply.get("predictions") != expected:
            self.fail(f"/predict {node_ids[:4]}... disagrees with the "
                       f"answer table")
        return ms


def _metrics_layers(before, after,
                    predict_ms: List[float]) -> Dict[str, float]:
    """Engine, HTTP and onboarding layers from ``/metrics`` diffed
    across the timed phase."""
    delta = diff_samples(after, before)
    hits = metric_sum(delta, "engine_cache_requests_total", result="hit")
    misses = metric_sum(delta, "engine_cache_requests_total", result="miss")
    handler_ms = histogram_quantile(delta, "http_request_seconds", 0.5,
                                    path="/predict") * 1e3
    return {
        "engine.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.forwards_per_1k": 1e3 * metric_sum(
            delta, "engine_forward_passes_total") / len(predict_ms),
        "engine.hit_ms_p50": histogram_quantile(
            delta, "engine_query_seconds", 0.5, cache="hit") * 1e3,
        "http.handler_ms_p50": handler_ms,
        "http.outside_ms_p50": median(predict_ms) - handler_ms,
        "http.shed": metric_sum(delta, "http_requests_shed_total"),
        "http.deadline_exceeded": metric_sum(
            delta, "http_deadline_exceeded_total"),
        "http.errors": metric_sum(delta, "http_internal_errors_total"),
        "onboard.node_ms_p50": histogram_quantile(
            delta, "onboard_seconds", 0.5) * 1e3,
        "onboard.overlay_size": metric_sum(after, "onboard_overlay_size"),
        "onboard.failures": metric_sum(delta, "onboard_failures_total"),
    }


def _growth(values: List[float]) -> float:
    """Mean of the last tenth over the mean of the first tenth."""
    if not values:
        return 0.0
    tenth = max(len(values) // 10, 1)
    return (sum(values[-tenth:]) / tenth) / (sum(values[:tenth]) / tenth)


def timed_loop(count: int, seconds: float, step) -> float:
    """Call ``step(i)`` for ``i`` in ``range(count)``; returns the wall
    time.  The deadline is only a watchdog: past it the run fails."""
    started = time.perf_counter()
    watchdog = started + WATCHDOG_FACTOR * seconds
    for i in range(count):
        step(i)
        if time.perf_counter() > watchdog:
            raise RunFailed(f"{i + 1} of {count} steps took longer than "
                            f"{WATCHDOG_FACTOR:g} x {seconds:g} s")
    return time.perf_counter() - started


def drive_read(client: Client, seconds: float, rng) -> Dict:
    """Fill the cache and warm the path (untimed), then send a fixed
    number of single-id reads."""
    answers = client.answers
    order = rng.permutation(len(answers)).tolist()
    for start in range(0, len(order), 256):
        ids = order[start:start + 256]
        client.read(ids, [answers[i] for i in ids], name="fill")
    for node in rng.integers(len(answers), size=WARM_READS).tolist():
        client.read([node], [answers[node]], name="warm")
    before = client.server.metrics()
    ids = rng.integers(len(answers),
                       size=max(round(seconds * READS_PER_S), 1)).tolist()
    latencies: List[float] = []
    timed_from = time.time() * 1e3
    wall = timed_loop(len(ids), seconds, lambda i: latencies.append(
        client.read([ids[i]], [answers[ids[i]]])))
    layers = _metrics_layers(before, client.server.metrics(), latencies)
    return {"predict_ms": latencies, "read_ms": latencies,
            "job_s": wall / len(latencies) * 1e3, "layers": layers,
            "timed_from_unix_ms": timed_from}


class OnboardTraffic:
    """The seeded fixed cycle of ``serve-onboard``."""

    def __init__(self, client: Client, counts: Dict[str, int],
                 op_names: List[str], rng) -> None:
        self.client = client
        self.counts = counts
        self.op_names = op_names
        self.rng = rng

    def _pick(self, node_type: str, k: int) -> List[int]:
        return self.rng.choice(self.counts[node_type], size=k,
                               replace=False).tolist()

    def cycle(self, onboard_ms: List[float], read_ms: List[float],
              overlay_ms: List[float]) -> None:
        client, answers = self.client, self.client.answers
        ms, actor = client.call("onboard", "/onboard", {
            "node_type": "actor",
            "edges": {"movie:stars:actor": self._pick("movie", 3)}})
        onboard_ms.append(ms)
        if actor is not None and (actor.get("node_type") != "actor"
                                  or actor.get("op") not in self.op_names):
            client.fail(f"actor onboard reply lacks a searched op: {actor}")
        stars = self._pick("actor", 2)
        if actor is not None:
            stars.append(actor["node_id"])
        ms, movie = client.call("onboard", "/onboard", {
            "node_type": "movie",
            "features": self.rng.normal(size=64).round(6).tolist(),
            "edges": {"movie:directed-by:director": self._pick("director", 1),
                      "movie:stars:actor": stars,
                      "movie:tagged:keyword": self._pick("keyword", 5)}})
        onboard_ms.append(ms)
        if movie is not None:
            if (movie.get("node_type") != "movie"
                    or movie.get("node_id", -1) < len(answers)
                    or not isinstance(movie.get("prediction"), int)):
                client.fail(f"movie onboard reply is malformed: {movie}")
            else:
                ms = client.read([movie["node_id"]], [movie["prediction"]],
                                 name="overlay_read")
                read_ms.append(ms)
                overlay_ms.append(ms)
        for node in self._pick("movie", BASE_READS_PER_CYCLE):
            read_ms.append(client.read([node], [answers[node]]))


def drive_onboard(client: Client, seconds: float, rng, counts,
                  op_names) -> Dict:
    """Fill the cache and run a few cycles (untimed), then a fixed
    number of timed cycles."""
    answers = client.answers
    client.read(list(range(len(answers))), answers, name="fill")
    traffic = OnboardTraffic(client, counts, op_names, rng)
    for _ in range(WARM_CYCLES):
        traffic.cycle([], [], [])
    before = client.server.metrics()
    onboard_ms: List[float] = []
    read_ms: List[float] = []
    overlay_ms: List[float] = []
    cycles = max(round(seconds * CYCLES_PER_S), 1)
    timed_from = time.time() * 1e3

    def cycle(i: int) -> None:
        with client.trace.span("cycle", op=i):
            traffic.cycle(onboard_ms, read_ms, overlay_ms)

    wall = timed_loop(cycles, seconds, cycle)
    layers = _metrics_layers(before, client.server.metrics(), read_ms)
    layers["onboard.growth"] = _growth(onboard_ms)
    layers["onboard.read_growth"] = _growth(overlay_ms)
    return {"predict_ms": read_ms, "onboard_ms": onboard_ms,
            "read_ms": read_ms, "job_s": wall / cycles, "layers": layers,
            "timed_from_unix_ms": timed_from}


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run(workload: str, root: Path, workdir: Path, seed: int,
        seconds: float, traced: bool, tail_q: float,
        trace: Trace) -> Dict:
    import numpy as np

    bundle, answers, counts, op_names = build_bundle(SCALES[workload],
                                                     workdir)
    rng = np.random.default_rng(seed)
    servers: List[Server] = []
    clients: List[Client] = []

    def phase(phase_seconds: float, telemetry: Optional[Path],
              client_trace: Trace) -> Dict:
        server = Server(root, workdir, bundle, telemetry)
        servers.append(server)
        try:
            client = Client(server, answers, client_trace)
            clients.append(client)
            if workload == "serve-read":
                outcome = drive_read(client, phase_seconds, rng)
            else:
                outcome = drive_onboard(client, phase_seconds, rng, counts,
                                        op_names)
            outcome["rss_mb"] = peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
        return outcome

    primary = "onboard_ms" if workload == "serve-onboard" else "predict_ms"
    end_to_end: Dict[str, float] = {}
    per_layer: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    if not traced:
        for _ in range(SETUP_SPAWNS - 1):
            servers.append(Server(root, workdir, bundle))
            servers[-1].stop()
        outcome = phase(seconds, None, Trace(False))
        tail_ms, beyond = tail(outcome[primary], tail_q,
                               f"{workload} latency")
        end_to_end = {
            "setup_s": median([s.setup_s for s in servers]),
            "job_s": outcome["job_s"],
            "latency_p50_ms": median(outcome[primary]),
            "latency_tail_ms": tail_ms,
            "read_p50_ms": median(outcome["read_ms"]),
            "rss_mb": outcome["rss_mb"],
        }
        samples = {"latency": len(outcome[primary]), "beyond_tail": beyond,
                   "reads": len(outcome["read_ms"]),
                   "setup_spawns": len(servers)}
    else:
        untraced = phase(seconds / 2, None, Trace(False))
        spans_file = workdir / "server-spans.jsonl"
        outcome = phase(seconds / 2, spans_file, trace)
        per_layer = dict(outcome["layers"])
        timed_from = outcome["timed_from_unix_ms"]
        forwards = [record["duration_ms"] for record in _jsonl(spans_file)
                    if record.get("kind") == "span"
                    and record.get("name") == "forward"
                    and record["start_unix_ms"] >= timed_from]
        per_layer["engine.forward_ms_p50"] = (median(forwards)
                                              if forwards else 0.0)
        per_layer["setup.listen_s"] = median([s.listen_s for s in servers])
        per_layer["setup.ready_s"] = median([s.ready_s for s in servers])
        per_layer["trace.overhead_pct"] = (
            median(outcome[primary]) / median(untraced[primary]) - 1) * 100
    return {"end_to_end": end_to_end, "per_layer": per_layer,
            "attempted": sum(c.attempted for c in clients),
            "failed": sum(c.failed for c in clients),
            "problems": [p for c in clients for p in c.problems],
            "samples": samples}


def _jsonl(path: Path) -> List[Dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
