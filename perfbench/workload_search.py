"""The ``search`` workload process: AutoAC search plus retrain.

Started fresh by ``run.py`` for every sample of set-up time.  It builds
``search_benchmark_spec(num_nodes=2000)`` from the workload seed and one
``AutoACSearcher`` (the end of set-up), then calls ``run_autoac`` with
``simple_hgn``, hidden 64, the ``fast`` runtime profile and early
stopping off, so every job does the same number of epochs.

Instrumentation stays outside the program: ``run_autoac`` is called
unchanged, and the names it looks up in ``repro.core.pipeline`` (the task
adapter, the searcher and the retrain step) are replaced by thin timing
wrappers.  Epoch boundaries are the adapter's ``val_score`` calls, made
once per epoch.  The traced phase also wraps ``Tensor.backward`` and
``Adam.step`` and runs the search under the public ``repro.perf.Profiler``.

Prints JSON lines: ``{"event": "ready", "t": <monotonic>}`` when set-up
is done, then one ``{"event": "result", ...}``.
"""

from __future__ import annotations

import argparse
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (Trace, blas_info, emit, median,  # noqa: E402
                    run_jobs)

NUM_NODES = 2000
HIDDEN = 64
SEARCH_EPOCHS = 16
RETRAIN_EPOCHS = 10
#: jobs per untimed-budget run, so the epoch tail has enough samples
MIN_JOBS = 3
NUM_CLASSES = 8
#: the ``(643,64)@(64,64)`` float32 product ROADMAP item 1 measures
GEMM_SHAPE = (643, 64, 64)
MATMUL_OPS = ("matmul", "matmul.backward", "addmm", "addmm.backward")
SPMM_OPS = ("spmm", "spmm.backward", "weighted_spmm",
            "weighted_spmm.backward")


def small_gemm_us(np) -> float:
    """Median of 300 timed float32 ``(643,64)@(64,64)`` products, in µs,
    under whatever BLAS thread setting the program left in place."""
    rng = np.random.default_rng(0)
    m, k, n = GEMM_SHAPE
    a = rng.random((m, k), dtype=np.float32)
    b = rng.random((k, n), dtype=np.float32)
    for _ in range(20):
        a @ b
    samples = []
    for _ in range(300):
        start = time.perf_counter()
        a @ b
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy as np

    import repro.core.pipeline as pipeline
    from repro.core import AutoACConfig, run_autoac
    from repro.datasets import generate, search_benchmark_spec
    from repro.perf import Profiler, current_profile, set_runtime_profile
    from repro.telemetry import get_registry
    from repro.tensor import Adam, Tensor
    from repro.training import TrainConfig, set_seed

    set_runtime_profile("fast")
    dataset = generate(search_benchmark_spec(num_nodes=NUM_NODES),
                       seed=args.seed)
    config = AutoACConfig(
        hidden_dim=HIDDEN, out_dim=HIDDEN, search_epochs=SEARCH_EPOCHS,
        patience=SEARCH_EPOCHS + 1, warmup_epochs=1,
        retrain=TrainConfig(epochs=RETRAIN_EPOCHS,
                            patience=RETRAIN_EPOCHS + 1))

    trace = Trace(False)
    state = {"in_search": False, "boundaries": [], "score_ms": [],
             "profile": None}
    base_adapter = pipeline.NodeClassificationAdapter
    base_searcher = pipeline.AutoACSearcher
    base_retrain = pipeline.retrain_node_classification_artifacts

    class TimedAdapter(base_adapter):
        def train_loss(self, model, features):
            with trace.span("train_loss"):
                return super().train_loss(model, features)

        def val_loss(self, model, features):
            with trace.span("val_loss"):
                return super().val_loss(model, features)

        def val_score(self, model, features):
            start = time.perf_counter()
            with trace.span("val_score"):
                score = super().val_score(model, features)
            end = time.perf_counter()
            state["boundaries"].append(end)
            state["score_ms"].append((end - start) * 1e3)
            return score

    class TimedSearcher(base_searcher):
        def search(self):
            state["boundaries"].append(time.perf_counter())
            state["in_search"] = True
            try:
                with trace.span("search"):
                    if not trace.enabled:
                        return super().search()
                    with Profiler() as profiler:
                        result = super().search()
                    state["profile"] = profiler.report()
                    return result
            finally:
                state["in_search"] = False

    def timed_retrain(*a, **kw):
        with trace.span("retrain"):
            return base_retrain(*a, **kw)

    pipeline.NodeClassificationAdapter = TimedAdapter
    pipeline.AutoACSearcher = TimedSearcher
    pipeline.retrain_node_classification_artifacts = timed_retrain
    # set-up ends with a searcher built: imports, dataset and model
    TimedSearcher(TimedAdapter(dataset), "simple_hgn", config,
                  seed=args.seed)
    emit({"event": "ready", "t": time.monotonic()})
    if args.setup_only:
        return 0

    def traced_method(cls, name, span_name):
        original = getattr(cls, name)

        def wrapper(self, *a, **kw):
            if not state["in_search"]:
                return original(self, *a, **kw)
            with trace.span(span_name):
                return original(self, *a, **kw)
        setattr(cls, name, wrapper)

    per_layer, baseline = {}, {}

    def job():
        state["boundaries"], state["score_ms"] = [], []
        set_seed(args.seed)
        result = run_autoac(dataset, "simple_hgn", config, seed=args.seed)
        # keep only what the check needs, not the models
        return {"epochs_run": result.search.epochs_run,
                "scores": list(result.search.history.get("val_score", [])),
                "assignment": np.asarray(result.search.assignment),
                "num_ops": len(result.search.op_names),
                "macro_f1": result.final.macro_f1,
                "epoch_ms": (np.diff(state["boundaries"]) * 1e3).tolist(),
                "score_ms": state["score_ms"]}

    def check(outcome):
        ran, scores = outcome["epochs_run"], outcome["scores"]
        if ran != SEARCH_EPOCHS or len(outcome["epoch_ms"]) != SEARCH_EPOCHS:
            return f"ran {ran} epochs, not {SEARCH_EPOCHS}"
        if len(scores) != SEARCH_EPOCHS or not all(map(math.isfinite,
                                                       scores)):
            return "non-finite validation scores"
        assignment = outcome["assignment"]
        if (assignment.shape != dataset.missing_global_ids.shape
                or assignment.min() < 0
                or assignment.max() >= outcome["num_ops"]):
            return "invalid completion assignment"
        if not outcome["macro_f1"] > 1.0 / NUM_CLASSES:
            return f"macro-F1 {outcome['macro_f1']:.3f} at or below chance"
        return None

    def start_tracing():
        traced_method(Tensor, "backward", "backward")
        traced_method(Adam, "step", "optim")
        per_layer["blas.small_gemm_us"] = small_gemm_us(np)
        baseline["epochs"] = get_registry().get("train_epoch_seconds")
        baseline["sum"] = baseline["epochs"].sum_total()
        baseline["count"] = baseline["epochs"].count_total()

    jobs = run_jobs(job, check, args.seconds, MIN_JOBS, trace,
                    bool(args.trace), start_tracing)
    if args.trace:
        epochs_total = SEARCH_EPOCHS * len(jobs.traced)
        own = trace.self_ms()
        inclusive = {}
        for span in trace.spans:
            duration = (span["end"] - span["start"]) * 1e3
            inclusive[span["name"]] = inclusive.get(span["name"], 0) + duration
        per_epoch = {name: value / epochs_total
                     for name, value in inclusive.items()}
        # a val_loss call inside val_score is the score's own forward, not
        # the upper alpha step, so it counts toward val_score only
        val_in_score = sum(
            (s["end"] - s["start"]) * 1e3 for s in trace.spans
            if s["name"] == "val_loss" and s["parent"] is not None
            and trace.spans[s["parent"]]["name"] == "val_score")
        per_layer["search.train_fwd_ms"] = per_epoch.get("train_loss", 0.0)
        per_layer["search.val_fwd_ms"] = (
            inclusive.get("val_loss", 0.0) - val_in_score) / epochs_total
        per_layer["search.val_score_ms"] = per_epoch.get("val_score", 0.0)
        per_layer["search.backward_ms"] = per_epoch.get("backward", 0.0)
        per_layer["search.optim_ms"] = per_epoch.get("optim", 0.0)
        per_layer["search.epoch_self_ms"] = (own.get("search", 0.0)
                                             / epochs_total)
        # the profile of the last traced search, per epoch
        stats = {stat.name: stat for stat in state["profile"].stats}
        per_layer["tensor.matmul_ms"] = sum(
            stats[n].seconds for n in MATMUL_OPS
            if n in stats) * 1e3 / SEARCH_EPOCHS
        per_layer["tensor.spmm_ms"] = sum(
            stats[n].seconds for n in SPMM_OPS
            if n in stats) * 1e3 / SEARCH_EPOCHS
        per_layer["tensor.op_calls"] = sum(
            s.calls for s in stats.values()) / SEARCH_EPOCHS
        per_layer["tensor.op_mb"] = sum(
            s.bytes_allocated for s in stats.values()) / 1e6 / SEARCH_EPOCHS
        train_epochs = baseline["epochs"]
        count = train_epochs.count_total() - baseline["count"]
        per_layer["retrain.epoch_ms"] = (
            (train_epochs.sum_total() - baseline["sum"]) / count * 1e3
            if count else 0.0)
        per_layer["trace.overhead_pct"] = jobs.overhead_pct()

    emit({"event": "result", "attempted": jobs.attempted,
          "failed": jobs.failed, "problems": jobs.problems,
          "job_s": [seconds for seconds, _ in jobs.untraced],
          "epoch_ms": [ms for _, outcome in jobs.untraced
                       for ms in outcome["epoch_ms"]],
          "score_ms": [ms for _, outcome in jobs.untraced
                       for ms in outcome["score_ms"]],
          "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
          "per_layer": per_layer, "spans": trace.spans,
          "counts": trace.counts,
          "runtime_profile": current_profile().name, "blas": blas_info()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
