"""The ``tune`` workload process: ASHA on the parallel trial scheduler.

Started fresh by ``run.py`` for every sample of set-up time.  Set-up
ends when the autotune guard's ``TuneTask`` is ready:
``tune_benchmark_spec(900)`` generated from the workload seed, ``gcn``,
hidden 32, 6 slots, full budget 60 epochs.  Each job is one
``TrialScheduler.run`` of ASHA (10 trials, min budget 7, eta 3, strategy
seeded from the workload seed) on a fresh 2-worker pool and no journal;
the same job repeats until the run's time is used up, so every job in a
run must end with the same leaderboard.

Prints JSON lines: ``{"event": "ready", "t": <monotonic>}`` when set-up
is done, then one ``{"event": "result", ...}``.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (Trace, blas_info, emit, median,  # noqa: E402
                    run_jobs)

NUM_NODES = 900
MODEL = "gcn"
HIDDEN = 32
NUM_SLOTS = 6
NUM_TRIALS = 10
FULL_BUDGET = 60
MIN_BUDGET = 7
ETA = 3
WORKERS = 2
SEARCH_EPOCHS = 20
#: jobs per run at least, so the first-rung tail has enough samples
MIN_JOBS = 5


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from repro.autotune import (DatasetRef, TrialScheduler, TuneTask,
                                build_strategy)
    from repro.core import AutoACConfig
    from repro.datasets import tune_benchmark_spec
    from repro.perf import current_profile
    from repro.training import TrainConfig

    search_config = AutoACConfig(
        hidden_dim=HIDDEN, out_dim=HIDDEN, num_clusters=NUM_SLOTS,
        search_epochs=SEARCH_EPOCHS, patience=SEARCH_EPOCHS,
        warmup_epochs=2,
        retrain=TrainConfig(epochs=FULL_BUDGET,
                            patience=max(FULL_BUDGET // 4, 5)))
    task = TuneTask(
        dataset=DatasetRef.from_spec(tune_benchmark_spec(NUM_NODES),
                                     seed=args.seed),
        model_name=MODEL, hidden_dim=HIDDEN, out_dim=HIDDEN,
        num_slots=NUM_SLOTS, max_budget=FULL_BUDGET,
        search_config=search_config)
    emit({"event": "ready", "t": time.monotonic()})
    if args.setup_only:
        return 0

    trace = Trace(False)

    def job():
        strategy = build_strategy(
            "asha", num_slots=task.num_slots, num_ops=task.num_ops,
            max_budget=task.max_budget, seed=args.seed,
            num_trials=NUM_TRIALS, min_budget=MIN_BUDGET, eta=ETA)
        return TrialScheduler(task, strategy, workers=WORKERS).run()

    first = []

    def check(report):
        outcome = summary(report)
        trace.count("trials", outcome["trials"])
        trace.count("trial_epochs", outcome["epochs"])
        if not first:
            first.append(outcome)
        elif outcome != first[0]:
            return ("ASHA job disagrees with the run's first job "
                    "(leaderboard, trials or epochs)")
        if report.stats.failed or not report.leaderboard():
            return f"{report.stats.failed} failed trials"
        return None

    def summary(report):
        return {"leaderboard": [(r.trial_id, r.score, r.budget_used)
                                for r in report.leaderboard()],
                "trials": len(report.results),
                "epochs": sum(r.budget_used for r in report.results)}

    jobs = run_jobs(job, check, args.seconds, MIN_JOBS, trace,
                    bool(args.trace))
    per_layer = {}
    if args.trace:
        traced = [(report, wall) for wall, report in jobs.traced]
        for rung in range(3):
            seconds = [r.seconds for report, _ in traced
                       for r in report.results if r.rung == rung]
            per_layer[f"tune.trial_ms.r{rung}"] = (
                median(seconds) * 1e3 if seconds else 0.0)
        per_layer["tune.busy_share"] = median([
            sum(r.seconds for r in report.results) / (WORKERS * wall)
            for report, wall in traced])
        per_layer["tune.trials"] = first[0]["trials"]
        per_layer["tune.trial_epochs"] = first[0]["epochs"]
        per_layer["tune.retries"] = sum(report.stats.retried
                                        for report, _ in traced)
        per_layer["tune.worker_deaths"] = sum(report.stats.worker_deaths
                                              for report, _ in traced)
        per_layer["trace.overhead_pct"] = jobs.overhead_pct()

    untraced = [report for _, report in jobs.untraced]
    # first-rung trials are one population (same 7-epoch budget); later
    # rungs have other budgets, so a percentile over all trials would
    # straddle the gap between rungs
    trial_ms = [r.seconds * 1e3 for report in untraced
                for r in report.results if r.rung == 0]
    epoch_ms = [r.seconds * 1e3 / r.budget_used for report in untraced
                for r in report.results if r.budget_used]
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    emit({"event": "result", "attempted": jobs.attempted,
          "failed": jobs.failed, "problems": jobs.problems,
          "job_s": [seconds for seconds, _ in jobs.untraced],
          "trial_ms": trial_ms,
          "trial_epoch_ms": epoch_ms, "rss_mb": rss, "per_layer": per_layer,
          "spans": trace.spans, "counts": trace.counts,
          "runtime_profile": current_profile().name, "blas": blas_info()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
