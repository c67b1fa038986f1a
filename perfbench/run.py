"""AutoAC benchmark runner.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` is a separate run that records spans and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it (``run: {...}``) is the run's fingerprint and sample counts.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import (SETUP_SPAWNS, RunFailed, Trace,  # noqa: E402
                    blas_info, fingerprint, host_calib_ms, median,
                    signal_group, start_process, stop_process, tail)

#: a workload process still running this long after the run's budget
#: is killed and the run fails
GRACE_S = 100.0


def tail_percentile(why: str, workload: str) -> float:
    """The workload's pinned tail percentile, written as ``tail pNN`` in
    its ``why`` line of ``BENCHMARK.json``."""
    match = re.search(r"\btail p(\d+(?:\.\d+)?)\b", why)
    if match is None:
        raise RunFailed(f"BENCHMARK.json pins no tail percentile for "
                        f"{workload!r}")
    return float(match.group(1))


def spawn(root: Path, workdir: Path, workload: str, seed: int,
          seconds: float, traced: bool, setup_only: bool):
    """One fresh workload process; returns (set-up seconds, result)."""
    script = BENCH / f"workload_{workload}.py"
    cmd = [sys.executable, str(script), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    log = open(workdir / f"{workload}-{time.monotonic_ns()}.log", "wb")
    spawned = time.monotonic()
    proc = start_process(cmd, root, workdir, stdout=subprocess.PIPE,
                         stderr=log, text=True)
    watchdog = threading.Timer(seconds + GRACE_S, signal_group,
                               (proc, signal.SIGKILL))
    watchdog.start()
    events: Dict[str, Dict] = {}
    try:
        for line in proc.stdout:
            if line.startswith('{"event"'):
                event = json.loads(line)
                events[event["event"]] = event
        proc.wait()
    finally:
        watchdog.cancel()
        stop_process(proc)
        log.close()
    if proc.returncode != 0 or "ready" not in events or (
            not setup_only and "result" not in events):
        tail_lines = Path(log.name).read_text(errors="replace")[-2000:]
        raise RunFailed(f"{workload} process exited with {proc.returncode}:"
                        f"\n{tail_lines}")
    return events["ready"]["t"] - spawned, events.get("result")


def run_process_workload(root: Path, workdir: Path, workload: str,
                         seed: int, seconds: float, traced: bool,
                         tail_q: float, trace: Trace) -> Dict:
    """``search`` and ``tune``: the workload runs in a fresh process."""
    setups: List[float] = []
    if not traced:
        for _ in range(SETUP_SPAWNS - 1):
            setups.append(spawn(root, workdir, workload, seed, seconds,
                                False, True)[0])
    setup, result = spawn(root, workdir, workload, seed, seconds, traced,
                          False)
    setups.append(setup)
    trace.spans.extend(result["spans"])
    for name, value in result["counts"].items():
        trace.count(name, value)
    out = {"attempted": result["attempted"], "failed": result["failed"],
           "problems": result["problems"], "per_layer": result["per_layer"],
           "end_to_end": {}, "samples": {},
           "runtime_profile": result["runtime_profile"],
           "blas": result["blas"], "settings_from": "workload process"}
    if traced:
        return out
    if workload == "search":
        latency, read = result["epoch_ms"], result["score_ms"]
    else:
        latency, read = result["trial_ms"], result["trial_epoch_ms"]
    tail_ms, beyond = tail(latency, tail_q, f"{workload} latency")
    out["end_to_end"] = {
        "setup_s": median(setups),
        "job_s": median(result["job_s"]),
        "latency_p50_ms": median(latency),
        "latency_tail_ms": tail_ms,
        "read_p50_ms": median(read),
        "rss_mb": result["rss_mb"],
    }
    out["samples"] = {"jobs": len(result["job_s"]), "latency": len(latency),
                      "beyond_tail": beyond, "reads": len(read),
                      "setup_spawns": len(setups)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so every process started so far
    # is stopped and reaped by the ``finally`` blocks on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {root / 'src' / 'repro'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    trace = Trace(traced)

    calib_start = host_calib_ms()
    (BENCH / ".out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".out"))
    try:
        tail_q = tail_percentile(workloads[args.workload]["why"],
                                 args.workload)
        if args.workload in ("search", "tune"):
            outcome = run_process_workload(
                root, workdir, args.workload, args.seed, args.seconds,
                traced, tail_q, trace)
        else:
            sys.path.insert(0, str(root / "src"))
            import serving

            outcome = serving.run(args.workload, root, workdir, args.seed,
                                  args.seconds, traced, tail_q, trace)
            from repro.perf import current_profile

            # ``repro serve`` exposes neither its runtime profile nor its
            # BLAS threads, so these describe this (client) process, which
            # has the same environment and libraries as the server
            outcome["runtime_profile"] = current_profile().name
            outcome["blas"] = blas_info()
            outcome["settings_from"] = "runner process, not repro serve"
    except RunFailed as error:
        print(f"error: run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_end = host_calib_ms()

    names = spec["per_layer"] if traced else spec["end_to_end"]
    values = dict(outcome["per_layer"] if traced else outcome["end_to_end"])
    if traced:
        # layers this workload does not exercise did no work in it
        values["host.calib_ms"] = (calib_start + calib_end) / 2
        values = {m["name"]: values.get(m["name"], 0.0) for m in names}
        trace_dir = BENCH / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        print(f"error: run produced no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in names}
    run_info = {**fingerprint(root, args.workload, args.seed),
                "trace": traced, "seconds": args.seconds,
                "tail_percentile": tail_q,
                "runtime_profile": outcome["runtime_profile"],
                "blas": outcome["blas"],
                "settings_from": outcome["settings_from"],
                "host_calib_ms": {"start": calib_start, "end": calib_end},
                "samples": outcome["samples"],
                "problems": outcome["problems"]}
    print("run: " + json.dumps(run_info))
    failed = int(outcome["failed"])
    print(json.dumps({"correct": failed == 0,
                      "attempted": int(outcome["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
