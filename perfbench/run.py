"""forecast-uq benchmark: the four CLI stages on three workloads.

    python3 perfbench/run.py --workload dense-grid --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

With ``--trace 0`` the run reports the end-to-end metrics: the median
set-up time of several fresh interpreters, the median pipeline wall time,
peak RSS and the two quality readouts. With ``--trace 1`` one traced
process reports the per-layer metrics instead. ``--workload all`` runs
every workload both ways and also prints the tracing overhead and each
layer's share of the traced self time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every CLI stage
call is one operation; a call that exits non-zero or whose outputs fail a
check counts as failed. Work files live in ``.perfbench_work/`` under the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SESSION = os.path.join(HERE, "session.py")

SETUP_REPEATS = 3  # fresh interpreters per untraced run; set-up reports their median
RUN_BUDGET_S = 170.0  # every process of one run ends within this


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, work: str, tag: str,
          deadline: float, setup_only: bool = False) -> dict:
    """Run one session process and return its readings."""
    session_dir = os.path.join(work, tag)
    result_path = os.path.join(work, f"{tag}.json")
    log_path = os.path.join(work, f"{tag}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        command = [
            sys.executable, SESSION, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace), "--work", session_dir,
            "--result", result_path, *(["--setup-only"] if setup_only else []),
            "--spawned-at", repr(time.monotonic()),
        ]
        proc = subprocess.Popen(command, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:  # the session and any job workers it left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        with open(log_path, "r", encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        reason = "timed out" if code is None else f"exited with code {code}"
        raise BenchError(f"{workload} session {tag} {reason}:\n{tail}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _median(values) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: int, work: str) -> dict:
    """One benchmark run; returns the result line's fields plus details."""
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(work, exist_ok=True)
    sessions = []
    if not trace:
        for i in range(SETUP_REPEATS - 1):
            sessions.append(spawn(workload, seed, seconds, trace, work, f"setup{i}", deadline, True))
    main = spawn(workload, seed, seconds, trace, work, "main", deadline)
    sessions.append(main)

    ops = [op for s in sessions for op in s["ops"]]
    failed = [op for op in ops if op["problems"]]
    iterations = main["iterations"]
    if trace:
        metrics = {
            name: {"value": _median(it["layers"][name] for it in iterations), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        if main["quality"] is None:
            raise BenchError(f"{workload}: no evaluate call passed its checks: {failed}")
        values = {
            "setup_s": _median(s["setup_s"] for s in sessions),
            "pipeline_s": _median(it["pipeline_s"] for it in iterations),
            # RUSAGE_CHILDREN reports the largest job worker, not their sum
            "peak_rss_mb": max(main["rss_self_mb"], main["rss_children_mb"]),
            **main["quality"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
        "problems": failed,
        "iterations": iterations,
        "setups": [s["setup_s"] for s in sessions],
        "hashes": main["hashes"],
        "env": main["env"],
    }


def print_run(workload: str, trace: int, run: dict) -> None:
    print(f"# {workload} trace={trace}: {len(run['iterations'])} repetition(s), "
          f"{run['attempted']} stage calls, {run['failed']} failed")
    for op in run["problems"]:
        print(f"#   FAILED {op['stage']}: {op['problems']}")
    print("#   set-up times " + json.dumps([round(v, 3) for v in run["setups"]]))
    for it in run["iterations"]:
        print("#   stage walls " + json.dumps({k: round(v, 3) for k, v in it["walls"].items()}))
    print("#   env " + json.dumps(run["env"], sort_keys=True))
    print("#   hashes " + json.dumps(run["hashes"], sort_keys=True))
    for name, metric in run["metrics"].items():
        print(f"#   {name:32s} {metric['value']:14.6g} {metric['unit']}")


def self_time_shares(run: dict) -> tuple[dict[str, float], float]:
    """Each layer's share of the traced busy time, and the pool wait in seconds.

    Busy time is the self time of every span, summed over the process and
    its ``--jobs`` workers, so with jobs > 1 it exceeds the wall time. The
    parent idling on the pool is not busy; it is returned on its own.
    """
    totals = {}
    for it in run["iterations"]:
        for layer, seconds in it["self_times"].items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    wait = totals.pop("wait") / len(run["iterations"])
    busy = sum(totals.values())
    return {layer: seconds / busy for layer, seconds in totals.items()}, wait


def run_all(seed: int, seconds: float, work: str) -> dict:
    """Every workload untraced then traced, with overhead and layer shares."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        plain = measure(name, seed, seconds, 0, os.path.join(work, f"{name}-plain"))
        traced = measure(name, seed, seconds, 1, os.path.join(work, f"{name}-traced"))
        print_run(name, 0, plain)
        print_run(name, 1, traced)
        overhead = traced["metrics"]["trace.pipeline_s"]["value"] - plain["metrics"]["pipeline_s"]["value"]
        shares, wait = self_time_shares(traced)
        print(f"#   tracing overhead {overhead:+.3f} s on pipeline_s")
        print("#   busy self-time shares " + json.dumps({k: round(v, 3) for k, v in shares.items()})
              + f", pool wait {wait:.3f} s")
        summary["correct"] &= plain["correct"] and traced["correct"]
        summary["attempted"] += plain["attempted"] + traced["attempted"]
        summary["failed"] += plain["failed"] + traced["failed"]
        summary["workloads"][name] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "tracing_overhead_s": overhead,
            "busy_self_time_shares": shares,
            "pool_wait_s": wait,
            "env": plain["env"],
            "hashes": plain["hashes"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", help="with --workload all, also write the summary JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "forecast_uq", "cli.py")):
        print(f"error: no forecast_uq sources under {ROOT}/src", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        if args.workload == "all":
            summary = run_all(args.seed, args.seconds, work)
            if args.summary:
                with open(args.summary, "w", encoding="utf-8") as fh:
                    json.dump(summary, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            line = {k: summary[k] for k in ("correct", "attempted", "failed")}
        else:
            run = measure(args.workload, args.seed, args.seconds, args.trace, work)
            print_run(args.workload, args.trace, run)
            line = {k: run[k] for k in ("correct", "attempted", "failed", "metrics")}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
