"""diracflow benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.

--trace 0  times the workload: one fresh process runs ops back to back for S
           seconds of op time (at least 100 ops) and checks every result;
           set-up-only processes before and after it give setup_s, the
           median set-up time of three fresh processes.
--trace 1  one fresh process alternates untraced and traced passes of a
           fixed op prefix and reports per-layer counters and self times.

Workloads: field_grid, cli_mix (see README.md).
The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it records the environment and the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("field_grid", "cli_mix")

# Fresh set-up-only processes started before and after the timed one; with
# the timed process's own set-up they give three samples spread over the run,
# so a slow spell of the machine moves one of them, not the median.
SETUP_BEFORE = 1
SETUP_AFTER = 1
# Every run must end within this many seconds of starting.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {mode} process")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def timed_result(args, deadline: float, report: dict) -> dict:
    setups = [worker(args, "setup", deadline)["setup"] for _ in range(SETUP_BEFORE)]
    run = worker(args, "timed", deadline)
    setups.append(run["setup"])
    setups += [worker(args, "setup", deadline)["setup"] for _ in range(SETUP_AFTER)]
    lat_ms = [1e3 * x for x in run["latencies_s"]]
    failed = run["attempted"] - run["passed"]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    report.update({
        # Each sample's set-up split into import, inputs and warm-up, plus
        # its CPU time, in the order the processes ran.
        "setup_samples": {k: [x[k] for x in setups] for k in setups[0]},
        "setup_medians": {k: statistics.median(x[k] for x in setups) for k in setups[0]},
        "ops": run["attempted"],
        "p90_samples_beyond": sum(1 for x in lat_ms if x > p90),
        "op_time_s": run["op_time_s"],
        "per_case_p50_ms": {c: statistics.median(x for x, k in zip(lat_ms, run["cases"]) if k == c)
                            for c in sorted(set(run["cases"]))},
        "problems": (run["warmup_problems"] + run["problems"])[:20],
    })
    correct = failed == 0 and not run["warmup_problems"]
    metrics = {
        "setup_s": (statistics.median(x["setup_s"] for x in setups), "s"),
        "ops_per_s": (run["passed"] / run["op_time_s"], "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "pass_frac": (run["passed"] / run["attempted"], "frac"),
    }
    return {"correct": correct, "attempted": run["attempted"], "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def trace_result(args, deadline: float, report: dict) -> dict:
    sys.path.insert(0, HERE)
    from tracing import PER_LAYER

    run = worker(args, "trace", deadline)
    problems = run["warmup_problems"] + run["problems"]
    report.update({"passes": run["passes"], "pass_ops": run["pass_ops"],
                   "deterministic": run["deterministic"], "problems": problems[:20],
                   "traced_pass_s": run["traced_pass_s"], "plain_pass_s": run["plain_pass_s"]})
    return {"correct": not problems, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": {k: {"value": run["metrics"][k], "unit": PER_LAYER[k][0]}
                        for k in PER_LAYER}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "diracflow", "__init__.py")):
        return fail(f"no diracflow sources under {os.path.join(ROOT, 'src')}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_start": os.getloadavg()}
    try:
        report["env"] = environment()
        result = (trace_result if args.trace else timed_result)(args, deadline, report)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(str(exc))
    report["loadavg_end"] = os.getloadavg()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
