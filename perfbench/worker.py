"""One benchmark process: set a workload up, then run it in one of four modes.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

Modes:
  setup    time set-up only and exit (run.py starts several, for setup_s)
  timed    set up, then a closed loop of ops for S seconds of op time,
           each op checked against its reference outside the timed region
  trace    alternate untraced and traced passes of a fixed op prefix for S
           seconds; reports per-layer counters and self times, checks that
           every traced pass gives exactly the same counters, and writes the
           spans of the first traced pass to .perfbench/ in the checkout
  profile  one cProfile run of two passes; prints the top functions by
           self time

Set-up is measured from the first line of this file: importing diracflow,
generating the inputs from the seed and one untimed warm-up op per case.
The last line of stdout is one JSON object for run.py.
"""

import time

_T0 = time.perf_counter()
_C0 = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import diracflow as df  # noqa: E402

if not os.path.abspath(df.__file__).startswith(os.path.join(SRC, "diracflow") + os.sep):
    sys.exit(f"diracflow imported from {df.__file__}, not from {SRC}")

from tracing import PER_LAYER, Tracer, install, pass_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_T_IMPORTED = time.perf_counter()

# Each timed run keeps going past --seconds until it has this many ops, so
# the 90th percentile has at least ten samples beyond it...
MIN_OPS = 100
# ...unless that would stretch the loop this far past --seconds.
OVERRUN_S = 10.0
# Functions the profile mode lists.
PROFILE_TOP = 25
# The SPA-regime warning the CLI issues for FIG3 on every run.
warnings.filterwarnings("ignore", message="packet violates the SPA regime")


def set_up(name: str, seed: int):
    """(workload, warm-up outputs, set-up times in seconds).

    ``setup_s`` is the whole set-up; ``import_s``, ``inputs_s`` and
    ``warmup_s`` are its three parts and ``cpu_s`` the CPU time it took.
    """
    t_start = time.perf_counter()
    scratch = os.path.join(ROOT, ".perfbench", f"tmp-{name}-{os.getpid()}")
    wl = WORKLOADS[name](df, seed, scratch)
    t_inputs = time.perf_counter()
    warm = [(i, wl.op(i)) for i in wl.warmup_ops()]
    t_end = time.perf_counter()
    return wl, warm, {"setup_s": t_end - _T0, "import_s": _T_IMPORTED - _T0,
                      "inputs_s": t_inputs - t_start, "warmup_s": t_end - t_inputs,
                      "cpu_s": time.process_time() - _C0}


def check_warmups(wl, warm) -> list:
    wl.prepare_checks()
    problems = []
    for i, out in warm:
        problems.extend(wl.check(i, out)[0])
    return problems


def run_op(wl, i):
    """(output or None, seconds, error message or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
    except Exception as exc:  # an op that raises counts as failed
        return None, time.perf_counter() - t0, f"op {i}: {type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, None


def timed(wl, seconds: float) -> dict:
    latencies, cases, ok, problems = [], [], [], []
    op_time = 0.0
    start = time.perf_counter()
    i = 0
    # Stop only after whole case rotations, so every run times the same mix.
    while (op_time < seconds or i < MIN_OPS or i % len(wl.cases)) \
            and time.perf_counter() - start < seconds + OVERRUN_S:
        out, dt, error = run_op(wl, i)
        latencies.append(dt)
        cases.append(wl.case_of(i))
        op_time += dt
        found = [error] if error else wl.check(i, out)[0]
        ok.append(not found)
        problems.extend(found)
        i += 1
    return {"latencies_s": latencies, "cases": cases, "passed": sum(ok), "attempted": i,
            "op_time_s": op_time, "problems": problems}


def run_pass(wl, tracer=None):
    """Run the workload's fixed op prefix; returns (op seconds, failed ops, problems)."""
    total = 0.0
    failed = 0
    problems = []
    for i in range(wl.pass_ops):
        root = tracer.open("op", wl.case_of(i)) if tracer else None
        out, dt, error = run_op(wl, i)
        if tracer:
            tracer.close(root)
        total += dt
        found, ref_err = ([error], None) if error else wl.check(i, out)
        failed += bool(found)
        problems.extend(found)
        if tracer and ref_err is not None:
            tracer.record_max("dirac_exact.max_ref_err", ref_err)
    return total, failed, problems


def traced(wl, seconds: float, name: str, seed: int) -> dict:
    tracer = Tracer()
    plain_s, traced_s, per_pass, problems = [], [], [], []
    failed = 0
    first_spans = None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(traced_s) < 2) \
            and time.perf_counter() - start < seconds + OVERRUN_S:
        dt, n_failed, found = run_pass(wl)
        plain_s.append(dt)
        failed += n_failed
        problems.extend(found)
        tracer.reset()
        install(tracer, df)
        try:
            dt, n_failed, found = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(dt)
        failed += n_failed
        problems.extend(found)
        per_pass.append(pass_metrics(tracer))
        if first_spans is None:
            first_spans = tracer.spans
    counters = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_pass]
    deterministic = all(c == counters[0] for c in counters[1:])
    if not deterministic:
        diff = sorted(k for k in counters[0] if any(c[k] != counters[0][k] for c in counters))
        problems.append(f"counters differ between identical traced passes: {diff}")
    metrics = dict(counters[0])
    for key in per_pass[0]:
        if key.endswith("_s"):
            metrics[key] = float(np.median([m[key] for m in per_pass]))
    metrics["trace.overhead_frac"] = float(np.median(traced_s) / np.median(plain_s) - 1.0)
    tracer.spans = first_spans
    tracer.write(os.path.join(ROOT, ".perfbench", f"trace-{name}-seed{seed}.jsonl"))
    assert set(metrics) == set(PER_LAYER), set(metrics) ^ set(PER_LAYER)
    return {"metrics": metrics, "passes": len(traced_s), "pass_ops": wl.pass_ops,
            "attempted": 2 * len(traced_s) * wl.pass_ops, "failed": failed,
            "deterministic": deterministic, "problems": problems,
            "traced_pass_s": traced_s, "plain_pass_s": plain_s}


def profile(wl) -> str:
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    for _ in range(2):
        run_pass(wl)
    prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(PROFILE_TOP)
    return buf.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "trace", "profile"])
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()

    wl, warm, setup = set_up(args.workload, args.seed)
    result = {"setup": setup}
    try:
        if args.mode != "setup":
            result["warmup_problems"] = check_warmups(wl, warm)
        if args.mode == "timed":
            result.update(timed(wl, args.seconds))
        elif args.mode == "trace":
            result.update(traced(wl, args.seconds, args.workload, args.seed))
        elif args.mode == "profile":
            print(profile(wl))
    finally:
        wl.cleanup()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
