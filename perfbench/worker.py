"""One workload run in its own process; started by run.py, not by hand.

The worker builds the workload's inputs, runs one untimed warm-up op, and
then repeats the workload's pass (a fixed list of ops) until the next pass
would overrun `--seconds`. Every op's output is checked right after the op,
outside its timing. With `--trace 1` untraced and traced passes alternate:
untraced passes give the end-to-end figures, traced ones the spans, and the
difference between their pass times is the tracing overhead. The end-to-end
figures use each op's best time over the untraced passes, divided by the
best time of a fixed calibration loop run between passes. The last line of
stdout is one JSON object for run.py.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
from mastat import _kernels

from metrics import LAYERS, TINY_CALLS
from spans import Layers, Tracer, durations, median_or_zero, op_self_times, percentile
from workloads import WORKLOADS


#: calibration loops run after every pass
CAL_PER_PASS = 3


def calibration_s():
    """Time of a fixed pure-Python loop, about 1 ms. Its best time over a
    run is the unit of the end-to-end timings: on a shared 2-core virtual
    machine the host's speed drifts by 20% or more over minutes, and this
    loop drifts with it. It calls nothing of mastat."""
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i % 7
    return time.perf_counter() - start


class PassResult:
    def __init__(self):
        self.latencies = []  # seconds per op, checks excluded
        self.check_times = []
        self.failures = []  # (op index, check name)
        self.clock = 0.0  # wall clock of the pass, checks included

    @property
    def wall(self):
        """Time to complete the pass's ops."""
        return sum(self.latencies)


def run_pass(workload_name, ops, api, check):
    """Run every op once; check(index, output) returns None or a check name."""
    res = PassResult()
    pass_start = time.perf_counter()
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            if api.tracer is None:
                out = op.run(api)
            else:
                with api.tracer.op(f"{workload_name}.op", op.label):
                    out = op.run(api)
        except Exception as exc:  # an op that raises is a failed op
            res.latencies.append(time.perf_counter() - start)
            res.failures.append((index, f"{workload_name}.raised-{type(exc).__name__}"))
            traceback.print_exc(file=sys.stderr)
            continue
        res.latencies.append(time.perf_counter() - start)
        check_start = time.perf_counter()
        try:
            failure = check(index, out)
        except Exception as exc:  # malformed output that the check cannot read
            failure = f"{workload_name}.unreadable-{type(exc).__name__}"
        res.check_times.append(time.perf_counter() - check_start)
        if failure is not None:
            res.failures.append((index, failure))
    res.clock = time.perf_counter() - pass_start
    return res


def timed_phase(workload, ops, plain, traced, seconds):
    """Repeat the pass until the next one would end past `seconds`.
    Returns [(traced?, PassResult)], with tracing alternating passes, and
    the calibration times taken between passes."""
    passes = []
    calibrations = []
    start = time.perf_counter()
    while True:
        use_trace = traced is not None and len(passes) % 2 == 1
        api = traced if use_trace else plain
        passes.append((use_trace, run_pass(workload.name, ops, api, workload.check)))
        calibrations.extend(calibration_s() for _ in range(CAL_PER_PASS))
        elapsed = time.perf_counter() - start
        longest = max(p.clock for _, p in passes)
        enough = len(passes) >= (2 if traced is not None else 1)
        if enough and elapsed + longest > seconds:
            return passes, calibrations


def failed_ops(passes, late_failures):
    """Failure names per failed (pass, op) attempt. A failure found after the
    timed phase (a recheck) fails that op in every pass."""
    failed = {}
    for p, (_, res) in enumerate(passes):
        for index, name in res.failures:
            failed[(p, index)] = name
    for index, name in late_failures:
        for p in range(len(passes)):
            failed.setdefault((p, index), name)
    return failed


def generic_layer_metrics(spans, passes):
    """Per-layer figures every workload reports from its traced passes."""
    m = {}
    for name in TINY_CALLS:
        took = durations(spans, name)
        m[f"{name}.us_p50"] = 1e6 * median_or_zero(took)
        m[f"{name}.calls"] = len(took)
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(
            1 for s in spans if s[1] is not None and s[2].startswith(layer + ".") and s[6]
        )
    m["bench.op_self.us_p50"] = 1e6 * median_or_zero(op_self_times(spans))
    m["bench.check.us_p50"] = 1e6 * statistics.median(
        t for _, res in passes for t in res.check_times
    )
    walls = {flag: [res.wall for traced, res in passes if traced is flag] for flag in (False, True)}
    m["bench.trace_overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return m


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    try:
        ops = workload.ops()
        plain = Layers()
        ops[0].run(plain)  # warm-up, untimed
        t_first = time.monotonic()
        if args.setup_only:
            print(json.dumps({"t_first": t_first}))
            return 0
        tracer = Tracer() if args.trace else None
        traced = Layers(tracer) if tracer else None
        passes, calibrations = timed_phase(workload, ops, plain, traced, args.seconds)
        failed = failed_ops(passes, workload.finish())
        layer = {}
        extra = PassResult()  # the traced run's one-off extra ops
        if tracer:
            layer = generic_layer_metrics(tracer.spans, passes)
            extra = run_pass(workload.name, workload.extra_ops(), traced, workload.check_extra)
            layer.update(workload.layer_metrics(tracer.spans))
            tracer.write(os.path.join(
                args.workdir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        workload.close()

    untraced = [res for flag, res in passes if not flag]
    # Each op runs once per pass on the same input. Its best time over the
    # untraced passes is its cost without the noise of shared CPUs, whose
    # speed can flip between a fast and a slow state every few seconds.
    best = [min(times) for times in zip(*(res.latencies for res in untraced))]
    best_ms = [t * 1e3 for t in best]
    p90, beyond = percentile(best_ms, 0.9)
    cal_ms = min(calibrations) * 1e3
    layer["bench.cal_ms"] = cal_ms
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "t_first": t_first,
        "passes": len(untraced),
        "ops_per_pass": len(ops),
        "attempted": sum(len(res.latencies) for _, res in passes) + len(extra.latencies),
        "failed": len(failed) + len(extra.failures),
        "failures": sorted(set(failed.values()) | {name for _, name in extra.failures}),
        "beyond_p90": beyond,
        "median_pass_s": statistics.median(res.wall for res in untraced),
        "calibrations": len(calibrations),
        "raw": {
            "wall_s": sum(best),
            "op_p50_ms": statistics.median(best_ms),
            "op_p90_ms": p90,
            "cal_ms": cal_ms,
        },
        "end_to_end": {
            "wall_cal": sum(best) * 1e3 / cal_ms,
            "op_p50_cal": statistics.median(best_ms) / cal_ms,
            "op_p90_cal": p90 / cal_ms,
            "peak_rss_mb": rss_kb / 1024.0,
        },
        "per_layer": layer,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernels": _kernels.active_path(),
            "numba": importlib.util.find_spec("numba") is not None,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
