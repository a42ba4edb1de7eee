"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tiny-batch --seed 1 --seconds 20 --trace 0

Run it from the root of a mastat checkout; the library is imported from
./src. Each workload runs in its own single-threaded worker process (BLAS and
OpenMP pools capped at one thread). The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, where `metrics` holds every
end-to-end metric with `--trace 0` and every per-layer metric with
`--trace 1` (see metrics.py and README.md). The lines before it give the
same figures with their sample counts, the raw times behind the end-to-end
timings, the failure ratio, the environment and a machine-drift reference.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here and in workers

import numpy as np  # noqa: E402

from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: worker starts whose median is setup_s, by input size. Half of them run
#: before the measured worker and half after, so that they sample the
#: machine's speed over the whole run.
SETUP_SAMPLES = {"full": 9, "tiny": 2}

#: a run must end within this many seconds
RUN_LIMIT_S = 170.0


def git_commit(root):
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_ms():
    """Fixed pure-numpy work. Timed at the start and end of every run, it
    shows how fast the machine was beside every figure of the run."""
    a = np.linspace(0.0, 1.0, 1 << 16)
    start = time.perf_counter()
    for _ in range(20):
        np.sort(np.sin(a * 7.3))
    return (time.perf_counter() - start) * 1e3


class WorkerError(Exception):
    pass


def spawn(args, env, workdir, deadline, setup_only):
    """Start one worker, wait for it, and return its result with setup_s:
    the time from process start to its first timed op."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--workdir", workdir,
    ] + (["--setup-only"] if setup_only else [])
    t_spawn = time.monotonic()
    # own process group, so a timeout stops the worker and every process it started
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker passed the {RUN_LIMIT_S:.0f} s run limit")
    finally:  # also when run.py itself is stopped
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def report(args, env_info, setups, res, refs, metrics):
    """Human-readable lines; the JSON result line follows them."""
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(env_info, sort_keys=True))
    rows = dict(res["end_to_end"], **res["raw"], setup_s=statistics.median(setups))
    ops = f"{res['ops_per_pass']} ops' best times"
    notes = {
        "setup_s": f"median of {len(setups)} worker starts",
        "wall_s": f"sum of {ops} over {res['passes']} passes; "
                  f"median pass {res['median_pass_s']:.6g} s",
        "op_p50_ms": f"median of {ops}",
        "op_p90_ms": f"90th percentile of {ops}, {res['beyond_p90']} beyond",
        "cal_ms": f"best of {res['calibrations']} calibration loops",
        "wall_cal": "wall_s / cal_ms",
        "op_p50_cal": "op_p50_ms / cal_ms",
        "op_p90_cal": "op_p90_ms / cal_ms",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    units = dict(END_TO_END, wall_s="s", op_p50_ms="ms", op_p90_ms="ms", cal_ms="ms")
    for name in notes:
        print(f"  {name:<40s} {rows[name]:>14.6g} {units[name]:<6s} {notes[name]}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':<40s} {ratio:>14.6g} {'':<6s} "
          f"{res['failed']}/{res['attempted']} {' '.join(res['failures'])}")
    print(f"  {'bench.ref_ms':<40s} {statistics.mean(refs):>14.6g} {'ms':<6s} "
          f"start {refs[0]:.3f}, end {refs[1]:.3f}")
    if args.trace:
        units = dict(PER_LAYER)
        for name in sorted(metrics):
            print(f"  {name:<40s} {metrics[name]:>14.6g} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SETUP_SAMPLES), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    # a stopped run raises SystemExit, so spawn's cleanup stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mastat", "__init__.py")):
        print("perfbench: src/mastat not found; run from a mastat checkout root",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    deadline = time.monotonic() + RUN_LIMIT_S

    def setup_only(count):
        return [spawn(args, env, workdir, deadline, setup_only=True)["setup_s"]
                for _ in range(count)]

    refs = [reference_ms()]
    extra_starts = SETUP_SAMPLES[args.size] - 1
    try:
        setups = setup_only(extra_starts - extra_starts // 2)
        res = spawn(args, env, workdir, deadline, setup_only=False)
        setups += [res["setup_s"]] + setup_only(extra_starts // 2)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    refs.append(reference_ms())

    if args.trace:
        metrics = {name: 0.0 for name, _ in PER_LAYER}
        unknown = set(res["per_layer"]) - set(metrics)
        if unknown:
            print(f"perfbench: undeclared metrics {sorted(unknown)}", file=sys.stderr)
            return 1
        metrics.update(res["per_layer"])
        metrics["bench.ref_ms"] = statistics.mean(refs)
        units = dict(PER_LAYER)
    else:
        metrics = dict(res["end_to_end"], setup_s=statistics.median(setups))
        units = dict(END_TO_END)
    env_info = dict(res["env"], cpus=os.cpu_count(), commit=git_commit(root),
                    seed=args.seed, threads=1)
    report(args, env_info, setups, res, refs, metrics)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
