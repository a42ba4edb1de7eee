"""Tests of the benchmark itself. From the checkout root:

    python -m pytest perfbench
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from mastat import cgf, dist, dominance  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_declares_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = dict(PER_LAYER if trace else END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    table = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}\b", table, re.M)
    assert re.search(r"^  fail_ratio +0 ", table, re.M)


def _corrupt_search(label, out):
    if label == "gambles":
        return out[:-1]
    if label == "median-coarse":
        return ("a quadruple",)
    if label == "large-n":
        return 1
    return dist.shift(out, 0.5)


def _fosd_without_sosd(label, out):
    first = dominance.FosdResult(True, False, None, 0.0)
    second = dominance.SosdResult(False, 0.0, -1.0)
    return out[:3] + (first, second) + out[5:]


def _tiny(corrupt_case, corrupt_cli):
    """tiny-batch passes end with in-process CLI runs, labelled by subcommand."""
    return lambda label, out: corrupt_case(label, out) if label == "case" else corrupt_cli(out)


CORRUPTIONS = [
    ("tiny-batch", _tiny(
        lambda label, out: out[:2] + (out[2][:2] + (out[2][2] + 1e-6,),) + out[3:],
        lambda out: (out[0] + 1, out[1]),
    )),
    ("tiny-batch", _tiny(_fosd_without_sosd, lambda out: (out[0], b"{}\n"))),
    ("catalyst-ladder", lambda label, out: (
        dataclasses.replace(out, order=cgf.KOrder.WEAK)
        if label == "k-dominates"
        else dataclasses.replace(out, worst_gap=-1e-3)
    )),
    ("search", _corrupt_search),
]


@pytest.mark.parametrize("name, corrupt", CORRUPTIONS)
def test_checks_count_a_wrong_output_as_failed(name, corrupt, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))  # for cli processes
    workload = workloads.WORKLOADS[name](3, "tiny", str(tmp_path))
    try:
        ops = workload.ops()
        api = spans.Layers()
        assert worker.run_pass(name, ops, api, workload.check).failures == []

        def check_corrupted(index, out):
            return workload.check(index, corrupt(ops[index].label, out))

        res = worker.run_pass(name, ops, api, check_corrupted)
    finally:
        workload.close()
    failed = worker.failed_ops([(False, res)], [])
    assert len(failed) == len(res.latencies) == len(ops)
    assert all(check.startswith(name + ".") for check in failed.values())


@pytest.mark.parametrize("name, index, wrong", [
    ("catalyst-ladder", 1, -1e-3),  # worst gap of the final-rung recheck, after its rung
    ("search", 1, ("a quadruple",)),  # the exhaustive search must find none
    ("tiny-batch", 0, (3, b"")),  # exit code of the phi process
])
def test_extra_op_checks_reject_a_wrong_output(name, index, wrong, tmp_path):
    workload = workloads.WORKLOADS[name](3, "tiny", str(tmp_path))
    try:
        workload.extra_ops()
        assert workload.check_extra(index, wrong).startswith(name + ".")
    finally:
        workload.close()


def test_traced_op_is_parent_of_its_layer_calls(tmp_path):
    workload = workloads.TinyBatch(3, "tiny", str(tmp_path))
    tracer = spans.Tracer()
    res = worker.run_pass(workload.name, workload.ops()[:1], spans.Layers(tracer), workload.check)
    assert res.failures == []
    (op,) = [s for s in tracer.spans if s[1] is None]
    children = [s for s in tracer.spans if s[1] == op[0]]
    names = [s[2] for s in children]
    assert names.count("dist.make") == 2 and names.count("mas.evaluate") == 3
    assert "cgf.k_dominates" in names and "dominance.sosd" in names
    (self_time,) = spans.op_self_times(tracer.spans)
    covered = sum(end - start for _, _, _, _, start, end, _ in children)
    assert self_time == pytest.approx((op[5] - op[4]) - covered)
    assert 0 <= self_time < op[5] - op[4]


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "tiny-batch", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _workers_with_seed(seed):
    """Pids of running worker processes started with `--seed seed`."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue
        if any(a.endswith(b"worker.py") for a in argv) and str(seed).encode() in argv:
            pids.append(pid)
    return pids


def test_stopping_a_run_stops_its_worker():
    seed = 918273
    proc = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "tiny-batch",
         "--seed", str(seed), "--seconds", "30", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        for _ in range(100):  # until the first worker has started
            if _workers_with_seed(seed):
                break
            time.sleep(0.1)
        proc.terminate()
        assert proc.wait(timeout=30) != 0
        assert _workers_with_seed(seed) == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
