"""Tests of the benchmark itself, on shortened variants of each workload.

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench_ops
import run

assert run.use_checkout_src()

SEED = 5
EXACT_COUNTERS = (
    "_kernels.scan_steps", "torus_winding.s_sum", "torus_winding.candidates",
    "torus_winding.exact_rejections", "modal_planner.objective_evals",
    "modal_planner.lbfgs_iters", "modal_planner.restarts",
    "lie_certifier.brackets_tried",
)


def _declared(kind):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _failures(result):
    return [r["why"] for r in result["results"] if not r["ok"]] + result["problems"]


@pytest.mark.parametrize("workload", bench_ops.WORKLOADS)
def test_traced_runs_repeat_exactly(workload, tmp_path):
    first = run.measure(workload, SEED, 0, True, tmp_path / "a", short=True)
    second = run.measure(workload, SEED, 0, True, tmp_path / "b", short=True)
    assert _failures(first) == [] and _failures(second) == []
    for name in EXACT_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    traced, plain = first["passes"]
    # the traced count of accepted winding indices matches the untraced artifacts
    assert first["metrics"]["torus_winding.s_sum"][0] == sum(
        s for r in plain for s in r["s"])
    # tracing never leaks into the artifacts
    assert [r["digests"] for r in traced] == [r["digests"] for r in plain]
    # repeating an op gives the same bytes
    assert [r["digests"] for r in traced] == [r["digests"] for r in second["passes"][0]]
    assert set(first["metrics"]) == _declared("per_layer")


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = run.measure("winding_mix", SEED, 0, False, tmp_path, short=True)
    assert _failures(result) == []
    line = run.report("winding_mix", SEED, result)
    assert line["correct"] and line["attempted"] == result["ops"]
    assert set(line["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_reference_seed_draws_the_c4_requests():
    ref = bench_ops.load_reference()
    drawn = bench_ops.winding_requests(ref["seed"], len(ref["requests"]))
    assert drawn == [{k: v for k, v in r.items() if k != "outcome"}
                     for r in ref["requests"]]
    outcomes = [r["outcome"] for r in ref["requests"]]
    assert outcomes.count("exhausted") == 19 and len(outcomes) == 50


def test_every_run_checks_the_reference_requests():
    ref = bench_ops.load_reference()
    expected = []
    for r in ref["requests"]:
        op = bench_ops.decouple_op(r, ref["s_max"], r["outcome"])
        expected += [op] * (1 if r["outcome"] == "exhausted" else bench_ops.HIT_SAMPLES)
    key = lambda op: op.argv  # noqa: E731
    assert sorted(bench_ops.make_ops("winding_mix", SEED), key=key) == sorted(expected, key=key)


@pytest.mark.parametrize("workload", bench_ops.WORKLOADS)
def test_seed_sets_the_order_only(workload):
    a, b = (bench_ops.make_ops(workload, s) for s in (SEED, SEED + 1))
    assert a == bench_ops.make_ops(workload, SEED)
    assert a != b
    assert sorted(a, key=lambda op: op.argv) == sorted(b, key=lambda op: op.argv)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e2e_n3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
