#!/usr/bin/env python3
"""Benchmark of sideband-steer: certify, plan, lift and verify.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {e2e_n3,modal_p5,winding_mix} \\
        --seed N --seconds S --trace {0,1}

A workload is a fixed list of ops drawn from the seed (see bench_ops.py).
Every op is one in-process call of ``sideband_steer.cli.main`` with one
BLAS thread: a closed loop with a single client.

``--trace 0`` measures the end-to-end metrics with tracing off.  The op
list runs as many times as fits in ``--seconds`` (at least once).  An op
may appear in the list more than once; its time is the median of all its
runs.  ``setup_s`` is the median over several fresh interpreters of
importing ``sideband_steer.cli`` and building its parser.  ``op_s_p50``
and ``op_s_p80`` are band percentiles of the per-op times (see
:func:`band_percentile`).  A few cheap untimed ops run first, so that no
timed op pays for what the process loads on first use.  A list takes
20-45 s on a 2-core x86 virtual machine, so a 30 s run is one pass.
``--trace 1`` runs each op once traced and once untraced, and reports the
per-module metrics of the traced pass and the tracing overhead (traced
minus untraced wall time).  Per-op times and outcomes go to
``.perfbench_out/<workload>-<seed>/ops.jsonl``, spans of a traced run to
``spans.jsonl`` next to it.

Every op's output is checked (bench_ops.check), and every run of an op
must write the same bytes, traced or not.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it print every metric with its unit.

Kernel rates (``_kernels.scan_rate``, ``_kernels.objective_grad_rate``)
come from the workloads here.  ``benchmarks/benchmark_kernels.py`` is a
separate tool that times the numba kernels against their numpy
fallbacks in isolation; without numba it can only time numpy.  The
README points at it, so it stays as it is.
"""

from __future__ import annotations

import os

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(SINGLE_THREAD)  # before numpy loads its BLAS

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bench_ops
import bench_trace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
SETUP_CODE = "import sideband_steer.cli as cli; cli.build_parser()"


def use_checkout_src() -> bool:
    """Put the checkout's ``src`` first on the import path; False if absent."""
    if not (SRC / "sideband_steer" / "cli.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def digest_dir(d: Path) -> tuple[dict, int]:
    digests, nbytes = {}, 0
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digests[str(path.relative_to(d))] = hashlib.sha256(data).hexdigest()
        nbytes += len(data)
    return digests, nbytes


def run_op(op, d: Path, tracer=None, op_id=None) -> dict:
    """Run one op, timing its ``cli.main`` call, and check its output."""
    from sideband_steer import cli

    shutil.rmtree(d, ignore_errors=True)
    argv = [*op.argv, "--output-dir", str(d)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        root = tracer.op(op_id) if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        with root:
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
    res = bench_ops.check(op, code, d)
    res["digests"], res["bytes"] = digest_dir(d) if d.is_dir() else ({}, 0)
    shutil.rmtree(d, ignore_errors=True)
    return {"seconds": seconds, "code": code, **res}


def run_pass(ops, out: Path) -> list[dict]:
    return [run_op(op, out / f"op{i:03d}") for i, op in enumerate(ops)]


def band_percentile(values, q: float, width: float = 0.1) -> float:
    """Mean of the values whose rank lies within ``width`` below or above ``q``.

    Op times form clusters (order-4 hits, order-6 hits and exhausted
    searches; plans and certificates), and a single order statistic near
    a cluster's edge moves with the noise of the few ops there.  Over five
    runs of the same 50 winding requests, the distance between the
    quartiles of the plain median was 0.16 of its median; for the mean
    over the band, which holds a fifth of the ops, it was 0.08.
    """
    x = np.sort(np.asarray(values, dtype=float))
    ranks = (np.arange(x.size) + 0.5) / x.size
    lo, hi = q - width - 1e-9, q + width - 1e-9  # a rank on an edge counts once
    band = x[(ranks >= lo) & (ranks < hi)]
    return float(band.mean()) if band.size else float(np.percentile(x, 100 * q))


def compare_bytes(ops, results: list[dict]) -> None:
    """Fail every run of an op whose artifacts differ from the op's first run.

    ``ops`` and ``results`` are aligned; an op may appear more than once.
    """
    first: dict = {}
    for op, r in zip(ops, results):
        ref = first.setdefault(op.argv, r)
        if r is not ref and r["ok"] and r["digests"] != ref["digests"]:
            r["ok"], r["why"] = False, "artifacts differ between runs of one op"


def setup_seconds() -> list[float]:
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(SRC)}
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def measure_untraced(ops, seconds: float, out: Path) -> dict:
    """End-to-end metrics over as many passes of ``ops`` as fit in ``seconds``."""
    setup_s = statistics.median(setup_seconds())
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, out / f"pass{len(passes)}"))
        last = time.perf_counter() - t0
        if time.perf_counter() - t_start + last > seconds:
            break
    compare_bytes(ops * len(passes), [r for p in passes for r in p])
    samples: dict = {}
    for p in passes:
        for op, r in zip(ops, p):
            samples.setdefault(op.argv, []).append(r["seconds"])
    per_op = {argv: statistics.median(t) for argv, t in samples.items()}
    metrics = {
        # the list's time with each op's median time
        "wall_s": (sum(per_op[op.argv] for op in ops), "s"),
        "op_s_p50": (band_percentile(list(per_op.values()), 0.5), "s"),
        "op_s_p80": (band_percentile(list(per_op.values()), 0.8), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"metrics": metrics, "results": [r for p in passes for r in p],
            "passes": passes, "problems": []}


def measure_traced(ops, out: Path) -> dict:
    """Per-module metrics from a traced run of each op next to an untraced one.

    The two runs of an op are adjacent and take turns going first, so
    drift in machine speed and the process's lazy first-call work fall
    on both sides of the overhead alike.
    """
    tracer = bench_trace.Tracer()
    targets = bench_trace.program_targets()
    traced, plain = [], []
    for i, op in enumerate(ops):
        sides = [("traced", tracer), ("untraced", None)]
        for name, tr in sides if i % 2 == 0 else sides[::-1]:
            with tracer.installed(targets) if tr else contextlib.nullcontext():
                res = run_op(op, out / name / f"op{i:03d}", tr, i)
            (traced if tr else plain).append(res)
    compare_bytes(ops * 2, traced + plain)
    tracer.write_jsonl(out / "spans.jsonl")
    walls = {i: r["seconds"] for i, r in enumerate(traced)}
    metrics = bench_trace.layer_metrics(tracer.spans)
    metrics["cli.artifact_bytes"] = (sum(r["bytes"] for r in traced), "bytes")
    metrics["trace.overhead_s"] = (sum(walls.values()) - sum(r["seconds"] for r in plain), "s")
    module_self_s: dict = {}
    for (_, module), t in bench_trace.module_self_times(tracer.spans).items():
        module_self_s[module] = module_self_s.get(module, 0.0) + t
    return {"metrics": metrics, "results": traced + plain, "passes": [traced, plain],
            "problems": bench_trace.check_self_times(tracer.spans, walls),
            "module_self_s": module_self_s}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out: Path, short: bool = False) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = bench_ops.make_ops(workload, seed, short)
    run_pass(bench_ops.warmup_ops(workload), out / "warmup")  # untimed
    if trace:
        result = measure_traced(ops, out)
    else:
        result = measure_untraced(ops, seconds, out)
    result["ops"] = len(ops)
    results = result["results"]
    # End-to-end outcome of the run, printed always.  It joins the JSON line
    # only in a traced run: a correct run fails no op, and control time
    # follows the seed's inputs, so neither can carry a regression bound.
    result["outcome"] = {
        "failed_ratio": (sum(not r["ok"] for r in results) / len(results), "ratio"),
        "control_time": (sum(r["control_time"] for r in result["passes"][0]), "1/M"),
    }
    if trace:
        result["metrics"].update(result["outcome"])
    with open(out / "ops.jsonl", "w") as fh:
        for r in result["results"]:
            fh.write(json.dumps({k: r[k] for k in ("seconds", "code", "ok", "why", "s")})
                     + "\n")
    return result


def report(workload: str, seed: int, result: dict) -> dict:
    results = result["results"]
    failed = [r for r in results if not r["ok"]]
    metrics = result["metrics"]
    print(f"workload={workload} seed={seed} ops={result['ops']} "
          f"passes={len(result['passes'])} attempted={len(results)}")
    print(f"{len(failed)} of {len(results)} ops failed their output check")
    for r in failed[:20]:
        print(f"  failed: {r['why']}")
    for problem in result["problems"][:20]:
        print(f"  trace: {problem}")
    for name, (value, unit) in {**metrics, **result["outcome"]}.items():
        print(f"{name} = {value:.6g} {unit}")
    if "torus_winding.search_s" in metrics:
        wall = sum(r["seconds"] for r in result["passes"][0])
        search, exhausted = (metrics[n][0] for n in ("torus_winding.search_s",
                                                     "torus_winding.exhausted_s"))
        print(f"share of traced wall {wall:.4g} s: search {search / wall:.1%}, "
              f"certify {metrics['lie_certifier.certify_s'][0] / wall:.1%}, "
              f"plan {metrics['modal_planner.plan_s'][0] / wall:.1%}; exhausted "
              f"searches {exhausted / search if search else 0.0:.1%} of search time")
        print("self time by module: " + ", ".join(
            f"{m} {t:.4g} s" for m, t in sorted(result["module_self_s"].items())))
    return {"correct": not failed and not result["problems"],
            "attempted": len(results), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench_ops.WORKLOADS)
    ap.add_argument("--seed", type=int, default=bench_ops.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not use_checkout_src():
        print(f"error: no sideband_steer sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     OUT / f"{args.workload}-{args.seed}")
    print(json.dumps(report(args.workload, args.seed, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
