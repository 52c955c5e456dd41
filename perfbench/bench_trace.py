"""Spans and counts for the traced benchmark pass, recorded from outside.

The program has no tracing of its own.  :class:`Tracer` replaces public
functions of its modules by wrappers that record a span (name, start,
end, parent span, op id) and counts taken from the arguments or the
result, then restores the originals.  Every module looks these functions
up as module attributes at call time, so the wrappers see all calls.
Spans are kept in memory and written out as JSON lines at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

ROOT_SPAN = "cli.main"


def _certify_counts(args, rep, exc):
    if rep is None:
        return {}
    # round j >= 1 brackets basis element j with elements 0..j-1; the last
    # round may stop early at full rank, so this counts it as complete
    brackets = sum(j for j, _ in rep.basis_rank_history if j > 0)
    return {"dimension": rep.dimension, "generators": len(rep.labels),
            "brackets": brackets}


def _minimize_counts(args, res, exc):
    return {} if res is None else {"iters": int(res.nit)}


def _lift_counts(args, lp, exc):
    if lp is None:
        return {}
    return {"sideband_segments": sum(1 for s in lp.segments if s.s is not None)}


def _report_counts(args, rep, exc):
    if rep is None:
        return {}
    return {"lifting_error": rep["lifting_error"],
            "predicted_error": rep["total_predicted_error"]}


def _search_counts(args, res, exc):
    from sideband_steer.errors import SearchExhaustedError

    if res is not None:
        return {"s": int(res.s)}
    return {"exhausted": 1} if isinstance(exc, SearchExhaustedError) else {}


def _scan_counts(args, out, exc):
    s0, s1 = int(args[5]), int(args[6])
    if out is None:
        return {"steps": s1 - s0}
    cand = int(out[0])
    return {"steps": s1 - s0, "useful": cand - s0 + 1 if cand >= 0 else s1 - s0,
            "candidate": int(cand >= 0)}


def program_targets():
    """(module, attribute, span name, counts) for every wrapped function."""
    from sideband_steer import _kernels
    from sideband_steer import lie_certifier as lc
    from sideband_steer import lift_simulator as ls
    from sideband_steer import modal_planner as mp
    from sideband_steer import torus_winding as tw

    return [
        (lc, "certify_modal", "lie_certifier.certify", _certify_counts),
        (mp, "plan_transfer", "modal_planner.plan", None),
        (mp, "minimize", "modal_planner.minimize", _minimize_counts),
        (_kernels, "objective_grad", "_kernels.objective_grad", None),
        (ls, "lift_plan", "lift_simulator.lift_plan", _lift_counts),
        (ls, "error_report", "lift_simulator.error_report", _report_counts),
        (tw, "find_decoupling_time", "torus_winding.search", _search_counts),
        (tw, "verify_sigma", "torus_winding.verify_sigma", None),
        (_kernels, "scan_decoupling", "_kernels.scan", _scan_counts),
        (_kernels, "rotate_pairs", "_kernels.rotate_pairs", None),
    ]


class Tracer:
    """In-memory span recorder; records only while an op is open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def installed(self, targets):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for mod, attr, name, counts in targets:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, counts))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    @contextmanager
    def op(self, op_id):
        """Open the root span of one op; spans inside it carry ``op_id``."""
        self._op = op_id
        span = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def _open(self, name) -> dict:
        span = {"name": name, "op": self._op,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self._close(span)
                if counts is not None:
                    span.update(counts(args, result, exc))

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def module_self_times(spans: list[dict]) -> dict:
    """Self time per (op, module), the module being the span-name prefix."""
    out: dict = {}
    for s, t in zip(spans, self_times(spans)):
        key = (s["op"], s["name"].split(".")[0])
        out[key] = out.get(key, 0.0) + t
    return out


def check_self_times(spans: list[dict], op_walls: dict, tol: float = 1e-3) -> list[str]:
    """Problems found when self times are added up against each op's wall time.

    A negative self time means a child span is not nested in its parent;
    a sum that misses the op's independently timed wall time means part
    of the op ran outside the recorded spans.
    """
    problems = []
    totals: dict = {}
    for (op, _), t in module_self_times(spans).items():
        totals[op] = totals.get(op, 0.0) + t
    for s, t in zip(spans, self_times(spans)):
        if t < -1e-9:
            problems.append(f"span {s['name']} of op {s['op']} has self time {t:.3g}")
    for op, wall in op_walls.items():
        if abs(totals.get(op, 0.0) - wall) > tol:
            problems.append(f"op {op}: self times add to {totals.get(op, 0.0):.6f} s, "
                            f"wall {wall:.6f} s")
    return problems


def layer_metrics(spans: list[dict]) -> dict:
    """Per-module metrics of one traced pass, as name -> (value, unit)."""
    selfs = self_times(spans)
    by_name: dict = {}
    for s, t in zip(spans, selfs):
        by_name.setdefault(s["name"], []).append((s, s["end"] - s["start"], t))

    def spans_of(name):
        return by_name.get(name, [])

    def total(name, key=None):
        if key is None:
            return sum(d for _, d, _ in spans_of(name))
        return sum(s.get(key, 0) for s, _, _ in spans_of(name))

    def ratio(a, b):
        return a / b if b else 0.0

    searches = spans_of("torus_winding.search")
    hits = sum(1 for s, _, _ in searches if "s" in s)
    candidates = total("_kernels.scan", "candidate")
    steps = total("_kernels.scan", "steps")
    scan_s = total("_kernels.scan")
    evals = len(spans_of("_kernels.objective_grad"))
    certs = spans_of("lie_certifier.certify")
    tried = sum(s.get("generators", 0) + s.get("brackets", 0) for s, _, _ in certs)
    return {
        "torus_winding.search_s": (total("torus_winding.search"), "s"),
        "torus_winding.search_s_p50": (
            statistics.median([d for _, d, _ in searches]) if searches else 0.0, "s"),
        "torus_winding.searches": (len(searches), "count"),
        "torus_winding.exhausted": (total("torus_winding.search", "exhausted"), "count"),
        "torus_winding.exhausted_s": (
            sum(d for s, d, _ in searches if s.get("exhausted")), "s"),
        "torus_winding.s_sum": (total("torus_winding.search", "s"), "count"),
        "torus_winding.candidates": (candidates, "count"),
        "torus_winding.exact_rejections": (candidates - hits, "count"),
        "torus_winding.verify_sigma_s": (total("torus_winding.verify_sigma"), "s"),
        "_kernels.scan_s": (scan_s, "s"),
        "_kernels.scan_steps": (steps, "count"),
        "_kernels.scan_useful_ratio": (ratio(total("_kernels.scan", "useful"), steps),
                                       "ratio"),
        "_kernels.scan_rate": (ratio(steps, scan_s), "1/s"),
        "_kernels.objective_grad_rate": (
            ratio(evals, total("_kernels.objective_grad")), "1/s"),
        "_kernels.rotate_pairs_calls": (len(spans_of("_kernels.rotate_pairs")), "count"),
        "lie_certifier.certify_s": (total("lie_certifier.certify"), "s"),
        "lie_certifier.brackets_tried": (total("lie_certifier.certify", "brackets"),
                                         "count"),
        "lie_certifier.accept_ratio": (
            ratio(total("lie_certifier.certify", "dimension"), tried), "ratio"),
        "modal_planner.plan_s": (total("modal_planner.plan"), "s"),
        "modal_planner.objective_evals": (evals, "count"),
        "modal_planner.lbfgs_iters": (total("modal_planner.minimize", "iters"), "count"),
        # L-BFGS runs beyond the first of each plan
        "modal_planner.restarts": (len(spans_of("modal_planner.minimize"))
                                   - len(spans_of("modal_planner.plan")), "count"),
        "lift_simulator.lift_self_s": (
            sum(t for _, _, t in spans_of("lift_simulator.lift_plan")), "s"),
        "lift_simulator.verify_s": (total("lift_simulator.error_report"), "s"),
        "lift_simulator.budget_tightness": (
            ratio(total("lift_simulator.error_report", "lifting_error"),
                  total("lift_simulator.error_report", "predicted_error")), "ratio"),
        "lift_simulator.sideband_segments": (
            total("lift_simulator.lift_plan", "sideband_segments"), "count"),
        "cli.self_s": (sum(t for _, _, t in spans_of(ROOT_SPAN)), "s"),
    }
