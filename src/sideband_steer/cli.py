"""Batch command-line front end.

Commands: certify, classes, decouple, plan, lift, simulate, run-e2e.
Every artifact embeds the configuration and seed that produced it, and
identical invocations produce byte-identical files.  Exit codes: 0
success, 1 contract/certification failure, 2 usage, 3 planner failure,
4 winding search exhausted.  Commands return only outcome codes (0, 1,
3) and raise on everything else; ``main()`` alone maps an exception to
its exit code and one-line message.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import lie_certifier as lc
from . import lift_simulator as ls
from . import modal_planner as mp
from . import operator_core as oc
from . import spectral_decoupling as sd
from . import torus_winding as tw
from .errors import SearchExhaustedError, SidebandSteerError
from .modal_planner import _is_finite, _is_int

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_USAGE = 2
EXIT_PLANNER = 3
EXIT_SEARCH = 4

_TERM_RE = re.compile(r"^([+-]?)(\d+\.?\d*|\.\d+)?\s*e(\d+)$")


def parse_state_spec(spec: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Parse a state description: 'e<j>', sums like 'e1+0.5e5', or 'random'.

    The result is normalized.  Note 'e5' is the fifth basis vector, never
    a float exponent.
    """
    spec = spec.strip()
    if spec == "random":
        return oc.random_state(dim, rng)
    v = np.zeros(dim, dtype=np.complex128)
    compact = spec.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(terms) != compact:
        raise ValueError(f"dangling or doubled sign in state spec {spec!r}")
    for term in terms:
        mt = _TERM_RE.match(term)
        if not mt:
            raise ValueError(f"cannot parse state term {term!r}")
        sign = -1.0 if mt.group(1) == "-" else 1.0
        coeff = float(mt.group(2)) if mt.group(2) else 1.0
        j = int(mt.group(3))
        if not 1 <= j <= dim:
            raise ValueError(f"basis index e{j} outside dimension {dim}")
        v[j - 1] += sign * coeff
    return oc.normalize(v)


def _write_json(path: Path, payload: dict, config: dict) -> None:
    text = json.dumps({"config": config, **payload}, indent=2, sort_keys=True)
    path.write_text(text + "\n")


def _config_dict(args) -> dict:
    """The settings an artifact records: the command's own value flags."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "func", "output_dir", "config")}


def _walk_parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _walk_parsers(sub)


def _config_path(argv) -> str | None:
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 == len(argv):
                raise ValueError("--config needs a file argument")
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def _load_config_defaults(parser: argparse.ArgumentParser, argv) -> list[str]:
    """Apply --config file values as parser defaults so flags win.

    Accepts either a plain config dict or a previously written artifact
    (whose settings live under its "config" key), so any run can be
    reproduced directly from its outputs.  Keys that no parser knows, such
    as the "backend" of older artifacts, are ignored.  argparse does not
    type-check defaults, so each value is checked here against its flag.
    """
    path = _config_path(argv)
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        if isinstance(raw.get("config"), dict):
            raw = raw["config"]
        for p in _walk_parsers(parser):
            for a in p._actions:
                if a.dest in raw and a.nargs is None:
                    _check_config_value(a, raw[a.dest])
                    p.set_defaults(**{a.dest: raw[a.dest]})
                    a.required = False
    return argv


def _finite_float(text: str) -> float:
    """The type of every float flag: nan and infinities are usage errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return x


def _check_config_value(action: argparse.Action, value) -> None:
    """A config value must be one the same flag would accept: a ValueError if not."""
    if value is None:
        ok = action.default is None and not action.required
    elif action.type is int:
        ok = _is_int(value)
    elif action.type is _finite_float:
        ok = _is_finite(value)
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ValueError(f"config value {action.dest}={value!r} is not valid "
                         f"for {action.option_strings[0]}")


def _read_artifact(path, parse):
    """Parse a JSON artifact; an unreadable or malformed file is a usage error."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_certify(args) -> int:
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = _config_dict(args)
    if args.family.startswith("law-eberly"):
        rep = lc.certify_law_eberly(args.n, args.family[-1])
    else:
        rep = lc.certify_modal(args.n, args.family)
    path = outdir / f"certify_{args.family}_n{args.n}.json"
    _write_json(path, rep.to_json(), config)
    print(f"family={args.family} n={args.n} dimension={rep.dimension} "
          f"target={rep.target} certified={rep.certified} -> {path}")
    return EXIT_OK if rep.certified else EXIT_CONTRACT


def cmd_classes(args) -> int:
    if args.m < 2:
        raise ValueError("m must be >= 2")
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    part = sd.resonance_partition(args.m)
    path = outdir / f"classes_m{args.m}.json"
    _write_json(path, part.to_json(), _config_dict(args))
    print(f"m={args.m} N={part.count} -> {path}")
    return EXIT_OK


def cmd_decouple(args) -> int:
    if args.eps <= 0:
        raise ValueError("eps must be positive")
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = _config_dict(args)
    req = tw.DecouplingRequest(id=args.op, m=args.m, ell=args.cls,
                               t_hat=args.t_hat, eps=args.eps, s_max=args.s_max)
    res = tw.find_decoupling_time(req)
    measured = tw.verify_sigma(req, res, dim_sim=4 * (args.m + 1))
    payload = res.to_json()
    payload["measured_sigma_norm"] = measured
    path = outdir / f"decouple_{args.op}_m{args.m}_c{args.cls}.json"
    _write_json(path, payload, config)
    # plot data: torus residual along the searched range
    grid = np.unique(np.linspace(0, max(res.s, 1), 512).astype(np.int64))
    profile = tw.bound_profile(args.m, args.cls, args.t_hat, grid)
    trace = outdir / f"decouple_trace_{args.op}_m{args.m}_c{args.cls}.csv"
    # the bytes of csv.writer's default dialect (no field needs quoting),
    # with the cells s, bound, s, bound, ... in one %-format of the rows
    cells = [0] * (2 * len(grid))
    cells[::2], cells[1::2] = grid.tolist(), profile.tolist()
    with open(trace, "w", newline="") as fh:
        fh.write("s,bound\r\n" + ("%d,%.17g\r\n" * len(grid)) % tuple(cells))
    print(f"s={res.s} t_bar={res.t_bar:.6g} bound={res.bound:.3e} "
          f"measured={measured:.3e} -> {path}")
    return EXIT_OK


def _planner_eps(args) -> float:
    """Range-check the planning flags; the planner's target, eps/10 by default."""
    if args.n < 1:
        raise ValueError("n must be >= 1")
    if args.eps <= 0:
        raise ValueError("eps must be positive")
    if args.M <= 0:
        raise ValueError("control bound M must be positive")
    if args.eps_plan is not None and not 0 < args.eps_plan < args.eps:
        raise ValueError("eps_plan must lie in (0, eps)")
    return args.eps / 10.0 if args.eps_plan is None else args.eps_plan


def _plan(args, p: int, eps_plan: float):
    """Parse the endpoint states and plan between them: (plan, phi0, phiT)."""
    dim = 4 * p
    phi0 = parse_state_spec(args.phi0, dim, np.random.default_rng([args.seed, 0]))
    phiT = parse_state_spec(args.phiT, dim, np.random.default_rng([args.seed, 1]))
    plan = mp.plan_transfer(phi0, phiT, p, M=args.M, eps_plan=eps_plan,
                            seed=args.seed, budget=args.budget, family=args.family)
    return plan, phi0, phiT


def cmd_plan(args) -> int:
    eps_plan = _planner_eps(args)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = {**_config_dict(args), "eps_plan": eps_plan}
    plan, _, _ = _plan(args, ls.choose_prime(args.n), eps_plan)
    path = outdir / "plan.json"
    _write_json(path, plan.to_json(), config)
    print(f"p={plan.p} segments={len(plan.segments)} "
          f"achieved_error={plan.achieved_error:.3e} success={plan.success} -> {path}")
    return EXIT_OK if plan.success else EXIT_PLANNER


def cmd_lift(args) -> int:
    if args.eps <= 0:
        raise ValueError("eps must be positive")
    plan = _read_artifact(args.plan, mp.Plan.from_json)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = _config_dict(args)
    lp = ls.lift_plan(plan, args.eps, s_max=args.s_max, jobs=args.jobs)
    path = outdir / "lifted_plan.json"
    _write_json(path, lp.to_json(), config)
    print(f"segments={len(lp.segments)} total_predicted_error="
          f"{lp.total_predicted_error:.3e} dim_sim={lp.dim_sim} -> {path}")
    return EXIT_OK


def _write_trajectory(path: Path, lp: ls.LiftedPlan, states: np.ndarray,
                      final_error: float | None) -> None:
    # the bytes of csv.writer's default dialect: no field needs quoting
    lines = ["segment_index,time_accumulated,basis_index,re,im\r\n"]
    t = 0.0
    for i, (seg, phi) in enumerate(zip(lp.segments, states[1:])):
        t += seg.duration
        head = f"{i},{t:.12g},"
        lines += [f"{head}{j},{a.real:.17g},{a.imag:.17g}\r\n"
                  for j, a in enumerate(phi[:lp.dim_sim].tolist(), start=1)]
    fe = "" if final_error is None else f"{final_error:.17g}"
    lines.append(f"final_error,{t:.12g},,{fe},\r\n")
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def cmd_simulate(args) -> int:
    lp = _read_artifact(args.lifted, ls.LiftedPlan.from_json)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = _config_dict(args)
    rng = np.random.default_rng([args.seed, 0])
    phi0 = parse_state_spec(args.phi0, 4 * lp.p, rng)
    states, tail = ls.simulate_lifted(lp, phi0)
    final = states[-1]
    final_error = None
    if args.phiT is not None:
        phiT = parse_state_spec(args.phiT, 4 * lp.p, np.random.default_rng([args.seed, 1]))
        target = np.zeros(lp.dim_sim, dtype=np.complex128)
        target[:len(phiT)] = phiT
        final_error = float(np.linalg.norm(final - target))
    _write_trajectory(outdir / "trajectory.csv", lp, states, final_error)
    _write_json(outdir / "simulate_summary.json",
                {"tail_mass": tail, "final_error": final_error,
                 "final_norm": float(np.linalg.norm(final))}, config)
    print(f"tail_mass={tail:.3e}" +
          ("" if final_error is None else f" final_error={final_error:.3e}"))
    return EXIT_OK


def cmd_run_e2e(args) -> int:
    eps_plan = _planner_eps(args)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = {**_config_dict(args), "eps_plan": eps_plan}

    p = ls.choose_prime(args.n)
    cert = lc.certify_modal(p, args.family)
    _write_json(outdir / "certify_report.json", cert.to_json(), config)
    if not cert.certified:
        print("error: generator family failed certification", file=sys.stderr)
        return EXIT_CONTRACT

    plan, phi0, phiT = _plan(args, p, eps_plan)
    _write_json(outdir / "plan.json", plan.to_json(), config)
    if not plan.success:
        print(f"planner failed: achieved_error={plan.achieved_error:.3e}",
              file=sys.stderr)
        return EXIT_PLANNER

    lp = ls.lift_plan(plan, args.eps - eps_plan, s_max=args.s_max, jobs=args.jobs)
    _write_json(outdir / "lifted_plan.json", lp.to_json(), config)

    states, tail = ls.simulate_lifted(lp, phi0)
    report = ls.error_report(plan, lp, phi0, phiT, (states, tail), plan.final_state)
    _write_trajectory(outdir / "trajectory.csv", lp, states, report["final_error"])
    # plot data: predicted error budget vs segment index
    with open(outdir / "budget.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["segment_index", "coupling", "s", "predicted_error",
                     "running_budget"])
        for seg, run_sum in zip(report["per_segment"], report["running_budget"]):
            wr.writerow([seg["origin"], seg["coupling"],
                         "" if seg["s"] is None else seg["s"],
                         f"{seg['predicted_error']:.17g}", f"{run_sum:.17g}"])
    summary = {"final_error": report["final_error"], "eps": args.eps,
               "verdict": bool(report["final_error"] < args.eps),
               "tail_mass": report["tail_mass"],
               "modal_error": report["modal_error"],
               "lifting_error": report["lifting_error"],
               "total_predicted_error": report["total_predicted_error"],
               "segments": len(lp.segments)}
    _write_json(outdir / "summary.json", summary, config)
    print(f"final_error={report['final_error']:.4e} eps={args.eps} "
          f"verdict={'PASS' if summary['verdict'] else 'FAIL'} -> {outdir}/summary.json")
    return EXIT_OK if summary["verdict"] else EXIT_CONTRACT


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sideband-steer",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", default=".")
        p.add_argument("--config", default=None, help="JSON with default flag values")

    p = sub.add_parser("certify", help="Lie-rank controllability certificate")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", default="full",
                   choices=[*oc.FAMILIES, "law-eberly-r", "law-eberly-b"])
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("classes", help="resonance classes at order m")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("decouple", help="select and certify a winding time")
    common(p)
    p.add_argument("--op", required=True, choices=[i for i in oc.ION_IDS
                                                   if oc.is_sideband(i)])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--class", dest="cls", type=int, required=True)
    p.add_argument("--t-hat", dest="t_hat", type=_finite_float, required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--s-max", dest="s_max", type=int, default=tw.DEFAULT_S_MAX)
    p.set_defaults(func=cmd_decouple)

    def plannerish(p):
        common(p)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--eps", type=_finite_float, default=0.1)
        p.add_argument("--eps-plan", dest="eps_plan", type=_finite_float, default=None)
        p.add_argument("--M", type=_finite_float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=mp.DEFAULT_BUDGET)
        p.add_argument("--family", default="full", choices=list(oc.FAMILIES))
        p.add_argument("--phi0", default="e1")
        p.add_argument("--phiT", default="e5")

    p = sub.add_parser("plan", help="piecewise-constant modal steering plan")
    plannerish(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("lift", help="lift a plan to the full system")
    common(p)
    p.add_argument("--plan", required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--s-max", dest="s_max", type=int, default=tw.DEFAULT_S_MAX)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("simulate", help="exact simulation of a lifted plan")
    common(p)
    p.add_argument("--lifted", required=True)
    p.add_argument("--phi0", default="e1")
    p.add_argument("--phiT", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run-e2e", help="certify, plan, lift, simulate, verify")
    plannerish(p)
    p.add_argument("--s-max", dest="s_max", type=int, default=10**9)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_run_e2e)
    return ap


_PARSER = None  # built by the first main() call that has no --config


def _parser_for(argv) -> argparse.ArgumentParser:
    """The parser of one main() call.

    Building it costs more than a short command, so it is built once per
    process.  A --config call rewrites defaults and ``required`` flags in
    place, so it gets a fresh parser of its own.
    """
    global _PARSER
    if _config_path(argv) is not None:
        return build_parser()
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ap = _parser_for(argv)
        _load_config_defaults(ap, argv)
        args = ap.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse has printed its usage message or help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchExhaustedError as exc:
        where = "" if exc.segment_index is None else f" at segment {exc.segment_index}"
        print(f"search exhausted{where}: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except SidebandSteerError as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
