"""Lifting a modal plan to the full system and simulating it exactly.

Carrier segments pass through unchanged: carrier flows never leave a
4-index internal block, so their truncation error is exactly zero.
Sideband segments come in runs: consecutive segments X[l1], X[l2], ... of
one coupling X and distinct classes.  Their class flows act on disjoint
pairs and commute, so one lifted segment per run, exp(t_bar * X) with
t_bar from one winding search, realises the whole run.  The budget eps/N
is spread over the N lifted sideband segments (one per run).  The lifted
plan is simulated with exact pair rotations at a dimension computed from
the support-growth bound (one phonon level per lifted sideband segment),
so the reported tail mass is a bug detector, not a truncation estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operator_core as oc
from . import spectral_decoupling as sd
from . import torus_winding as tw
from .errors import InternalConsistencyError, SearchExhaustedError
from .modal_planner import Plan, _is_finite, _is_int, simulate_plan_modal


@dataclass
class LiftedSegment:
    """One admissible segment of the full system.

    A sideband segment lifts the run of plan segments that starts at
    ``origin``: amplitude*duration equals t_bar, whose exact value is the
    triple (t_hat, s, nu_kernel) of the run's first class.  Carriers keep
    their source amplitude and duration and contribute zero predicted error.
    """

    coupling: str
    amplitude: float
    duration: float
    origin: int
    predicted_error: float = 0.0
    s: int | None = None
    t_hat: float | None = None
    nu_kernel: int | None = None

    @property
    def is_sideband(self) -> bool:
        return self.s is not None

    def to_json(self) -> dict:
        return {"coupling": self.coupling, "amplitude": self.amplitude,
                "duration": self.duration, "origin": self.origin,
                "predicted_error": self.predicted_error, "s": self.s,
                "t_bar": (self.amplitude * self.duration if self.is_sideband else None),
                "t_hat": self.t_hat, "nu_kernel": self.nu_kernel}

    @classmethod
    def from_json(cls, d: dict) -> "LiftedSegment":
        """Parse one segment; a wrongly typed or out-of-range field is a ValueError."""
        seg = cls(coupling=d["coupling"], amplitude=d["amplitude"],
                  duration=d["duration"], origin=d["origin"],
                  predicted_error=d["predicted_error"], s=d["s"],
                  t_hat=d["t_hat"], nu_kernel=d["nu_kernel"])
        if seg.coupling not in oc.ION_IDS:
            raise ValueError(f"unknown coupling {seg.coupling!r}")
        if not _is_finite(seg.amplitude):
            raise ValueError(f"amplitude must be a finite number, not {seg.amplitude!r}")
        if not _is_finite(seg.duration) or seg.duration < 0:
            raise ValueError(f"duration must be a finite number >= 0, not {seg.duration!r}")
        if not _is_int(seg.origin) or seg.origin < 0:
            raise ValueError(f"origin must be an integer >= 0, not {seg.origin!r}")
        if not _is_finite(seg.predicted_error) or seg.predicted_error < 0:
            raise ValueError(f"predicted_error must be a finite number >= 0, "
                             f"not {seg.predicted_error!r}")
        if seg.s is None:  # carrier
            if oc.is_sideband(seg.coupling):
                raise ValueError(f"sideband {seg.coupling} has no winding index")
            return seg
        if not _is_int(seg.s) or seg.s < 0:
            raise ValueError(f"winding index s must be a non-negative integer, not {seg.s!r}")
        if not oc.is_sideband(seg.coupling):
            raise ValueError(f"carrier {seg.coupling} carries a winding index")
        if not _is_int(seg.nu_kernel) or seg.nu_kernel < 1:
            raise ValueError(f"nu_kernel must be an integer >= 1, not {seg.nu_kernel!r}")
        if not _is_finite(seg.t_hat):
            raise ValueError(f"t_hat must be a finite number, not {seg.t_hat!r}")
        return seg


@dataclass
class LiftedPlan:
    p: int
    eps: float
    dim_sim: int
    segments: list[LiftedSegment] = field(default_factory=list)
    total_predicted_error: float = 0.0

    def to_json(self) -> dict:
        return {"p": self.p, "eps": self.eps, "dim_sim": self.dim_sim,
                "total_predicted_error": self.total_predicted_error,
                "segments": [s.to_json() for s in self.segments]}

    @classmethod
    def from_json(cls, d: dict) -> "LiftedPlan":
        """Parse a lifted plan; a wrongly typed or out-of-range field is a ValueError."""
        lp = cls(p=d["p"], eps=d["eps"], dim_sim=d["dim_sim"],
                 total_predicted_error=d["total_predicted_error"],
                 segments=[LiftedSegment.from_json(s) for s in d["segments"]])
        if not _is_int(lp.p) or lp.p > sd.P_MAX or not sd.is_prime(lp.p):
            raise ValueError(f"p must be a prime integer <= {sd.P_MAX}, not {lp.p!r}")
        # the support bound that lift_plan sizes dim_sim by: one phonon level per
        # lifted sideband segment
        need = 4 * (lp.p + sum(s.is_sideband for s in lp.segments) + 1)
        if not _is_int(lp.dim_sim) or lp.dim_sim != need:
            raise ValueError(f"dim_sim must be 4 * (p + lifted sideband segments + 1)"
                             f" = {need}, not {lp.dim_sim!r}")
        for name in ("eps", "total_predicted_error"):
            x = getattr(lp, name)
            if not _is_finite(x) or x < 0:
                raise ValueError(f"{name} must be a finite number >= 0, not {x!r}")
        return lp


def choose_prime(n: int) -> int:
    """Smallest prime >= max(n, 3); re-checks the decoupling hypothesis."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = max(n, 3)
    while not sd.is_prime(p):
        p += 1
    if not sd.decoupling_order_ok(p + 1):
        raise InternalConsistencyError(f"hypothesis fails at m={p + 1} for prime p={p}")
    return p


def sideband_runs(plan: Plan) -> list[list[int]]:
    """The plan's sideband segments grouped into maximal runs: consecutive
    segments of one coupling whose classes are distinct."""
    runs: list[list[int]] = []
    for i, seg in enumerate(plan.segments):
        gen = seg.generator
        if gen.kind != "sideband":
            continue
        run = runs[-1] if runs and runs[-1][-1] == i - 1 else None
        if run and all(plan.segments[j].generator.coupling == gen.coupling
                       and plan.segments[j].generator.class_index != gen.class_index
                       for j in run):
            run.append(i)
        else:
            runs.append([i])
    return runs


def lift_plan(plan: Plan, eps: float, s_max: int = tw.DEFAULT_S_MAX,
              jobs: int = 1) -> LiftedPlan:
    """Replace modal segments by admissible full-system segments.

    Each run of sideband segments (:func:`sideband_runs`) becomes one
    lifted segment.  Its winding search makes the run's first class exact
    and brings every other class of the run near its planned angle, within
    the uniform budget eps / (number of runs).  Carriers are exact and keep
    predicted error 0.  A failed winding search propagates with the index
    of the run's first segment.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not plan.success:
        raise ValueError("refusing to lift a failed plan "
                         f"(achieved {plan.achieved_error:.3e} >= target "
                         f"{plan.target_error:.3e})")
    m = plan.p + 1
    runs = sideband_runs(plan)
    n_side = len(runs)
    eps_seg = eps / n_side if n_side else 0.0

    def lift_run(run: list[int]) -> LiftedSegment:
        first, *rest = (plan.segments[i] for i in run)
        req = tw.DecouplingRequest(
            id=first.generator.coupling, m=m, ell=first.generator.class_index,
            t_hat=first.angle, eps=eps_seg, s_max=s_max,
            offsets=tuple((seg.generator.class_index, seg.angle) for seg in rest))
        try:
            res = tw.find_decoupling_time(req)
        except SearchExhaustedError as exc:
            exc.segment_index = run[0]
            raise
        sign = 1.0 if res.t_bar >= 0 else -1.0
        return LiftedSegment(coupling=first.generator.coupling,
                             amplitude=sign * plan.M,
                             duration=abs(res.t_bar) / plan.M,
                             origin=run[0], predicted_error=res.bound, s=res.s,
                             t_hat=res.t_hat, nu_kernel=res.nu_kernel)

    lifted_side = {}
    if n_side:
        if jobs > 1:
            # imported here: concurrent.futures (and logging) would add ~5 ms to
            # every start-up, and only --jobs > 1 needs them
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=jobs) as pool:
                for run, lifted in zip(runs, pool.map(lift_run, runs)):
                    lifted_side[run[0]] = lifted
        else:
            for run in runs:
                lifted_side[run[0]] = lift_run(run)

    segments = []
    for i, seg in enumerate(plan.segments):
        if i in lifted_side:
            segments.append(lifted_side[i])
        elif seg.generator.kind != "sideband":
            segments.append(LiftedSegment(coupling=seg.generator.coupling,
                                          amplitude=seg.amplitude,
                                          duration=seg.duration, origin=i))
    total = float(sum(s.predicted_error for s in segments))
    if n_side and total >= eps:
        raise InternalConsistencyError(
            f"per-segment budgets sum to {total:.3e}, not below eps={eps}")
    dim_sim = 4 * (plan.p + n_side + 1)
    return LiftedPlan(p=plan.p, eps=eps, dim_sim=dim_sim, segments=segments,
                      total_predicted_error=total)


def simulate_lifted(lp: LiftedPlan, phi0: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact simulation of a lifted plan: (states, tail mass).

    Row 0 of ``states`` is phi0 in the simulation dimension, row k+1 the
    state after segment k.  Carriers rotate by duration * amplitude;
    sidebands rotate by exact mod-2*pi angles, since a float t_bar would
    lose the selected class's periodicity for large winding indices.
    Tail mass is the largest probability mass ever observed beyond the
    running support guard Y_{4(p + sidebands so far)}.  The simulation is
    exact, so any appreciable tail indicates a bug.
    """
    dim = lp.dim_sim
    phi = np.zeros(dim, dtype=np.complex128)
    phi0 = np.asarray(phi0, dtype=np.complex128)
    if len(phi0) > dim:
        raise ValueError("phi0 longer than the simulation dimension")
    phi[:len(phi0)] = phi0
    ops, coeffs, thetas = [], [], []
    for seg in lp.segments:
        ops.append(oc.truncate(seg.coupling, dim))
        if seg.is_sideband:
            coeffs.append(tw.exact_flow_betas(seg.coupling, dim, seg.s,
                                              seg.nu_kernel, seg.t_hat))
            thetas.append(1.0)
        else:
            if seg.duration < 0:
                raise ValueError("duration must be nonnegative")
            coeffs.append(None)
            thetas.append(seg.duration * seg.amplitude)
    states = oc.SegmentProgram.from_operators(ops, coeffs).states(phi, thetas)
    sides = 0
    tail = 0.0
    for seg, before, after in zip(lp.segments, states[:-1], states[1:]):
        if oc.is_ion(seg.coupling):
            oc._check_support_inside(seg.coupling, before, dim)
        sides += seg.is_sideband
        guard = 4 * (lp.p + sides)
        if guard < dim:
            tail = max(tail, float(np.sum(np.abs(after[guard:]) ** 2)))
    return states, tail


def error_report(plan: Plan, lp: LiftedPlan, phi0: np.ndarray,
                 phiT: np.ndarray, simulated: tuple[np.ndarray, float],
                 modal: np.ndarray | None = None) -> dict:
    """End-to-end tracking report with the iterated-approximation verdict.

    Checks both the unconditional budget (lifted vs modal final state is
    within the summed per-segment bounds) and the end-to-end triangle
    inequality; violation of either raises, since the underlying estimate
    is exact mathematics.  ``simulated`` is ``simulate_lifted(lp, phi0)``
    and ``modal`` the plan's modal final state, as ``plan_transfer`` left
    it in ``plan.final_state``; it is simulated from phi0 when None.
    """
    dim = lp.dim_sim
    phiT = np.asarray(phiT, dtype=np.complex128)
    states, tail = simulated
    final = states[-1]
    if modal is None:
        modal = simulate_plan_modal(plan, np.asarray(phi0, dtype=np.complex128))[-1]
    modal_p = np.zeros(dim, dtype=np.complex128)
    modal_p[:len(modal)] = modal
    target = np.zeros(dim, dtype=np.complex128)
    target[:len(phiT)] = phiT

    lifting_error = float(np.linalg.norm(final - modal_p))
    final_error = float(np.linalg.norm(final - target))
    budget = lp.total_predicted_error
    rhs = plan.achieved_error + budget + 1e-9
    report = {
        "final_error": final_error,
        "modal_error": plan.achieved_error,
        "lifting_error": lifting_error,
        "total_predicted_error": budget,
        "tail_mass": tail,
        "per_segment": [{"origin": s.origin, "coupling": s.coupling,
                         "predicted_error": s.predicted_error, "s": s.s}
                        for s in lp.segments],
        "running_budget": list(np.cumsum([s.predicted_error for s in lp.segments])),
        "verdict": bool(final_error <= rhs),
        "budget_sound": bool(lifting_error <= budget + 1e-9),
    }
    if not report["budget_sound"]:
        raise InternalConsistencyError(
            f"lifting error {lifting_error:.3e} exceeds predicted budget {budget:.3e}")
    if not report["verdict"]:
        raise InternalConsistencyError(
            f"final error {final_error:.3e} exceeds modal+lifting budget {rhs:.3e}")
    return report
