"""Piecewise-constant steering inside the decoupled modal truncation.

Planning is direct multi-start optimization: a fixed cyclic schedule over
the available single generators, one signed angle per segment, exact
adjoint gradients through the closed-form segment flows, and an in-house
L-BFGS (two-loop recursion, strong-Wolfe line search; :func:`minimize`).
Segment angles factor on output as amplitude = +-M, duration = |angle|/M,
so every returned segment respects the control bound with the shortest
possible duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from . import operator_core as oc
from . import spectral_decoupling as sd

_PRUNE_TOL = 1e-13
DEFAULT_BUDGET = 12_000


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A finite JSON number; an int beyond the float range does not count."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GeneratorId:
    """One generator of the decoupled modal system.

    kind "carrier": gamma in {1,2}, part in {V,W}.
    kind "sideband": additionally star in {r,b} and a 1-based resonance
    class index valid for the planning order.
    """

    kind: str
    gamma: int
    part: str
    star: str | None = None
    class_index: int | None = None

    def __post_init__(self):
        if self.kind not in ("carrier", "sideband"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.gamma not in (1, 2) or self.part not in ("V", "W"):
            raise ValueError("gamma must be 1 or 2 and part V or W")
        if self.kind == "carrier":
            if self.star is not None or self.class_index is not None:
                raise ValueError("carrier generators take no star and no class_index")
        else:
            if self.star not in ("r", "b") or not self.class_index:
                raise ValueError("sideband generators need star and class_index")
            if not _is_int(self.class_index):
                raise ValueError(f"class must be an integer, not {self.class_index!r}")

    @property
    def coupling(self) -> str:
        """The full-system coupling this generator restricts."""
        star = self.star or ""
        return f"{self.part}{self.gamma}{star}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma, "star": self.star,
                "part": self.part, "class": self.class_index}

    @classmethod
    def from_json(cls, d: dict) -> "GeneratorId":
        return cls(kind=d["kind"], gamma=d["gamma"], part=d["part"],
                   star=d.get("star"), class_index=d.get("class"))


@dataclass(frozen=True)
class PlanSegment:
    """One piecewise-constant segment; exactly one generator is active."""

    generator: GeneratorId
    amplitude: float
    duration: float

    @property
    def angle(self) -> float:
        return self.amplitude * self.duration

    def to_json(self) -> dict:
        return {"generator": self.generator.to_json(),
                "amplitude": self.amplitude, "duration": self.duration}

    @classmethod
    def from_json(cls, d: dict) -> "PlanSegment":
        """Parse one segment; a wrongly typed or out-of-range field is a ValueError."""
        seg = cls(GeneratorId.from_json(d["generator"]), d["amplitude"], d["duration"])
        if not _is_finite(seg.amplitude):
            raise ValueError(f"amplitude must be a finite number, not {seg.amplitude!r}")
        if not _is_finite(seg.duration) or seg.duration < 0:
            raise ValueError(f"duration must be a finite number >= 0, not {seg.duration!r}")
        return seg


@dataclass
class Plan:
    """A steering plan for the order-p decoupled modal truncation.

    ``final_state`` is the modal final state that :func:`plan_transfer`
    simulated to measure ``achieved_error``; it is not part of the artifact,
    and a parsed plan has None.
    """

    p: int
    M: float
    seed: int
    target_error: float
    achieved_error: float
    segments: list[PlanSegment] = field(default_factory=list)
    family: str = "full"
    final_state: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def success(self) -> bool:
        return self.achieved_error < self.target_error

    def to_json(self) -> dict:
        return {"p": self.p, "M": self.M, "seed": self.seed, "family": self.family,
                "target_error": self.target_error,
                "achieved_error": self.achieved_error,
                "segments": [s.to_json() for s in self.segments]}

    @classmethod
    def from_json(cls, d: dict) -> "Plan":
        """Parse a plan; a wrongly typed or out-of-range field is a ValueError."""
        plan = cls(p=d["p"], M=d["M"], seed=d["seed"],
                   family=d.get("family", "full"),
                   target_error=d["target_error"],
                   achieved_error=d["achieved_error"],
                   segments=[PlanSegment.from_json(s) for s in d["segments"]])
        if not _is_int(plan.p) or plan.p > sd.P_MAX or not sd.is_prime(plan.p):
            raise ValueError(f"p must be a prime integer <= {sd.P_MAX}, not {plan.p!r}")
        if not _is_finite(plan.M) or plan.M <= 0:
            raise ValueError(f"M must be a finite number > 0, not {plan.M!r}")
        for name in ("target_error", "achieved_error"):
            x = getattr(plan, name)
            if not _is_finite(x) or x < 0:
                raise ValueError(f"{name} must be a finite number >= 0, not {x!r}")
        if plan.family not in oc.FAMILIES:
            raise ValueError(f"unknown family {plan.family!r}")
        return plan


def default_generator_ids(p: int, family: str = "full") -> list[GeneratorId]:
    """Deterministic generator schedule: carriers, then sideband classes.

    Resonance classes whose restriction is the zero operator (the class of
    frequency 0) are omitted; they generate no motion.
    """
    if family not in oc.FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    part = sd.resonance_partition(p + 1)
    gens = [GeneratorId("carrier", g, z) for g in (1, 2) for z in ("V", "W")]
    for gamma in (1, 2):
        for star in oc.FAMILIES[family]:
            for part_name in ("V", "W"):
                for j, cls in enumerate(part.classes, start=1):
                    if cls.kernel == 0:
                        continue
                    gens.append(GeneratorId("sideband", gamma, part_name, star, j))
    return gens


@lru_cache(maxsize=None)
def build_generator_operator(gid: GeneratorId, p: int) -> oc.TruncatedOperator:
    if gid.kind == "carrier":
        return oc.build_coupling(gid.coupling, p)
    return sd.build_decoupled_generator(gid.coupling, gid.class_index, p)


def _program(gens, p: int) -> oc.SegmentProgram:
    return oc.SegmentProgram.from_operators(build_generator_operator(g, p) for g in gens)


def plan_transfer(phi0: np.ndarray, phiT: np.ndarray, p: int, M: float = 1.0,
                  eps_plan: float = 1e-3, seed: int = 0,
                  budget: int = DEFAULT_BUDGET, family: str = "full") -> Plan:
    """Steer phi0 to phiT in the order-p decoupled modal truncation.

    Multi-start L-BFGS over segment angles on a cyclic generator schedule
    whose length grows across restarts; stops as soon as the L2 error
    drops below eps_plan or the iteration budget runs out (the best plan
    found is returned either way, with its honest achieved error).
    """
    if p < 3 or not sd.is_prime(p):
        raise ValueError("planning order p must be a prime >= 3")
    if budget < 1:
        raise ValueError("iteration budget must be >= 1")
    dim = 4 * p
    phi0 = oc.normalize(np.asarray(phi0, dtype=np.complex128))
    phiT = oc.normalize(np.asarray(phiT, dtype=np.complex128))
    if len(phi0) > dim or len(phiT) > dim:
        raise ValueError("states must be supported in the 4p truncation")
    phi0 = np.pad(phi0, (0, dim - len(phi0)))
    phiT = np.pad(phiT, (0, dim - len(phiT)))

    base_err = float(np.linalg.norm(phi0 - phiT))
    if base_err < eps_plan:
        return Plan(p, M, seed, eps_plan, base_err, [], family, phi0)

    gens = default_generator_ids(p, family)
    one_cycle = _program(gens, p)
    rng = np.random.default_rng(seed)

    best = None  # (error, thetas, cycles)
    iters_left = budget
    cycles_schedule = _cycle_schedule(len(gens), dim)
    restart = 0
    while iters_left > 0:
        cycles = cycles_schedule[min(restart, len(cycles_schedule) - 1)]
        prog = one_cycle.tile(cycles)
        theta0 = rng.normal(0.0, 0.5, size=len(prog.ptr) - 1)

        def fun(th):
            return _kernels.objective_grad(th, phi0, phiT, prog.ptr, prog.pj,
                                           prog.pk, prog.coeff, prog.kind)

        res = minimize(fun, theta0, maxiter=min(800, iters_left))
        iters_left -= max(res.nit, 1)
        err = float(np.sqrt(max(res.fun, 0.0)))
        if best is None or err < best[0]:
            best = (err, res.x, cycles)
        if err < eps_plan * 0.5:
            break
        restart += 1

    _, thetas, cycles = best
    segments = []
    for c in range(cycles):
        for i, gid in enumerate(gens):
            th = float(thetas[c * len(gens) + i])
            if abs(th) <= _PRUNE_TOL:
                continue
            segments.append(PlanSegment(gid, amplitude=np.sign(th) * M,
                                        duration=abs(th) / M))
    plan = Plan(p, M, seed, eps_plan, 0.0, segments, family)
    plan.final_state = simulate_plan_modal(plan, phi0)[-1]
    plan.achieved_error = float(np.linalg.norm(plan.final_state - phiT))
    return plan


def _cycle_schedule(ngens: int, dim: int) -> list[int]:
    # enough angles to cover the 2*dim-1 real degrees of freedom, growing
    # geometrically for the hard instances
    base = max(2, int(np.ceil(2.5 * (2 * dim - 1) / ngens)))
    out = [base, base]
    while out[-1] < 40:
        out.append(int(np.ceil(out[-1] * 1.5)))
    return out


# ---------------------------------------------------------------------------
# L-BFGS: two-loop recursion (Liu & Nocedal 1989) with a strong-Wolfe line
# search (Nocedal & Wright, Numerical Optimization, Alg. 3.5 bracketing and
# Alg. 3.6 zoom, cubic interpolation).  It stops after maxiter iterations,
# when max|g| <= _GTOL, when an iteration lowers f by at most
# _FTOL * max(|f_k|, |f_k+1|, 1), or when a line search from steepest
# descent finds no lower point in _MAXLS evaluations.
# ---------------------------------------------------------------------------

_MEMORY = 30
_FTOL = 1e-22
_GTOL = 1e-14
_MAXLS = 20
_C1, _C2 = 1e-4, 0.9  # sufficient decrease and curvature constants


class MinimizeResult(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int


def minimize(fun, x0, maxiter: int) -> MinimizeResult:
    """Minimize ``fun(x) -> (f, grad)`` from ``x0`` by L-BFGS."""
    x = np.array(x0, dtype=np.float64)
    f, g = fun(x)
    mem = []  # (s, y, 1 / s.y) of the last _MEMORY steps, oldest first
    nit = 0
    while nit < maxiter and np.max(np.abs(g), initial=0.0) > _GTOL:
        d = -g
        alphas = []
        for s, y, rho in reversed(mem):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        if mem:
            s, y, rho = mem[-1]
            d *= 1.0 / (rho * (y @ y))
        for (s, y, rho), a in zip(mem, reversed(alphas)):
            d += (a - rho * (y @ d)) * s
        step = _line_search(fun, x, f, g, d, 1.0 if mem else 1.0 / np.linalg.norm(g))
        if step is None:
            if not mem:
                break
            mem.clear()  # retry once from steepest descent
            continue
        x_new, f_new, g_new = step
        nit += 1
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > np.finfo(np.float64).eps * (y @ y):
            if len(mem) == _MEMORY:
                del mem[0]
            mem.append((s, y, 1.0 / sy))
        stalled = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if stalled:
            break
    return MinimizeResult(x, f, nit)


def _line_search(fun, x, f0, g0, d, a):
    """A strong-Wolfe step ``(x, f, g)`` along ``d`` from trial step ``a``.

    Falls back to the lowest sufficient-decrease point seen after _MAXLS
    evaluations, and returns None if there is none or ``d`` is not a
    descent direction.
    """
    dg0 = g0 @ d
    if not dg0 < 0:
        return None
    lo, hi = (0.0, f0, dg0, x, g0), None  # (step, f, slope, x, g)
    for _ in range(_MAXLS):
        xa = x + a * d
        fa, ga = fun(xa)
        new = (a, fa, ga @ d, xa, ga)
        if fa > f0 + _C1 * a * dg0 or fa >= lo[1]:
            hi = new
        elif abs(new[2]) <= -_C2 * dg0:
            return xa, fa, ga
        elif hi is None and new[2] < 0:
            lo = new  # still descending: extrapolate
            a *= 4.0
            continue
        else:
            if hi is None or new[2] * (hi[0] - a) >= 0:
                hi = lo
            lo = new
        a = _cubic_step(lo, hi)
    return (lo[3], lo[1], lo[4]) if lo[0] > 0 else None


def _cubic_step(lo, hi) -> float:
    """Minimizer of the cubic through both ends, kept in the middle 80%."""
    a, fa, da = lo[:3]
    b, fb, db = hi[:3]
    left, width = min(a, b), abs(b - a)
    d1 = da + db - 3.0 * (fa - fb) / (a - b) if width else math.nan
    rad = d1 * d1 - da * db
    if rad >= 0:
        d2 = math.copysign(math.sqrt(rad), b - a)
        t = b - (b - a) * (db + d2 - d1) / (db - da + 2.0 * d2)
        if math.isfinite(t) and left + 0.1 * width <= t <= left + 0.9 * width:
            return t
    return 0.5 * (a + b)


def simulate_plan_modal(plan: Plan, phi0: np.ndarray) -> np.ndarray:
    """States of the exact decoupled-modal flow: phi0, then one row per segment."""
    dim = 4 * plan.p
    phi = np.pad(np.asarray(phi0, dtype=np.complex128), (0, dim - len(phi0)))
    prog = _program([seg.generator for seg in plan.segments], plan.p)
    return prog.states(phi, [seg.angle for seg in plan.segments])
