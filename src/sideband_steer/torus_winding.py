"""Selection of lifted times t_bar = t_hat + 2*pi*s/nu and their certificates.

The searched quantity is exact: for a normal operator the deviation of a
class flow from the identity is max over eigenvalue moduli w of
2|sin(w*t_bar/2)|.  The scan evaluates it in 64-bit fixed point, and offers
every s whose bound is below eps plus ``_kernels.scan_rounding``, a rounding
term that does not grow with s.  Every candidate is re-verified with
fixed-point integer arithmetic before it is accepted, so the certified bound
never depends on float argument reduction at huge t_bar.  The same
reduction supplies exact rotation angles to the lifted simulator.

One search can realise a whole run of commuting class flows X[l1], X[l2],
... of one coupling X: class l1 is made exact through s, and each other
class h of the run must come near its planned angle tau_h rather than 0,
so its terms take the phase t_hat - tau_h (``DecouplingRequest.offsets``).
Without offsets every phase is t_hat - 0.0 == t_hat, and every bit is that
of a single-class search.

A search costs in proportion to the indices that could qualify, not to
the index it ends at.  It works upward through windows of s that start at
_CHUNK_FIRST indices and grow fourfold, with no cap, so a search to s_max =
1e12 takes 15 windows.  Within a window the kernel
(``_kernels.scan_decoupling``) enumerates only the s whose fractional parts
s*alpha_j + beta_j lie close enough to the integers that the sum could
fall below max(eps, best bound so far), as lattice points on an
LLL-reduced basis, and evaluates the sum on those alone, class by class
and in class order.  Hits, exhausted best indices and best bounds are
therefore bit for bit those of evaluating every class at every s.  The
kernel stops at its first hit; a candidate that fails the fixed-point
check resumes the same window at the index after it.

One batched evaluation (``_exact_batch``) does all the exact arithmetic:
the search's acceptance check and exhausted report, the ``bound_profile``
plot data and the lifted simulator's angles.  It reduces each radicand's
fixed-point numerator q modulo the denominator den once, since (s*q) mod
den equals (s*(q mod den)) mod den.  A batch of _BATCH_MIN indices or more
takes its fractions from fixed-width integers; every float equals the
one-index reduction's either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import _SQRT_DIGITS, _sqrt_fixed
from . import operator_core as oc
from . import spectral_decoupling as sd
from .errors import InternalConsistencyError, SearchExhaustedError

DEFAULT_S_MAX = 10**7
# scan windows: the first is small and each next one four times as long
_CHUNK_FIRST = 4096
# _exact_batch evaluates this many indices or more in fixed-width integers
_BATCH_MIN = 64
TWO_PI = 2.0 * math.pi


def _exact_batch(members, nu_kernel: int, s_values, t_hat):
    """Exact class errors of radicand classes at every index in ``s_values``.

    ``members`` lists each class's radicands in ascending order, and no
    radicand lies in two classes.  ``t_hat`` is one phase for every class
    or one per class (t_h = t_hat - tau_h in a lifted run).  Returns
    (bounds, per_class, residuals).  Row h of ``per_class`` is, per index,
    the largest 2|sin(delta/2)| over the radicands of class h, row h of
    ``residuals`` the residual delta of its smallest radicand; ``bounds``
    sums the rows in class order.

    delta is sqrt(r) * (t_h + 2*pi*s/sqrt(nu_kernel)) reduced mod 2*pi
    into [-pi, pi].  The winding part s*sqrt(r/nu_kernel) is reduced with
    ~40 guard digits of integer arithmetic, its numerator modulo its
    denominator once per radicand, so delta is accurate to ~1e-15 rad even
    for s near 1e12.  For radicands that are exact square multiples of the
    kernel the winding part vanishes identically, which realizes the
    periodicity of the selected class.

    Fewer than _BATCH_MIN indices, or any index outside [0, 2^53), take the
    integer expression (s*q mod den)/den and math.remainder one element at
    a time.  A larger batch takes the fractions from
    ``_kernels.winding_fractions``: 128-bit fixed point, correctly rounded
    unless a rounding midpoint lies within its error, and then the integer
    expression itself, so each fraction is the same float.  The rest of the
    arithmetic is the same IEEE operations: base + 2*pi*F, one multiply and
    one add; np.fmod, exact, then 2*pi added or subtracted once where the
    result lies beyond pi, exact by Sterbenz's lemma, which is
    math.remainder's value except at an exact tie |delta| == pi, left to
    math.remainder; and np.sin, whose bits the oracle tests compare with
    math.sin's.  The batch path is for grids (the
    ``decouple`` plot data): on one index it costs more than it saves.
    """
    den = nu_kernel * 10 ** _SQRT_DIGITS
    # radicand 0 takes base 0.0 whatever t_h is, so its residual is 0.0
    phases = _kernels.class_phases(t_hat, len(members))
    terms = [(_sqrt_fixed(r * nu_kernel) % den, math.sqrt(r) * t_h if r else 0.0)
             for cls, t_h in zip(members, phases) for r in cls]
    s_arr = np.asarray(s_values)
    if len(s_arr) >= _BATCH_MIN and s_arr.dtype.kind in "iu" \
            and 0 <= s_arr.min() and s_arr.max() < 2**53:
        frac = _kernels.winding_fractions([q for q, _ in terms], den, s_arr)
        x = np.array([base for _, base in terms])[:, None] + TWO_PI * frac
        # fmod is exact, and so is each correction (Sterbenz): delta is
        # math.remainder's value except at a tie |delta| == pi
        delta = np.fmod(x, TWO_PI)
        delta[delta > math.pi] -= TWO_PI
        delta[delta < -math.pi] += TWO_PI
        tie = ~(np.abs(delta) < math.pi)
        delta[tie] = [math.remainder(v, TWO_PI) for v in x[tie].tolist()]
        err = 2.0 * np.abs(np.sin(0.5 * delta))
    else:
        s_ints = [int(s) for s in s_values]
        flat = [math.remainder(base + TWO_PI * ((s * q) % den / den), TWO_PI)
                for q, base in terms for s in s_ints]
        delta = np.array(flat).reshape(-1, len(s_ints))
        err = 2.0 * np.abs(np.array([math.sin(0.5 * d) for d in flat])).reshape(delta.shape)
    sizes = np.array([len(cls) for cls in members])
    starts = np.cumsum(sizes) - sizes
    per_class = np.maximum.reduceat(err, starts)
    # accumulate adds row after row, as sum() over the classes would
    bounds = np.add.accumulate(per_class)[-1]
    return bounds, per_class, delta[starts]


@dataclass(frozen=True)
class DecouplingRequest:
    """Inputs of one decoupling-time selection.

    ``offsets`` holds (h, tau_h) for the other classes of a lifted run: the
    flow exp(t_bar U) must bring class h near exp(tau_h U_h), not near the
    identity.  Every class not named, and the omega_m term, has tau 0.0.
    """

    id: str
    m: int
    ell: int
    t_hat: float
    eps: float
    s_max: int = DEFAULT_S_MAX
    offsets: tuple[tuple[int, float], ...] = ()


@dataclass
class DecouplingResult:
    """Certified winding index and its per-class error budget.

    ``per_class_error`` lists classes h != ell in ascending order followed
    by the omega_m term; ``residuals`` carries the matching representative
    angles.  The exact value of t_bar is the triple (t_hat, s, nu_kernel)
    via t_bar = t_hat + 2*pi*s/sqrt(nu_kernel); the float field is for
    reporting.
    """

    s: int
    t_bar: float
    per_class_error: list[float]
    bound: float
    residuals: list[float]
    t_hat: float = 0.0
    nu_kernel: int = 1

    def to_json(self) -> dict:
        return {"s": self.s, "t_bar": self.t_bar, "bound": self.bound,
                "per_class_error": list(self.per_class_error),
                "residuals": list(self.residuals),
                "t_hat": self.t_hat, "nu_kernel": self.nu_kernel}


def _torus_data(m: int, ell: int):
    """(members, nu_kernel): per-class radicands, ascending, for the scan
    (classes h != ell, then dec) and the square-free kernel of class ell's
    frequency, 1 for the zero class."""
    part = sd.resonance_partition(m)
    if not 1 <= ell <= part.count:
        raise ValueError(f"class index ell={ell} outside 1..{part.count}")
    members = [list(cls.radicands) for h, cls in enumerate(part.classes, start=1) if h != ell]
    return members + [[m - 1]], part.classes[ell - 1].kernel or 1


def find_decoupling_time(req: DecouplingRequest) -> DecouplingResult:
    """Smallest s in 0..s_max with sum of class errors below req.eps.

    Class h's error is the largest 2|sin(sqrt(r) (t_bar - tau_h)/2)| over
    its radicands r, with tau_h from ``req.offsets``.  The hypothesis
    "omega_h/omega_m irrational or zero" is checked exactly before
    searching (it reduces to m-1 square-free).  s_max must lie in
    [0, 2**53): the scan forms s*f in float64, and bounds its rounding only
    below 2**53.  A request whose phases are too large for float64 to
    resolve its eps (``_kernels.scan_rounding`` >= eps) is a ValueError.
    Raises SearchExhaustedError with the best candidate when no s qualifies.
    """
    if not (oc.is_ion(req.id) and oc.is_sideband(req.id)):
        raise ValueError("decoupling applies to ion sideband operators only")
    if req.eps <= 0:
        raise ValueError("eps must be positive")
    if not (math.isfinite(req.eps) and math.isfinite(req.t_hat)):
        raise ValueError(f"eps and t_hat must be finite, not {req.eps} and {req.t_hat}")
    if not 0 <= req.s_max < 2**53:
        raise ValueError(f"s_max must lie in [0, 2**53), not {req.s_max}")
    if req.m < 2:
        raise ValueError("order m must be >= 2")
    if not sd.decoupling_order_ok(req.m):
        raise ValueError(
            f"order m={req.m} violates the decoupling hypothesis: "
            f"omega_{req.m} = sqrt({req.m - 1}) is rationally resonant with a lower frequency")
    members, nu_kernel = _torus_data(req.m, req.ell)
    phases = _run_phases(req, len(members))
    step = TWO_PI / math.sqrt(nu_kernel)
    # the scan's bound lies within scan_rounding of the exact one at every s
    rounding = _kernels.scan_rounding(members, phases)
    if rounding >= req.eps:
        raise ValueError(f"t_hat={req.t_hat:g} is too large for eps={req.eps:g}: its float "
                         f"phases resolve the bound only to {rounding:.3g}")
    eps_scan = req.eps + rounding

    def accept(s: int) -> DecouplingResult | None:
        bounds, per_class, residuals = _exact_batch(members, nu_kernel, [s], phases)
        bound = float(bounds[0])
        if bound < req.eps:
            return DecouplingResult(
                s=s, t_bar=req.t_hat + step * s, per_class_error=per_class[:, 0].tolist(),
                bound=bound, residuals=residuals[:, 0].tolist(), t_hat=req.t_hat,
                nu_kernel=nu_kernel)
        return None

    best = (-1, math.inf)
    # window [s_next, s_hi): the first holds _CHUNK_FIRST indices and each
    # next one four times as many; a rejected candidate resumes the same window
    chunk = _CHUNK_FIRST
    s_next, s_hi = 0, min(chunk, req.s_max + 1)
    while s_next <= req.s_max:
        if s_next == s_hi:
            chunk *= 4
            s_hi = min(s_hi + chunk, req.s_max + 1)
        cand, best = _kernels.scan_decoupling(members, nu_kernel, phases, eps_scan, best,
                                              s_next, s_hi)
        if cand >= 0:
            res = accept(cand)
            if res is not None:
                return res
            s_next = cand + 1
        else:
            s_next = s_hi
    best_s = best[0]
    best_bound = float(_exact_batch(members, nu_kernel, [best_s], phases)[0][0])
    raise SearchExhaustedError(
        f"no s <= {req.s_max} meets eps={req.eps}; best s={best_s} "
        f"with bound {best_bound:.6g}",
        best_s=best_s, best_bound=best_bound)


def _run_phases(req: DecouplingRequest, count: int) -> list[float]:
    """t_hat - tau_h for the scanned classes: the classes h != ell in
    ascending order, then the omega_m term, whose tau is 0.0."""
    others = [h for h in range(1, count + 1) if h != req.ell]
    tau = dict(req.offsets)
    if len(tau) != len(req.offsets) or not set(tau) <= set(others):
        raise ValueError(f"offsets must name distinct classes other than ell={req.ell} "
                         f"in 1..{count}, not {req.offsets!r}")
    if not all(math.isfinite(t) for t in tau.values()):
        raise ValueError(f"offset angles must be finite, not {req.offsets!r}")
    return [req.t_hat - tau.get(h, 0.0) for h in others] + [req.t_hat]


# ---------------------------------------------------------------------------
# verification of the correction operator
# ---------------------------------------------------------------------------


def bound_profile(m: int, ell: int, t_hat: float, s_values) -> np.ndarray:
    """Exact certified bound at each winding index in ``s_values``.

    Plot-data helper: shows how the torus residual decays along the search.
    """
    members, nu_kernel = _torus_data(m, ell)
    return _exact_batch(members, nu_kernel, s_values, t_hat)[0]


def exact_flow_betas(cid: str, dim: int, s: int, nu_kernel: int, t_hat: float) -> np.ndarray:
    """Per-pair rotation angles of exp(t_bar * Z_cid), exactly reduced mod 2*pi."""
    _, _, pc, _, pr = oc.pair_arrays(cid, dim)
    rads = sorted(set(pr.tolist()))
    by_rad = np.empty(rads[-1] + 1)
    by_rad[rads] = _exact_batch([[r] for r in rads], nu_kernel, [s], t_hat)[2][:, 0]
    return np.copysign(1.0, pc) * by_rad[pr]


def ell_class_betas(cid: str, dim: int, part: sd.ResonancePartition, ell: int,
                    t: float) -> tuple:
    """(pair arrays, angles) of exp(t * Z_{cid,ell}) on the class-ell pairs."""
    pj, pk, pc, pt, pr = oc.pair_arrays(cid, dim)
    mask = sd.class_mask(part, ell, pr)
    return (pj[mask], pk[mask], pt[mask]), pc[mask] * t


def verify_sigma(req: DecouplingRequest, res: DecouplingResult, dim_sim: int) -> float:
    """Measured norm of (Sigma - I) restricted to Y = Y_{4(m-1)}.

    Sigma is built columnwise as exp(t_bar U) exp(-P) through the exact
    segment flows, with P = t_hat U_ell plus tau_h U_h for each (h, tau_h)
    of ``req.offsets``; the routine also checks the defining identity
    exp(t_bar U) = exp(P) Sigma on Y and that the measurement never
    exceeds the certified bound.
    """
    m = req.m
    if dim_sim < 4 * (m + 1):
        raise ValueError("dim_sim must be at least 4(m+1)")
    part = sd.resonance_partition(m)
    ydim = 4 * (m - 1)
    pj, pk, _, pt, _ = oc.pair_arrays(req.id, dim_sim)
    betas_full = exact_flow_betas(req.id, dim_sim, res.s, res.nu_kernel, res.t_hat)

    cols = np.zeros((dim_sim, ydim), dtype=np.complex128)
    cols[:ydim] = np.eye(ydim)
    _kernels.rotate_pairs(cols, pj, pk, *_kernels._rotation(betas_full, pt))  # exp(t_bar U)
    full_flow = cols.copy()
    # the planned class flows act on disjoint pairs, so they commute
    planned = [ell_class_betas(req.id, dim_sim, part, h, -t)
               for h, t in ((req.ell, req.t_hat), *req.offsets)]
    for (lj, lk, lt), lbetas in planned:
        _kernels.rotate_pairs(cols, lj, lk, *_kernels._rotation(lbetas, lt))  # exp(-P)

    sigma_minus_i = cols.copy()
    sigma_minus_i[:ydim] -= np.eye(ydim)
    measured = float(np.linalg.norm(sigma_minus_i, ord=2))

    # identity check: exp(P) Sigma == exp(t_bar U) on Y
    recomposed = cols.copy()
    for (lj, lk, lt), lbetas in planned:
        _kernels.rotate_pairs(recomposed, lj, lk, *_kernels._rotation(-lbetas, lt))
    ident_err = float(np.linalg.norm(recomposed - full_flow, ord=2))
    if ident_err > 1e-10:
        raise InternalConsistencyError(
            f"decomposition identity fails by {ident_err:.3e} on Y")
    if measured > res.bound + 1e-10:
        raise InternalConsistencyError(
            f"measured ||(Sigma-I)|_Y|| = {measured:.3e} exceeds certified bound {res.bound:.3e}")
    return measured
