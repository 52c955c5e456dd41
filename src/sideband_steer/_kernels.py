"""Hot numeric kernels, in numpy.

Three kernels carry the numeric load: pair rotations (every segment flow),
the decoupling-time scan (every winding search) and the planner's
objective with its adjoint gradient (every L-BFGS evaluation).  Each has
exactly one implementation.  The scan does not test every winding index:
it enumerates, as lattice points, the indices whose float bound could be
small enough, and evaluates the bound on those alone.

All kernels operate on 0-based index arrays.  Pair rotations exploit the
disjoint two-level structure of the coupling operators: a segment flow is
a bundle of independent 2x2 rotations, never a dense matrix exponential.
``rotate_pairs`` applies them to a state or to a block of columns alike.
The objective scatters the same 2x2 rotation entries into a dense stack
of small propagators, one per segment, so that each sweep step is a
single mat-vec (forward on the state, backward on the conjugated adjoint
as a row vector) and the gradient is one batched contraction over all
pairs.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from math import isqrt

import numpy as np

# ---------------------------------------------------------------------------
# pair rotations
#
# kind 0 ("E"): exp(b*E) on a pair (j,k) acts as
#   a_j <- cos(b) a_j + i sin(b) a_k,   a_k <- i sin(b) a_j + cos(b) a_k
# kind 1 ("F"): exp(b*F) acts as
#   a_j <- cos(b) a_j + sin(b) a_k,     a_k <- -sin(b) a_j + cos(b) a_k
# ---------------------------------------------------------------------------


def _rotation(betas, kinds):
    """(cos, upper, lower): each pair's rotation of (a_j, a_k) is the matrix
    [[cos, upper], [lower, cos]], with the entries of the table above."""
    c = np.cos(betas)
    s = np.sin(betas)
    up = np.where(kinds == 0, 1j * s, s.astype(np.complex128))
    return c, up, np.where(kinds == 0, up, -up)


def rotate_pairs(state, pj, pk, betas, kinds):
    """Apply disjoint 2x2 rotations, in place, to the rows of ``state``:
    a state vector or a (dim, ncols) block of columns."""
    if len(pj) == 0:
        return state
    c, up, lo = _rotation(betas, kinds)
    if state.ndim == 2:  # one rotation per row, applied to every column
        c, up, lo = c[:, None], up[:, None], lo[:, None]
    a = state[pj]
    b = state[pk]
    state[pj] = c * a + up * b
    state[pk] = lo * a + c * b
    return state


# ---------------------------------------------------------------------------
# decoupling-time scan
#
# bound(s) = sum over classes h of max over class members w of
# 2|sin(w*tbar_h/2)| with tbar_h = t_h + step*s.  t_hat gives the phase t_h
# of every class: one float for all of them, or one per class.  A lifted
# run of commuting class flows passes t_h = t_hat - tau_h, tau_h the angle
# class h must realise (0.0 off the run).  Returns the first s in [s0, s1)
# whose bound is below eps (or -1) plus the best (s, bound) seen, so
# exhausted searches can report how close they got.
#
# The work follows the survivors, not the window.  With thr = max(eps,
# best_bound), an s matters only if bound(s) < thr: otherwise it is neither
# a hit nor a strict new best.  The kernel enumerates a superset of those s
# and evaluates the float bound on them alone, with the formula and the
# class order of a full evaluation: tot, the first hit and the first argmin
# are bit for bit the same.  A float sum of nonnegative terms never falls
# below any partial sum, so each class term is evaluated only where the
# running sum is still below thr.  Classes whose frequencies are all 0 add
# exactly 0.0 and are skipped.
#
# The screen.  For w = sqrt(r) and step = 2*pi/sqrt(nu), r and nu integers,
# w*tbar_h/2 = pi*(beta + s*alpha) with beta = w*t_h/(2*pi) and alpha =
# sqrt(r/nu), carried exactly as _sqrt_fixed(r*nu) / (nu * 10**_SQRT_DIGITS).
# Take each class's smallest radicand and let D_j(s) be the distance of
# beta_j + s*alpha_j to the nearest integer; the class term is at least
# 2*sin(pi*D_j).  With h = thr/2 < 1 and a = asin(h)/pi, each term below thr
# needs D_j < a, and there 2*sin(pi*D) >= thr*D/a because sin is concave on
# [0, pi/2].  So a sum below thr needs sum_j D_j < a: the s that matter lie
# in a cross-polytope of radius a over the fractional parts.  The radius is
# widened outward for what separates the oracle's float argument from
# pi*(beta + s*alpha): a few ulps of w*(max |t_h| + step*s)/2 (the roundings
# of step, of the products and of the sum), a relative 2^-40 on thr/2 for
# numpy's sin near a multiple of pi and the float sum, and a few ulps of 1
# for asin, the division by pi and beta.  A class whose alpha is an integer
# (the integer-frequency class when the zero class is selected) has a
# constant D_j, which is taken off the radius.
#
# The enumeration.  Around a piece's centre s_c, s = s_c + t, and the
# integer vectors (t, k_1..k_d) map to z = (t/H, (gamma_j + t*alpha_j -
# k_j)/rho), with gamma_j = beta_j + s_c*alpha_j reduced mod 1 in integer
# arithmetic, H the piece's half-width and rho the widened radius.  Every s
# that matters has |z_0| <= 1 and sum |z_j| < 1, so |z|^2 < 2.  The lattice
# points in that ball are enumerated coordinate by coordinate (Fincke-Pohst),
# breadth first, on an LLL-reduced basis (Lenstra, Lenstra & Lovasz 1982).
# The basis depends only on H/rho: it is reduced once per power of two of
# that ratio, each from the one before, and cached.
#
# Where the screen passes a large share (thr/2 >= 1, no class with an
# irrational alpha, or more than one lattice point per eight indices), or the
# window is shorter than _ENUM_MIN, every s is evaluated, _BLOCK steps at a
# time.  Otherwise a piece holds about _ENUM_POINTS expected lattice points,
# so memory follows the survivors.  Pieces run in order; a piece's best
# tightens thr for the next ones.
# ---------------------------------------------------------------------------

_SQRT_DIGITS = 44
_SCREEN_ULPS = 8.0
_EPS64 = float(np.finfo(np.float64).eps)
_BLOCK = 1 << 15  # steps evaluated at once where the screen passes most of them
_ENUM_POINTS = 1 << 14  # expected lattice points in one enumerated piece
_ENUM_MIN = 1 << 12  # a shorter window costs less to evaluate whole than to enumerate
_ENUM_R2 = 2.0  # squared radius of the ball that holds |z_0| <= 1, sum |z_j| < 1


@lru_cache(maxsize=None)
def _sqrt_fixed(n: int) -> int:
    """floor(sqrt(n) * 10**_SQRT_DIGITS) as an exact integer."""
    return isqrt(n * 10 ** (2 * _SQRT_DIGITS))


def scan_decoupling(t_hat, step, w, cls_ptr, eps, s0, s1, best_s, best_bound):
    ptr = tuple(int(i) for i in cls_ptr)
    classes, index, reps, alphas = _classes(np.asarray(w, dtype=np.float64).tobytes(),
                                            ptr, float(step))
    per_class = class_phases(t_hat, len(ptr) - 1)
    phases = [per_class[k] for k in index]
    distinct = list(dict.fromkeys(phases))
    terms = tuple((lo, hi, distinct.index(t)) for (lo, hi), t in zip(classes, phases))
    screen = _screen(phases, reps, alphas)
    t_max = max(map(abs, phases), default=0.0)
    cand = -1
    p0 = s0
    while p0 < s1:
        thr = max(eps, best_bound)
        p1, s = _piece(screen, t_max, step, thr, p0, s1)
        if s is None:
            s = np.arange(p0, p1, dtype=np.float64)
        s, tot = _bounds_below(distinct, step, w, terms, s, thr)
        if len(tot):
            i = int(np.argmin(tot))
            if tot[i] < best_bound:
                best_bound = float(tot[i])
                best_s = int(s[i])
            hits = np.flatnonzero(tot < eps) if cand < 0 else ()
            if len(hits):
                cand = int(s[hits[0]])
        p0 = p1
    return cand, best_s, best_bound


def class_phases(t_hat, count):
    """One phase per class: the entries of ``t_hat``, or ``t_hat`` itself
    ``count`` times when it is a single number."""
    if np.ndim(t_hat) == 0:
        return [float(t_hat)] * count
    phases = [float(t) for t in t_hat]
    if len(phases) != count:
        raise ValueError(f"{len(phases)} phases for {count} classes")
    return phases


def _bounds_below(phases, step, w, terms, s, thr):
    """(s, tot): the indices of ascending ``s`` whose float bound tot is below
    thr.  ``terms`` holds each class's (lo, hi, row), row indexing the
    distinct ``phases``: each half angle 0.5*(t + step*s) is formed once
    per distinct phase, not once per class."""
    ss = step * s.astype(np.float64)
    h = [0.5 * (t + ss) for t in phases]
    tot = np.zeros_like(ss)
    for lo, hi, row in terms:
        if hi - lo == 1:
            m = np.abs(np.sin(w[lo] * h[row]))
        else:
            m = np.abs(np.sin(np.multiply.outer(w[lo:hi], h[row]))).max(axis=0)
        tot += 2.0 * m
        keep = tot < thr
        if not keep.all():
            s, tot = s[keep], tot[keep]
            h = [x[keep] for x in h]
    return s, tot


@lru_cache(maxsize=64)
def _classes(w_bytes, cls_ptr, step):
    """(classes, index, reps, alphas): the (lo, hi) of the classes with a
    nonzero frequency, their positions among all classes, each one's
    smallest nonzero frequency, and (den, q, irrational): alpha_j = q_j/den
    for the irrational alphas, and which alphas are irrational.  alphas is
    None unless every rep is sqrt(r), step is 2*pi/sqrt(nu) for integers r,
    nu, and every rational alpha is an integer."""
    w = np.frombuffer(w_bytes)
    index = tuple(k for k, (lo, hi) in enumerate(zip(cls_ptr[:-1], cls_ptr[1:]))
                  if np.any(w[lo:hi]))
    classes = tuple((cls_ptr[k], cls_ptr[k + 1]) for k in index)
    reps = tuple(float(np.min(w[lo:hi][w[lo:hi] != 0.0])) for lo, hi in classes)
    nu = round((2.0 * math.pi / step) ** 2) if step > 0.0 else 0
    if nu < 1 or 2.0 * math.pi / math.sqrt(nu) != step:
        return classes, index, reps, None
    den = nu * 10**_SQRT_DIGITS
    qs, irrational = [], []
    for wj in reps:
        r = round(wj * wj)
        if not (r >= 1 and math.sqrt(r) == wj):
            return classes, index, reps, None
        irrational.append(isqrt(r * nu) ** 2 != r * nu)
        if irrational[-1]:
            qs.append(_sqrt_fixed(r * nu))
        elif isqrt(r * nu) % nu:  # a rational alpha that is not an integer
            return classes, index, reps, None
    return classes, index, reps, (den, tuple(qs), tuple(irrational))


def _screen(phases, reps, alphas):
    """(wsum, den, q, beta, d_const): ``q`` and ``beta`` of the classes with
    an irrational alpha = q/den, the constant distances D of those with an
    integer alpha, and the sum of all their frequencies; ``phases`` holds
    each class's t_h.  None where the screen does not apply: then every s
    is evaluated."""
    if alphas is None or not all(map(math.isfinite, phases)):
        return None
    den, qs, irrational = alphas
    beta = [wj * tj / (2.0 * math.pi) for wj, tj in zip(reps, phases)]
    return (sum(reps), den, qs, [b for b, irr in zip(beta, irrational) if irr],
            [abs(b - round(b)) for b, irr in zip(beta, irrational) if not irr])


def _piece(screen, t_max, step, thr, p0, s1):
    """(p1, s): the next piece [p0, p1) of the window and the ascending
    indices in it whose bound can be below thr, None where all can.
    ``t_max`` is the largest |t_h| of the classes."""
    h = 0.5 * thr * (1.0 + 2.0**-40)
    if screen is None or h >= 1.0:
        return min(s1, p0 + _BLOCK), None
    wsum, den, qs, beta, d_const = screen
    hmax = 0.5 * (t_max + step * (s1 - 1))
    margin = _SCREEN_ULPS * _EPS64 * (wsum * hmax / math.pi + 4.0 * (len(qs) + len(d_const)))
    rho = math.asin(h) / math.pi + 2.0 * margin - sum(d_const)
    if rho <= 0.0:
        return s1, np.empty(0, dtype=np.int64)
    d = len(qs)
    # expected lattice points per index: the ball's volume over the lattice's
    # determinant, 1/(H * rho**d), per 2H indices
    density = math.pi ** ((d + 1) / 2) / math.gamma((d + 3) / 2) \
        * _ENUM_R2 ** ((d + 1) / 2) * rho**d / 2.0
    if d == 0 or s1 - p0 < _ENUM_MIN or density > 0.125:
        return min(s1, p0 + _BLOCK), None
    p1 = min(s1, p0 + int(_ENUM_POINTS / density))
    return p1, _enumerate(qs, den, beta, rho, p0, p1)


def _enumerate(qs, den, beta, rho, p0, p1):
    """Ascending s in [p0, p1) whose lattice point z lies in the ball |z|^2 <= 2."""
    s_c = (p0 + p1 - 1) // 2
    half = p1 - 1 - s_c  # >= s_c - p0
    tcol, coords = _reduced_basis(qs, den, max(0, round(math.log2(half / rho))))
    rows = coords * np.array([1.0 / half] + [1.0 / rho] * len(qs))
    gamma = np.array([b + (s_c * q) % den / den for q, b in zip(qs, beta)])
    gamma -= np.rint(gamma)
    target = np.concatenate(([0.0], gamma / rho))
    orth, tri = np.linalg.qr(rows.T)  # rows = tri.T @ orth.T, tri.T lower triangular
    r2 = _ENUM_R2 * (1.0 + 1e-9) + 1e-12 * float(target @ target)
    s = s_c + _ball_points(tri.T, orth.T @ target, r2, tcol)
    return np.unique(s[(s >= p0) & (s < p1)])


def _ball_points(low, center, r2, tcol):
    """x @ tcol for every integer x with |x @ low + center|^2 <= r2.

    ``low`` is lower triangular, so coordinate k of x @ low + center depends
    on x_k..x_{n-1} only: x is enumerated from its last entry down, level by
    level.  A node carries the budget left, its partial coordinates and its
    partial x @ tcol.  Small levels are expanded in Python, larger ones in
    one numpy pass each.
    """
    low_rows = low.tolist()
    nodes = [(r2, center.tolist(), 0)]
    k = len(center) - 1
    while k >= 0 and len(nodes) <= 32:
        lkk, tk = low_rows[k][k], int(tcol[k])
        nxt = []
        for rem, part, t in nodes:
            mid, reach = -part[k] / lkk, math.sqrt(max(rem, 0.0)) / abs(lkk)
            for x in range(math.ceil(mid - reach), math.floor(mid + reach) + 1):
                y = part[k] + x * lkk
                nxt.append((rem - y * y, [p + x * q for p, q in zip(part[:k], low_rows[k])],
                            t + x * tk))
        nodes = nxt
        k -= 1
    if k < 0:
        return np.array([t for _, _, t in nodes], dtype=np.int64)
    rem = np.array([n[0] for n in nodes])
    part = np.array([n[1] for n in nodes])
    t = np.array([n[2] for n in nodes], dtype=np.int64)
    for k in range(k, -1, -1):
        lkk = low[k, k]
        mid = -part[:, k] / lkk
        reach = np.sqrt(np.maximum(rem, 0.0)) / abs(lkk)
        lo = np.ceil(mid - reach)
        cnt = np.maximum(np.floor(mid + reach) - lo + 1.0, 0.0).astype(np.int64)
        parent = np.repeat(np.arange(len(cnt)), cnt)
        x = lo[parent] + (np.arange(len(parent)) - (np.cumsum(cnt) - cnt)[parent])
        y = part[parent, k] + x * lkk
        rem = rem[parent] - y * y
        part = part[parent, :k] + np.multiply.outer(x, low[k, :k])
        t = t[parent] + x.astype(np.int64) * tcol[k]
    return t


@lru_cache(maxsize=None)
def _reduced_basis(qs, den, k):
    """(t, coords) of the LLL-reduced basis _lll_rows(qs, den, k): the t_i
    of its rows, and each row's coordinates (t_i, t_i*alpha_j - k_ij)."""
    rows = _lll_rows(qs, den, k)
    return (np.array([u[0] for u in rows], dtype=np.int64),
            np.array([_coords(u, qs, den, 1.0) for u in rows]))


@lru_cache(maxsize=None)
def _lll_rows(qs, den, k):
    """Integer rows (t_i, k_i1..k_id) of an LLL-reduced basis of the lattice
    spanned by (2**-k, alpha_1..alpha_d) and the -e_j, alpha_j = q_j/den.

    Each shape is reduced starting from the basis of the one before, which
    is nearly reduced already.
    """
    n = len(qs) + 1
    if k == 0:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        rows = [list(u) for u in _lll_rows(qs, den, k - 1)]
    _lll(rows, lambda u: _coords(u, qs, den, 2.0**-k))
    return tuple(tuple(u) for u in rows)


def _coords(u, qs, den, scale):
    """(scale*t, t*alpha_j - k_j) of the integer vector u = (t, k_1..k_d),
    each entry rounded once from exact integers."""
    return [u[0] * scale] + [(u[0] * q - uj * den) / den for q, uj in zip(qs, u[1:])]


def _lll(rows, coords, delta=0.99, max_swaps=10_000):
    """LLL-reduce the integer ``rows`` in place (Schnorr-Euchner, float
    Gram-Schmidt).  Each changed row's coordinates are recomputed exactly
    from its integers.  Any basis enumerates the same points, so reduction
    only needs to be good, not exact: it stops after ``max_swaps``.
    """
    n = len(rows)
    b = [coords(u) for u in rows]
    mu = [[0.0] * n for _ in range(n)]
    norm2 = [0.0] * n  # squared Gram-Schmidt norms

    def orthogonalize(i):
        for j in range(i):
            mu[i][j] = (sum(map(operator.mul, b[i], b[j]))
                        - sum(mu[j][l] * mu[i][l] * norm2[l] for l in range(j))) / norm2[j]
        norm2[i] = (sum(x * x for x in b[i])
                    - sum(mu[i][l] ** 2 * norm2[l] for l in range(i)))

    orthogonalize(0)
    i, swaps = 1, 0
    while i < n and swaps < max_swaps:
        orthogonalize(i)
        while any(abs(mu[i][j]) > 0.51 for j in range(i)):
            for j in range(i - 1, -1, -1):
                c = round(mu[i][j])
                if c:
                    rows[i] = [x - c * y for x, y in zip(rows[i], rows[j])]
                    for l in range(j):
                        mu[i][l] -= c * mu[j][l]
                    mu[i][j] -= c
            b[i] = coords(rows[i])
            orthogonalize(i)
        if norm2[i] >= (delta - mu[i][i - 1] ** 2) * norm2[i - 1]:
            i += 1
        else:
            rows[i - 1], rows[i] = rows[i], rows[i - 1]
            b[i - 1], b[i] = b[i], b[i - 1]
            swaps += 1
            i = max(i - 1, 1)
            if i == 1:
                orthogonalize(0)


# ---------------------------------------------------------------------------
# planner objective + adjoint gradient
#
# Segment k is the flow U_k = exp(theta_k * S_k) of one disjoint-pair
# operator (CSR layout seg_ptr / pj / pk / pc / pkind, rotation angle
# theta_k * pc).  All nseg propagators of an evaluation are built at once as
# a dense (nseg, dim, dim) stack: the identity, with the same rotation
# entries that rotate_pairs applies (_rotation) scattered into it.
# Forward: phi_{k+1} = U_k phi_k, one mat-vec per segment.
# Objective: f = ||phi_K - target||^2 summed componentwise (no cancellation,
# so values down to ~1e-30 stay meaningful).
# Backward, on the conjugated adjoint lam = conj(mu) as a row vector:
# lam_K = conj(phi_K - target), lam_k = lam_{k+1} U_k (the same as
# mu_k = U_k^dag mu_{k+1}, with no transposed copy of U_k).
# Gradient, after the sweeps, in one gathered contraction over all pairs:
# grad_k = 2 Re lam_{k+1} S_k phi_{k+1}, summed per segment.
# ---------------------------------------------------------------------------


def objective_grad(thetas, phi0, target, seg_ptr, pj, pk, pc, pkind):
    nseg = len(thetas)
    dim = phi0.shape[0]
    seg = np.repeat(np.arange(nseg), np.diff(seg_ptr))
    c, up, lo = _rotation(thetas[seg] * pc, pkind)
    u = np.zeros((nseg, dim, dim), dtype=np.complex128)
    u.reshape(nseg, dim * dim)[:, ::dim + 1] = 1.0
    u[seg, pj, pj] = c
    u[seg, pk, pk] = c
    u[seg, pj, pk] = up
    u[seg, pk, pj] = lo
    phi = np.empty((nseg + 1, dim), dtype=np.complex128)
    phi[0] = phi0
    for k in range(nseg):
        np.dot(u[k], phi[k], out=phi[k + 1])
    mu = phi[nseg] - target
    f = float(np.sum(mu.real**2 + mu.imag**2))
    lam = np.empty((nseg + 1, dim), dtype=np.complex128)
    lam[nseg] = mu.conj()
    for k in range(nseg - 1, -1, -1):
        np.dot(lam[k + 1], u[k], out=lam[k])
    # S_k phi is cj * phi[pk] at pj and ck * phi[pj] at pk
    e = pkind == 0
    cj = np.where(e, 1j * pc, pc)
    ck = np.where(e, 1j * pc, -pc)
    after = seg + 1
    terms = (lam[after, pj] * cj * phi[after, pk] + lam[after, pk] * ck * phi[after, pj]).real
    return f, 2.0 * np.bincount(seg, weights=terms, minlength=nseg)
