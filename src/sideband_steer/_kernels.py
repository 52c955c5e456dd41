"""Hot numeric kernels, in numpy.

Three kernels carry the numeric load: pair rotations (every segment flow),
the decoupling-time scan (every winding search) and the planner's
residual with its Jacobian (every Levenberg-Marquardt evaluation).  Each
has exactly one implementation.  The scan does not test every winding index:
it enumerates, as lattice points, the indices whose bound could be small
enough, and evaluates the bound on those alone, in fixed point.  The exact
evaluator's winding fractions of a whole grid come from fixed-width
integers too (``winding_fractions``), bit for bit the big-integer ones.

All kernels operate on 0-based index arrays.  Pair rotations exploit the
disjoint two-level structure of the coupling operators: a segment flow is
a bundle of independent 2x2 rotations, never a dense matrix exponential.
``_rotation`` computes the rotation entries of any number of pairs in one
pass, so a whole segment program needs one call; ``rotate_pairs`` applies
given entries to a state or to a block of columns alike.  The planner
kernel scatters the same entries into a dense stack of small propagators,
one per run of consecutive segments with pairwise disjoint pairs (their
flows commute): the forward sweep is one mat-vec per run, and the backward
sweep that builds the Jacobian one small matrix product per run.
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


def rotate_pairs(state, pj, pk, c, up, lo):
    """Apply disjoint 2x2 rotations, in place, to the rows of ``state``:
    a state vector or a (dim, ncols) block of columns.  ``c``, ``up`` and
    ``lo`` are the pairs' rotation entries from :func:`_rotation`."""
    if len(pj) == 0:
        return state
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
# bound(s) = sum over classes h of max over the radicands r of class h of
# 2|sin(sqrt(r)*tbar_h/2)|, with tbar_h = t_h + 2*pi*s/sqrt(nu).  t_hat gives
# the phase t_h of every class: one float for all of them, or one per class.
# A lifted run of commuting class flows passes t_h = t_hat - tau_h, tau_h
# the angle class h must realise (0.0 off the run).  Returns the first s in
# [s0, s1) whose bound is below eps (or -1), with the best (s, bound) up to
# it, so exhausted searches can report how close they got.
#
# One fixed-point fraction per class.  A class's radicands are r = c^2*k, k
# its square-free kernel and smallest radicand, so each term is
# 2|sin(pi*c*y)|, y the signed fractional part of beta + s*alpha, with beta =
# sqrt(k)*t_h/(2*pi) and alpha = sqrt(k/nu).  With 2^64*alpha = A + f, A an
# integer and f in [0, 1) from the exact _sqrt_fixed(k*nu)/(nu*10**_SQRT_DIGITS),
#     y = frac(beta + 2^-64*((s*A mod 2^64) + s*f)),
# s*A a wrapping uint64 product.  For s < 2^53, y is within 1.25 ulps of 1 of
# the fraction of (the float) beta + s*alpha: 2^10 + 1/2 + 1/2 + 2^11 units of
# 2^-64 to round s*A mod 2^64, f, s*f and their sum, half an ulp to add beta.
#
# The work follows the survivors, not the window.  With thr = max(eps,
# best_bound), an s matters only if bound(s) < thr: otherwise it is neither
# a hit nor a strict new best.  The kernel enumerates a superset of those s
# and evaluates the bound on them alone, with the formula and the class order
# of a full evaluation: tot, the first hit and the first argmin are bit for
# bit the same.  A float sum of nonnegative terms never falls below any
# partial sum, so each class term is evaluated only where the running sum is
# still below thr.  The zero class adds exactly 0.0 and is skipped.
#
# The screen.  Let D_j(s) be the distance of beta_j + s*alpha_j to the
# nearest integer; the class term is at least 2*sin(pi*D_j), its c = 1
# term.  With h = thr/2 < 1 and a = asin(h)/pi, each term below thr needs
# D_j < a, and there 2*sin(pi*D) >= thr*D/a because sin is concave on
# [0, pi/2].  So a sum below thr needs sum_j D_j < a: the s that matter lie
# in a cross-polytope of radius a over the fractional parts.  The radius is
# widened by a relative 2^-40 on h for numpy's sin and the float sum, and by
# a few ulps of 1 per class for y, asin and the division by pi.  A class
# whose alpha is an integer (k = nu = 1, the integer-frequency class when
# the zero class is selected) has a constant D_j, taken off the radius.
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
# Where the screen passes a large share (thr/2 >= 1, or more than one
# lattice point per eight indices, as with no class of irrational alpha,
# where the density is sqrt(2)), or the window is shorter than _ENUM_MIN,
# every s is evaluated, _BLOCK steps at a time.  Otherwise a piece holds
# about _ENUM_POINTS expected lattice points, so memory follows the
# survivors.  Pieces run in order; a piece's best tightens thr for the next
# ones.  A non-finite phase is a ValueError.
#
# The hit threshold.  A caller that re-verifies hits with the exact
# evaluator (torus_winding._exact_batch) scans at eps + scan_rounding, which
# bounds the two bounds' difference at any s.  In units of u = 2^-53, a
# radicand r = c^2*k with phase t has the kernel's term off the true one by
# u*(3*sqrt(r)*|t| + 7*pi*c + 4) (beta by 3u*|beta|, y by 2.5u, pi*c*y by
# pi*c*u, sin by an ulp) and the exact one by u*(3*sqrt(r)*|t| + 8*pi + 4)
# (sqrt(r)*t by 2u*sqrt(r)*|t|, 2*pi*F by 17u, their sum by u*(sqrt(r)*|t| +
# 2*pi), sin by an ulp).  A class max moves by its worst radicand's, a float
# sum of d terms in [0, 2] by 2u*d*(d-1).  scan_rounding, 16u * sum over
# classes of (2*pi*c + sqrt(r)*|t| + d) with the class's largest r and c, is
# twice that, part by part: the same at every s.
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


# ---------------------------------------------------------------------------
# exact winding fractions of a batch
#
# The exact evaluator needs F = (s*q mod den)/den, rounded once, for every
# numerator q = _sqrt_fixed(r*nu) mod den and index s.  With X = floor(q *
# 2^192/den) = q*2^192/den - e, e in [0, 1), and W = s*X mod 2^192 (six 32-bit
# limbs of X times the two halves of s: 11 uint64 partial products, then one
# carry pass), F*2^192 = W + s*e mod 2^192 with 0 <= s*e < 2^53.  So F*2^64
# lies in [H, H+2), H the top 64 bits of W, unless W + s*e wraps past 2^192,
# which needs H = 2^64 - 1.  Rounding is constant between two rounding
# midpoints, so float64(H)*2^-64 is the correctly rounded F unless a midpoint
# lies in [H, H+2): unless H's bits below its 53-bit mantissa are half an
# ulp, or half an ulp less one, taking the ulp as 1 below 2^53, where every H
# qualifies.  Those elements and H = 2^64 - 1, where W + s*e may wrap, are
# recomputed as integers: about 0.6% of random ones, and every F < 2^-10.
# A row with q = 0 is 0.0 and skips them.
# ---------------------------------------------------------------------------

_FRAC_LIMBS = 6  # X = floor(q*2^192/den) as 32-bit limbs, least significant first
_FRAC_WINDOW = 2  # F*2^64 lies in [H, H + _FRAC_WINDOW)
_MASK32 = np.uint64(0xFFFFFFFF)


def winding_fractions(qs, den, s):
    """(s*q mod den)/den for each q of ``qs`` (rows) and each s of ``s``
    (columns), bit for bit.  Every q lies in [0, den), every s in [0, 2^53)."""
    s = np.asarray(s, dtype=np.int64).astype(np.uint64)
    limbs = np.array([_frac_limbs(q, den) for q in qs], dtype=np.uint64).T[:, :, None]
    low = limbs * (s & _MASK32)  # limb j of row i times the low half of s: column j
    high = limbs[:-1] * (s >> np.uint64(32))  # the high half: column j + 1
    col = low & _MASK32
    col[1:] += low[:-1] >> np.uint64(32)
    col[1:] += high & _MASK32
    col[2:] += high[:-1] >> np.uint64(32)
    for j in range(1, _FRAC_LIMBS):
        col[j] += col[j - 1] >> np.uint64(32)
    top = (col[5] << np.uint64(32)) | (col[4] & _MASK32)
    # ulp of top: 2^(e - 53) for top in [2^(e-1), 2^e), at least 1; clearing
    # the low 11 bits leaves at most 53, converted exactly
    _, e = np.frexp((top & ~np.uint64(0x7FF)).astype(np.float64))
    ulp = np.left_shift(np.uint64(1), np.maximum(e - 53, 0).astype(np.uint64))
    to_mid = ((ulp >> np.uint64(1)) - top) & (ulp - np.uint64(1))
    redo = (to_mid < np.uint64(_FRAC_WINDOW)) | (top == np.uint64(2**64 - 1))
    frac = top.astype(np.float64) * 2.0**-64
    zero = np.array([q == 0 for q in qs])
    frac[zero] = 0.0
    redo[zero] = False
    rows, cols = np.nonzero(redo)
    frac[rows, cols] = [(s_j * qs[i]) % den / den
                        for i, s_j in zip(rows.tolist(), s[cols].tolist())]
    return frac


@lru_cache(maxsize=None)
def _frac_limbs(q, den):
    """floor(q * 2^192 / den) as _FRAC_LIMBS 32-bit limbs, least significant first."""
    x = (q << 32 * _FRAC_LIMBS) // den
    return tuple((x >> 32 * j) & 0xFFFFFFFF for j in range(_FRAC_LIMBS))


def scan_decoupling(members, nu, t_hat, eps, best, s0, s1):
    """(cand, best): the first s in [s0, s1) below eps, -1 if none, and the
    best (s, bound) over ``best`` and the indices up to cand."""
    classes = _classes(tuple(map(tuple, members)), nu)
    betas, screen = _screen(classes, class_phases(t_hat, len(members)), nu)
    best_s, best_bound = best
    p0 = s0
    while p0 < s1:
        thr = max(eps, best_bound)
        p1, s = _piece(screen, thr, p0, s1)
        if s is None:
            s = np.arange(p0, p1, dtype=np.int64)
        s, tot = _bounds_below(classes, betas, s, thr)
        hit = np.flatnonzero(tot < eps)[:1]
        if len(hit):
            s, tot = s[:hit[0] + 1], tot[:hit[0] + 1]
        if len(tot):
            i = int(np.argmin(tot))
            if tot[i] < best_bound:
                best_s, best_bound = int(s[i]), float(tot[i])
        if len(hit):
            return int(s[-1]), (best_s, best_bound)
        p0 = p1
    return -1, (best_s, best_bound)


def scan_rounding(members, t_hat):
    """The most by which the scan's bound can exceed the exact evaluator's
    at one index."""
    terms = [(rads[0], rads[-1], t) for rads, t in
             zip(members, class_phases(t_hat, len(members))) if rads[-1]]
    return 8.0 * _EPS64 * sum(2.0 * math.pi * isqrt(r // k) + math.sqrt(r) * abs(t) + len(terms)
                              for k, r, t in terms)


def class_phases(t_hat, count):
    """One phase per class: the entries of ``t_hat``, or ``t_hat`` itself
    ``count`` times when it is a single number."""
    if np.ndim(t_hat) == 0:
        return [float(t_hat)] * count
    phases = [float(t) for t in t_hat]
    if len(phases) != count:
        raise ValueError(f"{len(phases)} phases for {count} classes")
    return phases


@lru_cache(maxsize=64)
def _classes(members, nu):
    """(index, k, pc, a, f) of each class with a nonzero radicand: its
    position in ``members``, its kernel k, pi*c for each radicand c^2*k, and
    2^64*sqrt(k/nu) = A + f as a = A mod 2^64 (np.uint64) and f."""
    den = nu * 10**_SQRT_DIGITS
    out = []
    for index, rads in enumerate(members):
        if rads[0]:
            a, f = divmod(_sqrt_fixed(rads[0] * nu) << 64, den)
            out.append((index, rads[0], np.array([math.pi * isqrt(r // rads[0]) for r in rads]),
                        np.uint64(a % (1 << 64)), f / den))
    return tuple(out)


def _bounds_below(classes, betas, s, thr):
    """(s, tot): the indices of ascending ``s`` whose bound tot is below thr."""
    tot = np.zeros(len(s))
    for (_, _, pc, a, f), beta in zip(classes, betas):
        y = beta + ((s.astype(np.uint64) * a).astype(np.float64) + s * f) * 2.0**-64
        y -= np.rint(y)
        tot += 2.0 * np.abs(np.sin(np.multiply.outer(pc, y))).max(axis=0)
        keep = tot < thr
        if not keep.all():
            s, tot = s[keep], tot[keep]
    return s, tot


def _screen(classes, phases, nu):
    """(betas, (den, q, beta, d_const)): beta = sqrt(k)*t_h/(2*pi) of each
    class, reduced to [-1/2, 1/2]; alpha = q/den and beta of the classes with
    an irrational alpha, and the constant distances |beta| of those with
    alpha = 1."""
    betas = []
    for index, k, *_ in classes:
        b = math.sqrt(k) * phases[index] / (2.0 * math.pi)
        if not math.isfinite(b):
            raise ValueError(f"non-finite class phase {phases[index]!r}")
        betas.append(b - round(b))
    irrational = [(k, b) for (_, k, *_), b in zip(classes, betas) if k != nu]
    return betas, (nu * 10**_SQRT_DIGITS, tuple(_sqrt_fixed(k * nu) for k, _ in irrational),
                   [b for _, b in irrational],
                   [abs(b) for (_, k, *_), b in zip(classes, betas) if k == nu])


def _piece(screen, thr, p0, s1):
    """(p1, s): the next piece [p0, p1) of the window and the ascending
    indices in it whose bound can be below thr, None where all can."""
    h = 0.5 * thr * (1.0 + 2.0**-40)
    if h >= 1.0:
        return min(s1, p0 + _BLOCK), None
    den, qs, beta, d_const = screen
    rho = math.asin(h) / math.pi + _SCREEN_ULPS * _EPS64 * (len(qs) + 1) - sum(d_const)
    if rho <= 0.0:
        return s1, np.empty(0, dtype=np.int64)
    d = len(qs)
    # expected lattice points per index: the ball's volume over the lattice's
    # determinant, 1/(H * rho**d), per 2H indices
    density = math.pi ** ((d + 1) / 2) / math.gamma((d + 3) / 2) \
        * _ENUM_R2 ** ((d + 1) / 2) * rho**d / 2.0
    if s1 - p0 < _ENUM_MIN or density > 0.125:
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
# planner residual + Jacobian
#
# Segment k is the flow U_k = exp(theta_k * S_k) of one disjoint-pair
# operator (CSR layout seg_ptr / pj / pk / pc / pkind, rotation angle
# theta_k * pc).  The runs (CSR pointer ``runs`` over segments) group
# consecutive segments whose pairs are pairwise disjoint: their flows
# commute, and the run's flow V_r is the identity with every pair of its
# segments rotated.  All nrun propagators of an evaluation are built at once
# as a dense (nrun, dim, dim) stack, with the same rotation entries that
# rotate_pairs applies (_rotation) scattered into it.
# Forward: phi_{r+1} = V_r phi_r, one mat-vec per run.
# Residual: r = phi_R - target.
# Jacobian: S_k commutes with every flow of its run r, so d phi_R / d theta_k
# = P_{r+1} S_k phi_{r+1}, with P_{r+1} = V_{R-1} ... V_{r+1} the flow of the
# later runs.  P starts at the identity and is accumulated backward, P_r =
# P_{r+1} V_r, one small matrix product per run; the columns of a run are
# one product of P_{r+1} with the run's block of S_k phi_{r+1}.  A program
# whose runs all have length 1 steps one segment at a time.
# ---------------------------------------------------------------------------


def objective_grad(thetas, phi0, target, seg_ptr, pj, pk, pc, pkind, runs):
    """(r, J): the residual phi_R - target and its complex (dim, nseg)
    Jacobian in the segment angles."""
    nseg = len(thetas)
    nrun = len(runs) - 1
    dim = phi0.shape[0]
    seg = np.repeat(np.arange(nseg), np.diff(seg_ptr))
    run = np.repeat(np.arange(nrun), np.diff(seg_ptr[runs]))
    c, up, lo = _rotation(thetas[seg] * pc, pkind)
    u = np.zeros((nrun, dim, dim), dtype=np.complex128)
    u.reshape(nrun, dim * dim)[:, ::dim + 1] = 1.0
    u[run, pj, pj] = c
    u[run, pk, pk] = c
    u[run, pj, pk] = up
    u[run, pk, pj] = lo
    phi = np.empty((nrun + 1, dim), dtype=np.complex128)
    phi[0] = phi0
    for r in range(nrun):
        np.dot(u[r], phi[r], out=phi[r + 1])
    # S_k phi_{r+1} is cj * phi[pk] at pj and ck * phi[pj] at pk
    e = pkind == 0
    after = run + 1
    sphi = np.zeros((nseg, dim), dtype=np.complex128)
    sphi[seg, pj] = np.where(e, 1j * pc, pc) * phi[after, pk]
    sphi[seg, pk] = np.where(e, 1j * pc, -pc) * phi[after, pj]
    jac = np.empty((nseg, dim), dtype=np.complex128)
    prod = np.eye(dim, dtype=np.complex128)
    nxt = np.empty_like(prod)
    bounds = runs.tolist()
    for r in range(nrun - 1, -1, -1):
        a, b = bounds[r], bounds[r + 1]
        np.dot(sphi[a:b], prod.T, out=jac[a:b])
        np.dot(prod, u[r], out=nxt)
        prod, nxt = nxt, prod
    return phi[nrun] - target, jac.T
