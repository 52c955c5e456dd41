"""Hot numeric kernels, in numpy.

Three kernels carry the numeric load: pair rotations (every segment flow),
the decoupling-time scan (every winding search) and the planner's
objective with its adjoint gradient (every L-BFGS evaluation).  Each has
exactly one implementation.

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
# bound(s) = sum over classes of max over class members w of 2|sin(w*tbar/2)|
# with tbar = t_hat + step*s.  Returns the first s in [s0, s1) whose bound
# is below eps (or -1) plus the best (s, bound) seen, so exhausted searches
# can report how close they got.
#
# The work follows the survivors, not the window.  With thr = max(eps,
# best_bound), an s matters only if bound(s) < thr: otherwise it is neither
# a hit nor a strict new best.  A float sum of nonnegative terms never falls
# below any partial sum, so each class term is evaluated only on the s whose
# running sum is still below thr, and the sum is accumulated in class order,
# exactly as a full evaluation would: tot, the first hit and the first
# argmin are bit for bit the same.  Classes whose frequencies are all 0 add
# exactly 0.0 and are skipped.  The window is worked through in blocks of
# _BLOCK steps, in order; a block's best tightens thr for the next ones.
#
# Before any sin, a thr < 2 screens frequency by frequency without one: a
# term 2|sin(x)| < thr needs x within asin(thr/2) of a multiple of pi, i.e.
# y = (w/pi)*half within asin(thr/2)/pi of an integer.  The margin covers
# what separates y from x/pi and numpy's sin from the true sine: a few ulps
# of the largest |y| in the block (the roundings of w/pi, of the products
# and of sin's argument reduction all scale with |y|), a few ulps of 1 for
# the roundings of asin and of the division by pi, and a relative 2^-40 on
# thr/2 for the rounding of sin near a multiple of pi.  A fixed absolute
# margin would fall below one ulp of y at large s.  The screen only ever
# passes too many s; the true terms decide.
# ---------------------------------------------------------------------------

_SCREEN_ULPS = 8.0
_EPS64 = float(np.finfo(np.float64).eps)
_BLOCK = 1 << 15  # steps per pass over the window, so its arrays stay in cache


def scan_decoupling(t_hat, step, w, cls_ptr, eps, s0, s1, best_s, best_bound):
    classes = [(lo, hi) for lo, hi in zip(cls_ptr[:-1], cls_ptr[1:]) if np.any(w[lo:hi])]
    w_pi = w[w != 0.0] / np.pi
    # work arrays of one block, reused: fresh ones would be faulted in each time
    work = np.empty((4, min(_BLOCK, s1 - s0)))
    work[0] = np.arange(work.shape[1])
    cand = -1
    for b0 in range(s0, s1, _BLOCK):
        hit, best_s, best_bound = _scan_block(t_hat, step, w, classes, w_pi, eps, b0,
                                              min(b0 + _BLOCK, s1), best_s, best_bound,
                                              work)
        if cand < 0:
            cand = hit
    return cand, best_s, best_bound


def _scan_block(t_hat, step, w, classes, w_pi, eps, s0, s1, best_s, best_bound, work):
    offsets, half, y, r = work[:, :s1 - s0]
    np.add(offsets, float(s0), out=half)  # exact: s < 2**53
    half *= step
    half += t_hat
    half *= 0.5  # 0.5 * (t_hat + step * s), rounded the same way
    thr = max(eps, best_bound)
    idx = None  # survivors as positions in the block; None means all
    if thr < 2.0:
        a = math.asin(min(1.0, 0.5 * thr * (1.0 + 2.0**-40))) / math.pi
        hmax = max(abs(float(half[0])), abs(float(half[-1])))
        for wj in w_pi:
            tol = a + _SCREEN_ULPS * _EPS64 * (abs(float(wj)) * hmax + 1.0)
            if idx is None:
                np.multiply(half, wj, out=y)
                np.rint(y, out=r)
                y -= r
                idx = np.flatnonzero(np.abs(y, out=y) < tol)
            else:
                z = wj * half[idx]
                z -= np.rint(z)
                idx = idx[np.abs(z, out=z) < tol]
    if idx is None:
        idx = np.arange(len(half))
    h = half[idx]
    tot = np.zeros_like(h)
    for lo, hi in classes:
        if hi - lo == 1:
            m = np.abs(np.sin(w[lo] * h))
        else:
            m = np.abs(np.sin(np.multiply.outer(w[lo:hi], h))).max(axis=0)
        tot += 2.0 * m
        keep = tot < thr
        if not keep.all():
            idx, h, tot = idx[keep], h[keep], tot[keep]
    if len(tot) == 0:
        return -1, best_s, best_bound
    i = int(np.argmin(tot))
    if tot[i] < best_bound:
        best_bound = float(tot[i])
        best_s = s0 + int(idx[i])
    hits = np.flatnonzero(tot < eps)
    cand = int(s0 + idx[hits[0]]) if hits.size else -1
    return cand, best_s, best_bound


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
