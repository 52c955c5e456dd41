"""Hot numeric kernels, in numpy.

Three kernels carry the numeric load: pair rotations (every segment flow),
the decoupling-time scan (every winding search) and the planner's
objective with its adjoint gradient (every L-BFGS evaluation).  Each has
exactly one implementation.

All kernels operate on 0-based index arrays.  Pair rotations exploit the
disjoint two-level structure of the coupling operators: a segment flow is
a bundle of independent 2x2 rotations, never a dense matrix exponential.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# pair rotations
#
# kind 0 ("E"): exp(b*E) on a pair (j,k) acts as
#   a_j <- cos(b) a_j + i sin(b) a_k,   a_k <- i sin(b) a_j + cos(b) a_k
# kind 1 ("F"): exp(b*F) acts as
#   a_j <- cos(b) a_j + sin(b) a_k,     a_k <- -sin(b) a_j + cos(b) a_k
# ---------------------------------------------------------------------------


def rotate_pairs(state, pj, pk, betas, kinds):
    """Apply disjoint 2x2 rotations to ``state`` in place."""
    if len(pj) == 0:
        return state
    a = state[pj]
    b = state[pk]
    c = np.cos(betas)
    s = np.sin(betas)
    se = np.where(kinds == 0, 1j * s, s.astype(np.complex128))
    state[pj] = c * a + se * b
    state[pk] = np.where(kinds == 0, se, -se) * a + c * b
    return state


# The objective rotates through this private alias: code that wraps the
# module attribute ``rotate_pairs`` (a profiler, say) then sees segment
# flows only, not the planner's inner loop.
_rotate = rotate_pairs


def rotate_pairs_matrix(mat, pj, pk, betas, kinds):
    """Row-wise pair rotations on a (dim, ncols) matrix, in place."""
    if len(pj) == 0:
        return mat
    a = mat[pj, :]
    b = mat[pk, :]
    c = np.cos(betas)[:, None]
    s = np.sin(betas)[:, None]
    se = np.where((kinds == 0)[:, None], 1j * s, s.astype(np.complex128))
    mat[pj, :] = c * a + se * b
    mat[pk, :] = np.where((kinds == 0)[:, None], se, -se) * a + c * b
    return mat


# ---------------------------------------------------------------------------
# decoupling-time scan
#
# bound(s) = sum over classes of max over class members w of 2|sin(w*tbar/2)|
# with tbar = t_hat + step*s.  Returns the first s in [s0, s1) whose bound
# is below eps (or -1) plus the best (s, bound) seen, so exhausted searches
# can report how close they got.
# ---------------------------------------------------------------------------


def scan_decoupling(t_hat, step, w, cls_ptr, eps, s0, s1, best_s, best_bound):
    s = np.arange(s0, s1, dtype=np.float64)
    half = 0.5 * (t_hat + step * s)
    tot = np.zeros_like(half)
    for c in range(len(cls_ptr) - 1):
        lo, hi = cls_ptr[c], cls_ptr[c + 1]
        if hi == lo:
            continue
        if hi - lo == 1:
            m = np.abs(np.sin(w[lo] * half))
        else:
            m = np.abs(np.sin(np.multiply.outer(w[lo:hi], half))).max(axis=0)
        tot += 2.0 * m
    i = int(np.argmin(tot))
    if tot[i] < best_bound:
        best_bound = float(tot[i])
        best_s = s0 + i
    hits = np.flatnonzero(tot < eps)
    cand = int(s0 + hits[0]) if hits.size else -1
    return cand, best_s, best_bound


# ---------------------------------------------------------------------------
# planner objective + adjoint gradient
#
# Forward: phi_{k+1} = exp(theta_k * S_k) phi_k over per-segment pair lists
# (CSR layout seg_ptr / pj / pk / pc / pkind, rotation angle theta_k * pc).
# Objective: f = ||phi_K - target||^2 summed componentwise (no cancellation,
# so values down to ~1e-30 stay meaningful).
# Backward: mu_K = phi_K - target, grad_k = 2 Re<mu_k, S_k phi_{k+1}>,
# mu_{k-1} = exp(-theta_k S_k) mu_k.
# ---------------------------------------------------------------------------


def objective_grad(thetas, phi0, target, seg_ptr, pj, pk, pc, pkind):
    nseg = len(thetas)
    dim = phi0.shape[0]
    states = np.empty((nseg + 1, dim), dtype=np.complex128)
    states[0] = phi0
    for k in range(nseg):
        states[k + 1] = states[k]
        lo, hi = seg_ptr[k], seg_ptr[k + 1]
        _rotate(states[k + 1], pj[lo:hi], pk[lo:hi], thetas[k] * pc[lo:hi], pkind[lo:hi])
    mu = states[nseg] - target
    f = float(np.sum(mu.real**2 + mu.imag**2))
    grad = np.zeros(nseg, dtype=np.float64)
    for k in range(nseg - 1, -1, -1):
        lo, hi = seg_ptr[k], seg_ptr[k + 1]
        phi = states[k + 1]
        j = pj[lo:hi]
        kk = pk[lo:hi]
        c = pc[lo:hi]
        e = pkind[lo:hi] == 0
        sj = np.where(e, 1j * c, c) * phi[kk]
        sk = np.where(e, 1j * c, -c) * phi[j]
        grad[k] = 2.0 * float(np.sum((np.conj(mu[j]) * sj + np.conj(mu[kk]) * sk).real))
        _rotate(mu, j, kk, -thetas[k] * c, pkind[lo:hi])
    return f, grad
