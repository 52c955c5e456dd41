"""Shared test oracles: independent transcriptions and synthetic models.

The package computes none of these at run time.  The internal-major block
patterns of the couplings (with ``build_D`` and the reordering permutation)
are the closed forms the C2 checks compare against, and the dense
decomposition U = sum_j U_j + U_dec + U_rho with its class projectors is
what C3 checks; it routes pairs through the package's own class rule,
``spectral_decoupling.class_mask``.  ``dense`` expands an operator's pair
list into the dense matrix that the float oracles compare against, and
``rank_mod`` is the rank over F_q of plain Gaussian elimination, for the
exact Lie certificate.  ``segment_flow`` is one segment of the
runtime ``SegmentProgram`` path that both simulators use,
``basis_split`` inverts the runtime ``operator_core.basis_index``,
``gradient_check`` compares the planner's adjoint gradient with central
differences, and ``block_scan`` is the decoupling scan that tests every
winding index, with the per-frequency screen the kernel used before it
enumerated the survivors.
"""

import math
from collections import namedtuple

import numpy as np
from scipy.linalg import expm

from sideband_steer import _kernels
from sideband_steer import modal_planner as mp
from sideband_steer import operator_core as oc
from sideband_steer import spectral_decoupling as sd

Z = (1, "0")

# Independent transcription of the internal-major block patterns of the
# twelve couplings (rows of 4 blocks; I/D/DT with signs; V's carry -i).
BLOCK_PATTERNS = {
    "V1": (-1j, [[Z, (1, "I"), Z, Z], [(1, "I"), Z, Z, Z],
                 [Z, Z, Z, (1, "I")], [Z, Z, (1, "I"), Z]]),
    "W1": (1, [[Z, (1, "I"), Z, Z], [(-1, "I"), Z, Z, Z],
               [Z, Z, Z, (1, "I")], [Z, Z, (-1, "I"), Z]]),
    "V1r": (-1j, [[Z, (1, "DT"), Z, Z], [(1, "D"), Z, Z, Z],
                  [Z, Z, Z, (1, "DT")], [Z, Z, (1, "D"), Z]]),
    "W1r": (1, [[Z, (1, "DT"), Z, Z], [(-1, "D"), Z, Z, Z],
                [Z, Z, Z, (1, "DT")], [Z, Z, (-1, "D"), Z]]),
    "V1b": (-1j, [[Z, (1, "D"), Z, Z], [(1, "DT"), Z, Z, Z],
                  [Z, Z, Z, (1, "D")], [Z, Z, (1, "DT"), Z]]),
    "W1b": (1, [[Z, (1, "D"), Z, Z], [(-1, "DT"), Z, Z, Z],
                [Z, Z, Z, (1, "D")], [Z, Z, (-1, "DT"), Z]]),
    "V2": (-1j, [[Z, Z, (1, "I"), Z], [Z, Z, Z, (1, "I")],
                 [(1, "I"), Z, Z, Z], [Z, (1, "I"), Z, Z]]),
    "W2": (1, [[Z, Z, (1, "I"), Z], [Z, Z, Z, (1, "I")],
               [(-1, "I"), Z, Z, Z], [Z, (-1, "I"), Z, Z]]),
    "V2r": (-1j, [[Z, Z, (1, "D"), Z], [Z, Z, Z, (1, "D")],
                  [(1, "DT"), Z, Z, Z], [Z, (1, "DT"), Z, Z]]),
    "W2r": (1, [[Z, Z, (1, "D"), Z], [Z, Z, Z, (1, "D")],
                [(-1, "DT"), Z, Z, Z], [Z, (-1, "DT"), Z, Z]]),
    "V2b": (-1j, [[Z, Z, (1, "DT"), Z], [Z, Z, Z, (1, "DT")],
                  [(1, "D"), Z, Z, Z], [Z, (1, "D"), Z, Z]]),
    "W2b": (1, [[Z, Z, (1, "DT"), Z], [Z, Z, Z, (1, "DT")],
                [(-1, "D"), Z, Z, Z], [Z, (-1, "D"), Z, Z]]),
}


def basis_state(j, dim):
    """Unit vector phi_j (1-based) in C^dim."""
    phi = np.zeros(dim, dtype=np.complex128)
    phi[j - 1] = 1.0
    return phi


def basis_split(j):
    """Inverse of ``operator_core.basis_index``."""
    if j < 1:
        raise ValueError("basis index is 1-based")
    return oc.INTERNAL_LEVELS[(j - 1) % 4], (j - 1) // 4


def build_D(n):
    """n x n upper-shift matrix with superdiagonal sqrt(1), ..., sqrt(n-1)."""
    return np.diag(np.sqrt(np.arange(1.0, n)), k=1)


def permutation_matrix(n):
    """P with P x in internal-major order for x in phonon-major order."""
    new = np.array([o * n + m for m in range(n) for o in range(4)])
    p = np.zeros((4 * n, 4 * n))
    p[new, np.arange(4 * n)] = 1.0
    return p


def block_pattern_matrix(cid, n):
    d = build_D(n)
    lut = {"I": np.eye(n), "D": d, "DT": d.T, "0": np.zeros((n, n))}
    factor, rows = BLOCK_PATTERNS[cid]
    return factor * np.block([[sign * lut[name] for sign, name in row]
                              for row in rows])


def expand_pairs_dense(dim, pj, pk, coeff, kind):
    """The dense skew-Hermitian matrix of a pair list: E[j,k] puts i*c at
    (k, j) and (j, k), F[j,k] puts -c at (k, j) and +c at (j, k)."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    for j, k, c, t in zip(pj, pk, coeff, kind):
        if t == 0:
            m[k, j] += 1j * c
            m[j, k] += 1j * c
        else:
            m[k, j] += -c
            m[j, k] += +c
    return m


def dense(op):
    """The dense matrix of a ``TruncatedOperator``."""
    return expand_pairs_dense(op.dim, op.pj, op.pk, op.coeff, op.kind)


def rank_mod(rows, q):
    """Rank over F_q of an integer matrix, by Gaussian elimination in int64.

    Entries stay below q < 2^31, so every product fits.
    """
    a = np.asarray(rows, dtype=np.int64) % q
    rank = 0
    for col in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        a[[rank, rank + nz[0]]] = a[[rank + nz[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, q) % q
        a[rank + 1:] = (a[rank + 1:] - np.outer(a[rank + 1:, col], a[rank])) % q
        rank += 1
        if rank == len(a):
            break
    return rank


def _projector(dim, idx):
    diag = np.zeros(dim)
    diag[idx] = 1.0
    return np.diag(diag).astype(np.complex128)


def class_projector(cid, part, j, dim):
    """Projector onto the eigenspaces of class j's frequencies at order part.m.

    Each pair of the truncation spans the eigenvectors for +-i*coefficient,
    so the projector is diagonal in the Fock basis: 1 on the pairs of the
    class, and on the unpaired (kernel) coordinates for the zero class.
    """
    pj, pk, _, _, pr = oc.pair_arrays(cid, dim)
    if part.classes[j - 1].kernel == 0:
        return _projector(dim, np.setdiff1d(np.arange(dim), np.concatenate([pj, pk])))
    mask = sd.class_mask(part, j, pr)
    return _projector(dim, np.concatenate([pj[mask], pk[mask]]))


Decomposition = namedtuple("Decomposition", "parts u_dec u_rho projectors")


def decompose(op, m):
    """U = sum(parts) + u_dec + u_rho, each pair routed whole by its radicand.

    ``projectors`` holds the class projectors, then the one of sqrt(m-1).
    """
    part = sd.resonance_partition(m)
    classes = range(1, part.count + 1)

    def select(mask):
        return expand_pairs_dense(op.dim, op.pj[mask], op.pk[mask],
                                  op.coeff[mask], op.kind[mask])

    dec = op.radicand == m - 1
    return Decomposition(
        [select(sd.class_mask(part, j, op.radicand)) for j in classes],
        select(dec), select(op.radicand >= m),
        [class_projector(op.id, part, j, op.dim) for j in classes]
        + [_projector(op.dim, np.concatenate([op.pj[dec], op.pk[dec]]))])


def segment_flow(cid, theta, phi, dim):
    """exp(theta * Z_cid) phi on the dim-truncation, through SegmentProgram."""
    start = np.zeros(dim, dtype=np.complex128)
    start[:len(phi)] = phi
    prog = oc.SegmentProgram.from_operators([oc.truncate(cid, dim)])
    return prog.states(start, [theta])[-1]


def gradient_check(plan, phi0, phiT, step=1e-6):
    """Adjoint gradient vs central differences; max discrepancy relative
    to the gradient scale."""
    dim = 4 * plan.p
    phi0 = np.pad(oc.normalize(phi0), (0, dim - len(phi0)))
    phiT = np.pad(oc.normalize(phiT), (0, dim - len(phiT)))
    prog = mp._program([seg.generator for seg in plan.segments], plan.p)
    thetas = np.array([seg.angle for seg in plan.segments])

    def f_grad(th):
        return _kernels.objective_grad(th, phi0, phiT, prog.ptr, prog.pj, prog.pk,
                                       prog.coeff, prog.kind)

    _, grad = f_grad(thetas)
    fd = np.empty_like(grad)
    for i in range(len(thetas)):
        e = np.zeros_like(thetas)
        e[i] = step
        fd[i] = (f_grad(thetas + e)[0] - f_grad(thetas - e)[0]) / (2 * step)
    scale = max(1.0, float(np.max(np.abs(grad))) if len(grad) else 0.0)
    return float(np.max(np.abs(grad - fd)) / scale) if len(grad) else 0.0


def synthetic_tracking_violations(n_draws, dim, n_steps, eps_hi, seed):
    """Iterated-approximation oracle: unitaries preserving Y perturbed by
    certified-size corrections; counts violations of the summed budget."""
    rng = np.random.default_rng(seed)
    ydim = dim - 4
    violations = 0
    for _ in range(n_draws):
        x = np.zeros(dim, dtype=complex)
        x[:ydim] = oc.random_state(ydim, rng)
        xt = x.copy()
        total = 0.0
        for _ in range(n_steps):
            qy, _ = np.linalg.qr(rng.normal(size=(ydim, ydim))
                                 + 1j * rng.normal(size=(ydim, ydim)))
            qp, _ = np.linalg.qr(rng.normal(size=(4, 4))
                                 + 1j * rng.normal(size=(4, 4)))
            ups = np.zeros((dim, dim), dtype=complex)
            ups[:ydim, :ydim] = qy
            ups[ydim:, ydim:] = qp
            eps_k = rng.uniform(0, eps_hi)
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = 0.5 * (a - a.conj().T)
            top = np.max(np.abs(np.linalg.eigvalsh(1j * a)))
            theta = 2 * np.arcsin(min(1.0, 0.999 * eps_k / 2))
            sigma = expm(a * (theta / top)) if top > 0 else np.eye(dim)
            x = ups @ x
            xt = sigma @ (ups @ xt)
            total += eps_k
            if np.linalg.norm(x - xt) >= total:
                violations += 1
    return violations


# ---------------------------------------------------------------------------
# the per-index decoupling scan: every s of the window, in cache-sized blocks
# ---------------------------------------------------------------------------

_SCREEN_ULPS = 8.0
_EPS64 = float(np.finfo(np.float64).eps)
_BLOCK = 1 << 15


def block_scan(t_hat, step, w, cls_ptr, eps, s0, s1, best_s, best_bound):
    """``_kernels.scan_decoupling``'s contract, testing every s in [s0, s1).

    ``t_hat`` is one phase for every class or one per class, as in the
    kernel: class h's half angle is 0.5 * (t_h + step * s).  With thr =
    max(eps, best_bound), a thr < 2 screens each nonzero frequency without
    a sin: 2|sin(x)| < thr needs y = (w/pi)*half within asin(thr/2)/pi of
    an integer, up to a margin of a few ulps of the block's largest |y| and
    of 1, and a relative 2^-40 on thr/2.  The class terms are then added in
    class order where the running sum is below thr.  A block's best
    tightens thr for the later blocks.
    """
    n = len(cls_ptr) - 1
    phases = [float(t) for t in t_hat] if np.ndim(t_hat) else [float(t_hat)] * n
    classes = [(lo, hi, phases[c]) for c, (lo, hi) in enumerate(zip(cls_ptr[:-1], cls_ptr[1:]))
               if np.any(w[lo:hi])]
    cand = -1
    for b0 in range(s0, s1, _BLOCK):
        hit, best_s, best_bound = _scan_block(step, w, classes, eps, b0, min(b0 + _BLOCK, s1),
                                              best_s, best_bound)
        if cand < 0:
            cand = hit
    return cand, best_s, best_bound


def _scan_block(step, w, classes, eps, s0, s1, best_s, best_bound):
    steps = (np.arange(s1 - s0, dtype=np.float64) + float(s0)) * step  # exact: s < 2**53
    half = {t: 0.5 * (t + steps) for _, _, t in classes}  # rounded as the kernel rounds
    thr = max(eps, best_bound)
    idx = None  # survivors as positions in the block; None means all
    if thr < 2.0:
        a = math.asin(min(1.0, 0.5 * thr * (1.0 + 2.0**-40))) / math.pi
        for lo, hi, t in classes:
            hmax = max(abs(float(half[t][0])), abs(float(half[t][-1])))
            for wj in w[lo:hi][w[lo:hi] != 0.0] / np.pi:
                tol = a + _SCREEN_ULPS * _EPS64 * (abs(float(wj)) * hmax + 1.0)
                z = wj * (half[t] if idx is None else half[t][idx])
                z -= np.rint(z)
                keep = np.abs(z) < tol
                idx = np.flatnonzero(keep) if idx is None else idx[keep]
    if idx is None:
        idx = np.arange(s1 - s0)
    tot = np.zeros(len(idx))
    for lo, hi, t in classes:
        h = half[t][idx]
        if hi - lo == 1:
            m = np.abs(np.sin(w[lo] * h))
        else:
            m = np.abs(np.sin(np.multiply.outer(w[lo:hi], h))).max(axis=0)
        tot += 2.0 * m
        keep = tot < thr
        if not keep.all():
            idx, tot = idx[keep], tot[keep]
    if len(tot) == 0:
        return -1, best_s, best_bound
    i = int(np.argmin(tot))
    if tot[i] < best_bound:
        best_bound = float(tot[i])
        best_s = s0 + int(idx[i])
    hits = np.flatnonzero(tot < eps)
    cand = int(s0 + idx[hits[0]]) if hits.size else -1
    return cand, best_s, best_bound
