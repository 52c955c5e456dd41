"""Shared test oracles: independent transcriptions and synthetic models.

The package computes none of these at run time.  The internal-major block
patterns of the couplings (with ``build_D`` and the reordering permutation)
are the closed forms the C2 checks compare against, and the dense
decomposition U = sum_j U_j + U_dec + U_rho with its class projectors is
what C3 checks; it routes pairs through the package's own class rule,
``spectral_decoupling.class_mask``.  ``dense`` expands an operator's pair
list into the dense matrix that the float oracles compare against, and
``rank_mod`` is the rank over F_q of plain Gaussian elimination, for the
exact Lie certificate.  ``rotate`` applies pair rotations given by
angle, ``segment_flow`` is one segment of the runtime ``SegmentProgram``
path that both simulators use, ``basis_split`` maps a basis index to its (internal level, phonon),
``gradient_check`` compares the gradient derived from the planner
kernel's Jacobian with central differences, and ``block_scan`` is the
decoupling scan that tests every winding index, with a per-radicand
screen, on the fixed-point class fractions of ``fixed_point_classes``.
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


INTERNAL_LEVELS = ("gg", "eg", "ge", "ee")


def basis_split(j):
    """(internal level, phonon) of the 1-based basis index j = 4*phonon + offset."""
    if j < 1:
        raise ValueError("basis index is 1-based")
    return INTERNAL_LEVELS[(j - 1) % 4], (j - 1) // 4


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


def rotate(state, pj, pk, betas, kinds):
    """Rotate the pairs of ``state`` in place by the angles ``betas``."""
    return _kernels.rotate_pairs(state, pj, pk, *_kernels._rotation(betas, kinds))


def segment_flow(cid, theta, phi, dim):
    """exp(theta * Z_cid) phi on the dim-truncation, through SegmentProgram."""
    start = np.zeros(dim, dtype=np.complex128)
    start[:len(phi)] = phi
    prog = oc.SegmentProgram.from_operators([oc.truncate(cid, dim)])
    return prog.states(start, [theta])[-1]


def gradient_check(plan, phi0, phiT, step=1e-6):
    """The gradient 2 Re(J^H r) of f = |r|^2, from the planner kernel's
    residual and Jacobian, vs central differences of f; max discrepancy
    relative to the gradient scale."""
    dim = 4 * plan.p
    phi0 = np.pad(oc.normalize(phi0), (0, dim - len(phi0)))
    phiT = np.pad(oc.normalize(phiT), (0, dim - len(phiT)))
    prog = mp._program([seg.generator for seg in plan.segments], plan.p)
    thetas = np.array([seg.angle for seg in plan.segments])

    def f_grad(th):
        r, jac = _kernels.objective_grad(th, phi0, phiT, prog.ptr, prog.pj, prog.pk,
                                         prog.coeff, prog.kind, prog.runs)
        return float(np.sum(r.real**2 + r.imag**2)), 2.0 * (jac.conj().T @ r).real

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


def fixed_point_classes(members, nu, t_hat):
    """(c, A, f, beta) of each class with a nonzero radicand, in class order.

    Its radicands are c^2*k with k the smallest, 2^64*sqrt(k/nu) = A + f
    with A an integer, taken mod 2^64, and f in [0, 1), and beta =
    sqrt(k)*t_h/(2*pi), reduced to [-1/2, 1/2].  ``t_hat`` is one phase for
    every class or one per class.
    """
    phases = [float(t) for t in t_hat] if np.ndim(t_hat) else [float(t_hat)] * len(members)
    den = nu * 10**_kernels._SQRT_DIGITS
    out = []
    for rads, t in zip(members, phases):
        k = rads[0]
        if k == 0:
            continue
        a, f = divmod(math.isqrt(k * nu * 10 ** (2 * _kernels._SQRT_DIGITS)) << 64, den)
        beta = math.sqrt(k) * t / (2.0 * math.pi)
        out.append((np.array([math.isqrt(r // k) for r in rads]), np.uint64(a % 2**64),
                    f / den, beta - round(beta)))
    return out


def fixed_point_fraction(cls, s):
    """y = frac(beta + 2^-64*((s*A mod 2^64) + s*f)) at the int64 indices ``s``."""
    _, a, f, beta = cls
    y = beta + ((s.astype(np.uint64) * a).astype(np.float64) + s * f) * 2.0**-64
    return y - np.rint(y)


def class_term(cls, y):
    """The class term max over c of 2|sin(pi*c*y)|."""
    return 2.0 * np.abs(np.sin(np.multiply.outer(np.pi * cls[0], y))).max(axis=0)


def block_scan(members, nu, t_hat, eps, best, s0, s1):
    """``_kernels.scan_decoupling``'s contract, testing every s in [s0, s1).

    With thr = max(eps, best bound), a thr < 2 screens each radicand c^2*k
    of a class without a sin: 2|sin(pi*c*y)| < thr needs c*y within
    asin(thr/2)/pi of an integer, up to a margin of a few ulps of c and a
    relative 2^-40 on thr/2.  The class terms are then added in class order
    where the running sum is below thr.  A block's best tightens thr for the
    later blocks, and the scan stops at the first hit.
    """
    classes = fixed_point_classes(members, nu, t_hat)
    best_s, best_bound = best
    for b0 in range(s0, s1, _BLOCK):
        s = np.arange(b0, min(b0 + _BLOCK, s1), dtype=np.int64)
        ys = [fixed_point_fraction(cls, s) for cls in classes]
        thr = max(eps, best_bound)
        keep = np.ones(len(s), dtype=bool)
        if thr < 2.0:
            a = math.asin(min(1.0, 0.5 * thr * (1.0 + 2.0**-40))) / math.pi
            for cls, y in zip(classes, ys):
                for c in cls[0]:
                    z = c * y
                    keep &= np.abs(z - np.rint(z)) < a + _SCREEN_ULPS * _EPS64 * (c + 1.0)
        idx = np.flatnonzero(keep)
        tot = np.zeros(len(idx))
        for cls, y in zip(classes, ys):
            tot += class_term(cls, y[idx])
            below = tot < thr
            idx, tot = idx[below], tot[below]
        hit = np.flatnonzero(tot < eps)[:1]
        if len(hit):
            idx, tot = idx[:hit[0] + 1], tot[:hit[0] + 1]
        if len(tot):
            i = int(np.argmin(tot))
            if tot[i] < best_bound:
                best_s, best_bound = b0 + int(idx[i]), float(tot[i])
        if len(hit):
            return b0 + int(idx[-1]), (best_s, best_bound)
    return -1, (best_s, best_bound)
