"""Lie closures of generator families and controllability rank certificates.

The closure works over the real vector space of traceless skew-Hermitian
matrices (dimension d^2 - 1), with the inner product Re tr(A^dag B).
The orthonormal basis is one preallocated (d^2 - 1, d, d) complex array,
read also as a (d^2 - 1, 2 d^2) real array B of stacked basis vectors.
Rank detection is classical Gram-Schmidt with one reorthogonalization
(CGS2, "twice is enough"): a Frobenius-normalized candidate v is
projected twice against the whole stacked basis, v -= B^T (B v), and is
accepted when the relative residual exceeds the tolerance.  Two
singular-value passes cross-check the result: one for the orthonormality
of the basis and one for the rank of the raw accepted candidates.
The generators are offered first and leave k0 basis elements that span
them.  Round j brackets b_j with the elements M[:min(j, k0)] only, in one
batched product offered in order, so the final span is closed under
ad_g for every generator g.  That span is the generated algebra, since
every Lie word is a combination of left-normed brackets [g_1, [g_2, ...]].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import operator_core as oc
from .errors import InternalConsistencyError

DEFAULT_TOL = 1e-9


@dataclass
class GeneratorFamily:
    """Skew-Hermitian generators on one dimension, made traceless."""

    members: list[np.ndarray]
    labels: list[str]

    def __post_init__(self):
        if not self.members:
            raise ValueError("family must be nonempty")
        if len(self.labels) != len(self.members):
            raise ValueError("labels and members must align")
        d = self.members[0].shape[0]
        cleaned = []
        for lab, m in zip(self.labels, self.members):
            m = np.asarray(m, dtype=np.complex128)
            if m.shape != (d, d):
                raise ValueError("all members must share one dimension")
            if np.linalg.norm(m + m.conj().T) > 1e-12 * max(1.0, np.linalg.norm(m)):
                raise ValueError(f"member {lab} is not skew-Hermitian")
            tr = np.trace(m)
            if abs(tr) > 0:
                m = m - (tr / d) * np.eye(d)
            cleaned.append(m)
        self.members = cleaned

    @property
    def dim(self) -> int:
        return self.members[0].shape[0]

    @classmethod
    def from_couplings(cls, ids, n: int) -> "GeneratorFamily":
        mats = [oc.build_coupling(cid, n).matrix for cid in ids]
        return cls(mats, list(ids))


@dataclass
class ClosureReport:
    dimension: int
    target: int
    certified: bool
    basis_rank_history: list[tuple[int, int]]
    tolerance: float
    n: int | None = None
    labels: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"n": self.n, "family": list(self.labels),
                "dimension": self.dimension, "target": self.target,
                "certified": self.certified, "tolerance": self.tolerance}


def _vec(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a complex matrix, re and im interleaved.

    The dot product of two such vectors is Re tr(A^dag B).
    """
    return np.ascontiguousarray(m, dtype=np.complex128).view(np.float64).reshape(-1)


def lie_closure(family: GeneratorFamily, tol: float = DEFAULT_TOL) -> ClosureReport:
    """Dimension of the real Lie algebra generated by the family.

    Deterministic given input order; stops early once the su(d) dimension
    d^2 - 1 is reached, since the closure cannot grow past it.
    """
    report, _ = closure_basis(family, tol)
    return report


def closure_basis(family: GeneratorFamily,
                  tol: float = DEFAULT_TOL) -> tuple[ClosureReport, list[np.ndarray]]:
    """Like :func:`lie_closure` but also returns the orthonormal basis."""
    if not 0 < tol <= 1e-3:
        raise ValueError("tol must lie in (0, 1e-3]")
    d = family.dim
    target = d * d - 1
    # one storage: mats[k] is the k-th basis matrix and basis[k] the same
    # numbers read as a real vector, so a row written to basis is in mats
    mats = np.zeros((target, d, d), dtype=np.complex128)
    basis = mats.view(np.float64).reshape(target, 2 * d * d)
    raw_accepted = np.zeros_like(basis)
    history: list[tuple[int, int]] = []
    k = 0

    def try_add(m: np.ndarray) -> None:
        nonlocal k
        nrm = np.linalg.norm(m)
        if nrm < 1e-13:
            return
        u = _vec(m / nrm)
        bk = basis[:k]
        v = u - bk.T @ (bk @ u)
        v -= bk.T @ (bk @ v)  # twice-is-enough reorthogonalization
        rn = np.linalg.norm(v)
        if rn <= tol:
            return
        raw_accepted[k] = u
        basis[k] = v / rn
        k += 1

    for g in family.members:
        if k >= target:
            break
        try_add(g)
    history.append((0, k))

    k0 = k
    j = 1
    while j < k < target:
        bj, partners = mats[j], mats[:min(j, k0)]
        for c in partners @ bj - bj @ partners:
            if k >= target:
                break
            try_add(c)
        history.append((len(partners), k))
        j += 1

    dim = k
    if dim:
        sv = np.linalg.svd(basis[:dim], compute_uv=False)
        if abs(sv[0] - 1.0) > 1e-8 or abs(sv[-1] - 1.0) > 1e-8:
            raise InternalConsistencyError("orthonormal basis lost orthonormality")
        sv_raw = np.linalg.svd(raw_accepted[:dim], compute_uv=False)
        rank_raw = int(np.sum(sv_raw > sv_raw[0] * tol * 1e-3))
        if rank_raw != dim:
            raise InternalConsistencyError(
                f"rank cross-check disagrees: basis {dim} vs raw svd {rank_raw}")
    report = ClosureReport(dimension=dim, target=target, certified=dim == target,
                           basis_rank_history=history, tolerance=tol,
                           labels=list(family.labels))
    return report, list(mats[:dim])


def resolve_family(selector) -> tuple[str, ...]:
    if isinstance(selector, (list, tuple)):
        return tuple(selector)
    return oc.family_ids(selector)


def _hypothesis_met(ids) -> bool:
    ids = set(ids)
    return all(any({f"V{gamma}", f"W{gamma}", f"V{gamma}{star}", f"W{gamma}{star}"} <= ids
                   for star in ("r", "b")) for gamma in (1, 2))


def certify_modal(n: int, family="full", tol: float = DEFAULT_TOL) -> ClosureReport:
    """Rank certificate for an ion generator family on the 4n-truncation.

    Certified means the closure reaches dim su(4n) = 16n^2 - 1.  Requires
    n >= 3; a family missing a carrier+sideband quadruple for some ion
    only triggers a warning, since the closure may still be full.
    """
    if n < 3:
        raise ValueError("modal certification requires n >= 3")
    ids = resolve_family(family)
    unknown = [i for i in ids if i not in oc.ION_IDS]
    if unknown:
        raise ValueError(f"not ion generators: {unknown}")
    if not _hypothesis_met(ids):
        warnings.warn("family misses a carrier+sideband quadruple for some ion; "
                      "certification may still succeed", stacklevel=2)
    rep = lie_closure(GeneratorFamily.from_couplings(ids, n), tol)
    rep.n = n
    return rep


def certify_law_eberly(n: int, star: str, tol: float = DEFAULT_TOL) -> ClosureReport:
    """Rank certificate for the single-ion family {V, W, V*, W*} on 2n levels."""
    if n < 2:
        raise ValueError("Law-Eberly certification requires n >= 2")
    if star not in ("r", "b"):
        raise ValueError("star must be 'r' or 'b'")
    ids = ("V", "W", f"V{star}", f"W{star}")
    rep = lie_closure(GeneratorFamily.from_couplings(ids, n), tol)
    rep.n = n
    return rep
