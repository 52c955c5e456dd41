"""Coupling operators in Fock coordinates, and their exact segment flows.

The state space is indexed 1-based by ``j = 4*phonon + offset(internal)``
with internal levels ordered ``gg, eg, ge, ee`` (offsets 1..4).  The pair
tables below are written in that indexing; nothing at run time maps a
level to its index.  Every coupling operator is a disjoint union of
two-level blocks built from the skew-adjoint primitives

    E[j,k]: phi_j -> i phi_k, phi_k -> i phi_j
    F[j,k]: phi_j -> -phi_k,  phi_k -> phi_j

so the flow of a single piecewise-constant segment is an exact bundle of
2x2 rotations, at any truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import InternalConsistencyError, TruncationOverflowError

ION_IDS = ("V1", "W1", "V1r", "W1r", "V1b", "W1b",
           "V2", "W2", "V2r", "W2r", "V2b", "W2b")
LAW_EBERLY_IDS = ("V", "W", "Vr", "Wr", "Vb", "Wb")
CARRIER_IDS = ("V1", "W1", "V2", "W2", "V", "W")
ALL_IDS = ION_IDS + LAW_EBERLY_IDS

# the named ion families: the sideband colours each one drives
FAMILIES = {"full": ("r", "b"), "red-only": ("r",), "blue-only": ("b",)}

# Per-phonon offset pairs and signs, fixed so that the matrices permuted to
# internal-major order reproduce the closed-form block patterns (transcribed
# in tests/helpers.py), which is the convention the whole toolkit is pinned
# to.  Pair for phonon m is (4m + o1, 4m + o2) with coefficient
# sign*sqrt(m+1) for sidebands and sign*1 for carriers.
_ION_TABLE = {
    "V1":  ("E", -1.0, ((1, 2), (3, 4)), False),
    "W1":  ("F", +1.0, ((1, 2), (3, 4)), False),
    "V1r": ("E", -1.0, ((2, 5), (4, 7)), True),
    "W1r": ("F", -1.0, ((2, 5), (4, 7)), True),
    "V1b": ("E", -1.0, ((1, 6), (3, 8)), True),
    "W1b": ("F", +1.0, ((1, 6), (3, 8)), True),
    "V2":  ("E", -1.0, ((1, 3), (2, 4)), False),
    "W2":  ("F", +1.0, ((1, 3), (2, 4)), False),
    "V2r": ("E", -1.0, ((1, 7), (2, 8)), True),
    "W2r": ("F", +1.0, ((1, 7), (2, 8)), True),
    "V2b": ("E", -1.0, ((3, 5), (4, 6)), True),
    "W2b": ("F", -1.0, ((3, 5), (4, 6)), True),
}


def is_ion(cid: str) -> bool:
    return cid in ION_IDS


def is_law_eberly(cid: str) -> bool:
    return cid in LAW_EBERLY_IDS


def is_carrier(cid: str) -> bool:
    if cid not in ALL_IDS:
        raise ValueError(f"unknown coupling id {cid!r}")
    return cid in CARRIER_IDS


def is_sideband(cid: str) -> bool:
    return not is_carrier(cid)


def family_ids(name: str) -> tuple[str, ...]:
    """The carriers and the sidebands of the family's colours, in ION_IDS order."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return tuple(i for i in ION_IDS if is_carrier(i) or i[-1] in FAMILIES[name])


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def normalize(phi: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(phi)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    return np.asarray(phi, dtype=np.complex128) / nrm


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random unit vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return normalize(v)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass
class TruncatedOperator:
    """A skew-Hermitian truncation with its disjoint two-level structure.

    ``pj``/``pk`` are 0-based index arrays of the pairs, ``coeff`` and
    ``kind`` their coefficients and E/F kinds.  ``radicand`` holds
    the integer R with |coefficient| = sqrt(R), which is what makes the
    spectral bookkeeping exact.  Instances are treated as immutable.
    """

    id: str
    dim: int
    pj: np.ndarray
    pk: np.ndarray
    coeff: np.ndarray
    kind: np.ndarray  # uint8: 0 = E, 1 = F
    radicand: np.ndarray


def _check_disjoint(pj, pk, cid):
    idx = np.concatenate([pj, pk])
    if len(np.unique(idx)) != len(idx):
        raise InternalConsistencyError(f"pair list of {cid} is not disjoint")


def iter_ion_pairs(cid: str, max_min_index: int):
    """Pairs of the untruncated ion operator whose lower index is <= max_min_index.

    Yields 1-based tuples (j, k, coeff, kind, radicand).
    """
    kind, sign, offsets, sideband = _ION_TABLE[cid]
    m = 0
    while True:
        emitted = False
        for o1, o2 in offsets:
            j, k = 4 * m + o1, 4 * m + o2
            if min(j, k) <= max_min_index:
                c = sign * np.sqrt(m + 1.0) if sideband else sign
                yield j, k, c, kind, (m + 1 if sideband else 1)
                emitted = True
        if not emitted:
            return
        m += 1


@lru_cache(maxsize=None)
def pair_arrays(cid: str, dim: int):
    """Cached 0-based pair arrays (pj, pk, coeff, kind, radicand) of the
    operator truncated to ``dim``."""
    pj, pk, pc, pt, pr = [], [], [], [], []
    if is_ion(cid):
        for j, k, c, kind, rad in iter_ion_pairs(cid, dim):
            if max(j, k) <= dim:
                pj.append(j - 1)
                pk.append(k - 1)
                pc.append(c)
                pt.append(0 if kind == "E" else 1)
                pr.append(rad)
    elif is_law_eberly(cid):
        if dim % 2:
            raise ValueError("Law-Eberly operators need an even dimension")
        n = dim // 2
        if cid in ("V", "W"):
            items = [(j, n + j, 1.0, 1) for j in range(1, n + 1)]
        elif cid in ("Vr", "Wr"):
            items = [(j + 1, n + j, np.sqrt(j), j) for j in range(1, n)]
        else:  # Vb, Wb
            items = [(j, n + j + 1, np.sqrt(j), j) for j in range(1, n)]
        for j, k, c, rad in items:
            pj.append(j - 1)
            pk.append(k - 1)
            pc.append(-c)
            pt.append(0 if cid.startswith("V") else 1)
            pr.append(rad)
    else:
        raise ValueError(f"unknown coupling id {cid!r}")
    arrays = (np.asarray(pj, dtype=np.int64), np.asarray(pk, dtype=np.int64),
              np.asarray(pc, dtype=np.float64), np.asarray(pt, dtype=np.uint8),
              np.asarray(pr, dtype=np.int64))
    _check_disjoint(arrays[0], arrays[1], cid)
    return arrays


def build_coupling(cid: str, n: int) -> TruncatedOperator:
    """Truncated coupling operator: 4n x 4n for ion ids, 2n x 2n for Law-Eberly.

    A two-level pair survives the truncation only if both endpoints fit,
    which keeps the result skew-Hermitian.
    """
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    if cid not in ALL_IDS:
        raise ValueError(f"unknown coupling id {cid!r}")
    return truncate(cid, 4 * n if is_ion(cid) else 2 * n)


def truncate(cid: str, dim: int) -> TruncatedOperator:
    """The coupling operator truncated to an arbitrary dimension."""
    return TruncatedOperator(cid, dim, *pair_arrays(cid, dim))


# ---------------------------------------------------------------------------
# exact segment flows
# ---------------------------------------------------------------------------


def _check_support_inside(cid: str, phi: np.ndarray, dim_sim: int) -> None:
    nz = np.flatnonzero(np.abs(phi) > 0.0)
    if nz.size == 0:
        return
    top = int(nz[-1]) + 1  # 1-based
    for j, k, _, _, _ in iter_ion_pairs(cid, top):
        if max(j, k) > dim_sim and (phi[j - 1] != 0 or (k - 1 < len(phi) and phi[k - 1] != 0)):
            raise TruncationOverflowError(
                f"pair ({j},{k}) of {cid} touches the support but exits dim_sim={dim_sim}")


# ---------------------------------------------------------------------------
# segment programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SegmentProgram:
    """A sequence of segment flows in one CSR pair layout.

    Segment k is the flow exp(theta_k * S_k) of one disjoint-pair operator
    S_k: it rotates the pairs ``ptr[k]:ptr[k+1]`` by the angles
    ``theta_k * coeff``.  The planner objective, both simulators and the
    trajectory writer all run on this one representation.  The planner
    kernel also takes a CSR pointer of runs of commuting segments over it,
    from the generator sequence (``modal_planner.commuting_runs``).
    """

    ptr: np.ndarray
    pj: np.ndarray
    pk: np.ndarray
    coeff: np.ndarray
    kind: np.ndarray

    @classmethod
    def from_operators(cls, ops, coeffs=None) -> "SegmentProgram":
        """One segment per operator, in order.

        ``coeffs[k]``, when given and not None, replaces the coefficients of
        ``ops[k]``; the lifted simulator passes exactly reduced angles there.
        """
        ops = list(ops)
        coeffs = [None] * len(ops) if coeffs is None else coeffs
        pc = [op.coeff if c is None else np.asarray(c, dtype=np.float64)
              for op, c in zip(ops, coeffs, strict=True)]
        cat = lambda xs, dt: (np.concatenate(xs) if xs else np.empty(0, dtype=dt))
        return cls(np.cumsum([0] + [len(op.pj) for op in ops]).astype(np.int64),
                   cat([op.pj for op in ops], np.int64),
                   cat([op.pk for op in ops], np.int64),
                   cat(pc, np.float64), cat([op.kind for op in ops], np.uint8))

    def tile(self, cycles: int) -> "SegmentProgram":
        """The program repeated ``cycles`` times."""
        npairs = self.ptr[-1]
        starts = self.ptr[:-1] + npairs * np.arange(cycles, dtype=np.int64)[:, None]
        ptr = np.append(starts.ravel(), cycles * npairs)
        return SegmentProgram(ptr, *(np.tile(a, cycles)
                                     for a in (self.pj, self.pk, self.coeff, self.kind)))

    def states(self, phi0: np.ndarray, thetas) -> np.ndarray:
        """Row 0 is ``phi0``, row k+1 the state after segment k.

        ``phi0`` must already live in the program's dimension.  The
        rotation entries of every pair come from one ``_kernels._rotation``
        call; every segment is then one ``_kernels.rotate_pairs`` call.
        """
        nseg = len(self.ptr) - 1
        if len(thetas) != nseg:
            raise ValueError(f"{len(thetas)} angles for {nseg} segments")
        betas = np.repeat(np.asarray(thetas, dtype=np.float64), np.diff(self.ptr)) * self.coeff
        cos, upper, lower = _kernels._rotation(betas, self.kind)
        out = np.empty((nseg + 1, len(phi0)), dtype=np.complex128)
        out[0] = phi0
        for k in range(nseg):
            lo, hi = self.ptr[k], self.ptr[k + 1]
            out[k + 1] = out[k]
            _kernels.rotate_pairs(out[k + 1], self.pj[lo:hi], self.pk[lo:hi],
                                  cos[lo:hi], upper[lo:hi], lower[lo:hi])
        return out
