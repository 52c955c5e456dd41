"""Exact frequency arithmetic, resonance classes, and decoupled decompositions.

Frequencies of the sideband operators are sqrt(j) for integer j, carried
exactly as (rational coefficient) * sqrt(square-free kernel).  Rational
resonance of two nonzero frequencies is then decidable: it holds exactly
when the kernels agree.  Nothing in this module clusters floating-point
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import operator_core as oc


def squarefree_decompose(r: int) -> tuple[int, int]:
    """Write r = c^2 * k with k square-free; returns (c, k).  r >= 1."""
    if r < 1:
        raise ValueError("radicand must be a positive integer")
    c, k = 1, 1
    d = 2
    while d * d <= r:
        e = 0
        while r % d == 0:
            r //= d
            e += 1
        if e:
            c *= d ** (e // 2)
            if e % 2:
                k *= d
        d += 1
    k *= r
    return c, k


def is_prime(n: int) -> bool:
    """Trial-division primality test."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ExactFrequency:
    """Value coeff * sqrt(kernel) with kernel square-free; zero is (0, 1)."""

    coeff: Fraction
    kernel: int

    def __post_init__(self):
        if self.kernel < 1:
            raise ValueError("kernel must be a positive integer")
        _, k = squarefree_decompose(self.kernel)
        if k != self.kernel:
            raise ValueError(f"kernel {self.kernel} is not square-free")
        if self.coeff < 0:
            raise ValueError("coefficient must be nonnegative")
        if self.coeff == 0 and self.kernel != 1:
            raise ValueError("zero frequency must carry kernel 1")

    @classmethod
    def zero(cls) -> "ExactFrequency":
        return cls(Fraction(0), 1)

    @classmethod
    def from_radicand(cls, r: int) -> "ExactFrequency":
        """sqrt(r) for integer r >= 0, reduced to canonical form."""
        if r == 0:
            return cls.zero()
        c, k = squarefree_decompose(r)
        return cls(Fraction(c), k)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def value(self) -> float:
        return float(self.coeff) * float(np.sqrt(self.kernel))

    def resonant_with(self, other: "ExactFrequency") -> bool:
        """Exact Q-resonance: both zero, or both nonzero with equal kernels."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.kernel == other.kernel

    def ratio(self, other: "ExactFrequency") -> Fraction:
        """self / other as an exact rational; requires resonance."""
        if not self.resonant_with(other) or other.is_zero:
            raise ValueError("ratio is rational only within a resonance class")
        return self.coeff / other.coeff

    def to_json(self) -> dict:
        return {"coeff": [self.coeff.numerator, self.coeff.denominator],
                "kernel": self.kernel}


@dataclass(frozen=True)
class ResonanceClass:
    """One Q-resonance class with its representative nu (zero for {0})."""

    members: tuple[ExactFrequency, ...]
    nu: ExactFrequency

    def matches_kernel(self, r: int) -> bool:
        """Same kernel as this class (ignores the order cutoff)."""
        if r == 0:
            return self.nu.is_zero
        if self.nu.is_zero:
            return False
        return squarefree_decompose(r)[1] == self.nu.kernel

    def to_json(self) -> dict:
        return {"members": [w.to_json() for w in self.members],
                "nu": self.nu.to_json()}


@dataclass(frozen=True)
class ResonancePartition:
    """Classes of the frequencies sqrt(0), ..., sqrt(m-2) at order m."""

    m: int
    classes: tuple[ResonanceClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def class_index_of_radicand(self, r: int) -> int:
        """1-based class index of sqrt(r); r must be <= m-2."""
        if not 0 <= r <= self.m - 2:
            raise ValueError(f"radicand {r} outside order-{self.m} range")
        for idx, cls in enumerate(self.classes, start=1):
            if cls.matches_kernel(r):
                return idx
        raise AssertionError("partition does not cover its own range")

    def to_json(self) -> dict:
        return {"m": self.m, "count": self.count,
                "classes": [c.to_json() for c in self.classes]}


def resonance_partition(m: int) -> ResonancePartition:
    """Group sqrt(0..m-2) by square-free kernel; the zero class comes first."""
    if m < 2:
        raise ValueError("order m must be >= 2")
    by_kernel: dict[int, list[int]] = {}
    for r in range(1, m - 1):
        by_kernel.setdefault(squarefree_decompose(r)[1], []).append(r)
    classes = [ResonanceClass((ExactFrequency.zero(),), ExactFrequency.zero())]
    for kernel in sorted(by_kernel):
        members = tuple(ExactFrequency.from_radicand(r) for r in sorted(by_kernel[kernel]))
        classes.append(ResonanceClass(members, ExactFrequency(Fraction(1), kernel)))
    return ResonancePartition(m, tuple(classes))


def decoupling_order_ok(m: int) -> bool:
    """The decoupling hypothesis at order m: omega_h/omega_m irrational or 0.

    For sqrt-integer frequencies this reduces to m-1 being square-free.
    """
    if m < 2:
        return False
    c, _ = squarefree_decompose(m - 1)
    return c == 1


def frequencies(cid: str, n: int) -> list[ExactFrequency]:
    """Exact eigenvalue moduli of a sideband operator relevant at order n.

    Covers sqrt(0) .. sqrt(n), i.e. everything up to the first frequency
    outside the 4n-truncation.
    """
    if not (oc.is_ion(cid) and oc.is_sideband(cid)):
        raise ValueError("only ion sideband operators carry nontrivial frequencies")
    if n < 1:
        raise ValueError("n must be >= 1")
    return [ExactFrequency.from_radicand(r) for r in range(n + 1)]


# ---------------------------------------------------------------------------
# projectors and the decomposition
# ---------------------------------------------------------------------------


def _pair_index_sets(op: oc.TruncatedOperator):
    """(indices by radicand, unpaired indices), all 0-based."""
    by_rad: dict[int, list[int]] = {}
    used = np.zeros(op.dim, dtype=bool)
    for j, k, r in zip(op.pj, op.pk, op.radicand):
        by_rad.setdefault(int(r), []).extend((int(j), int(k)))
        used[j] = used[k] = True
    return by_rad, np.flatnonzero(~used)


def class_projector(cid: str, cls: ResonanceClass, m: int, dim: int) -> np.ndarray:
    """Orthogonal projector onto the eigenspaces of the class frequencies.

    Each two-level pair of the truncated operator spans exactly the
    eigenvectors for +-i*coefficient, so the projector is diagonal in the
    Fock basis: 1 on pair indices whose |coefficient| lies in the class
    (and on the kernel coordinates for the zero class).
    """
    if not (oc.is_ion(cid) and oc.is_sideband(cid)):
        raise ValueError("class projectors are defined for ion sideband operators")
    if dim < 4 * m:
        raise ValueError("dim must be at least 4m")
    op = oc.truncate(cid, dim)
    by_rad, unpaired = _pair_index_sets(op)
    diag = np.zeros(dim)
    if cls.nu.is_zero:
        diag[unpaired] = 1.0
    else:
        for r, idx in by_rad.items():
            if cls.matches_kernel(r) and r <= m - 2:
                diag[idx] = 1.0
    return np.diag(diag).astype(np.complex128)


@dataclass
class DecoupledDecomposition:
    """U = sum(parts) + u_dec + u_rho with mutually annihilating terms."""

    m: int
    partition: ResonancePartition
    parts: list[np.ndarray]
    u_dec: np.ndarray
    u_rho: np.ndarray
    projectors: list[np.ndarray]  # per class, then the omega_m projector last


def decompose(op: oc.TruncatedOperator, m: int) -> DecoupledDecomposition:
    """Decoupled decomposition of a sideband truncation at order m.

    Every pair of the operator is routed whole: to its resonance class
    when |coeff| is among sqrt(0..m-2), to the dec part at sqrt(m-1), and
    to the rho remainder beyond.
    """
    if not (oc.is_ion(op.id) and oc.is_sideband(op.id)):
        raise ValueError("only ion sideband operators have exact sqrt-integer spectra")
    max_rad = int(op.radicand.max()) if len(op.radicand) else 0
    if m - 1 > max_rad:
        raise ValueError(
            f"order m={m} exceeds the frequency range of the {op.dim}-truncation")
    part = resonance_partition(m)
    by_rad, unpaired = _pair_index_sets(op)

    def select(pred):
        mask = np.array([pred(int(r)) for r in op.radicand], dtype=bool)
        return oc.expand_pairs_dense(op.dim, op.pj[mask], op.pk[mask],
                                     op.coeff[mask], op.kind[mask])

    parts, projectors = [], []
    for cls in part.classes:
        if cls.nu.is_zero:
            parts.append(np.zeros((op.dim, op.dim), dtype=np.complex128))
        else:
            parts.append(select(lambda r, c=cls: c.matches_kernel(r) and r <= m - 2))
        projectors.append(class_projector(op.id, cls, m, op.dim))
    u_dec = select(lambda r: r == m - 1)
    u_rho = select(lambda r: r >= m)
    diag = np.zeros(op.dim)
    for r, idx in by_rad.items():
        if r == m - 1:
            diag[idx] = 1.0
    projectors.append(np.diag(diag).astype(np.complex128))
    return DecoupledDecomposition(m, part, parts, u_dec, u_rho, projectors)


def build_decoupled_generator(cid: str, j: int, n: int) -> oc.TruncatedOperator:
    """Class-j restriction of a sideband operator on the 4n-truncation.

    With m = n+1 the class eigenspaces live entirely inside the truncation,
    so the product with the class projector is simply the sub-operator made
    of the pairs whose radicand falls in class j.
    """
    m = n + 1
    part = resonance_partition(m)
    if not 1 <= j <= part.count:
        raise ValueError(f"class index {j} outside 1..{part.count}")
    cls = part.classes[j - 1]
    op = oc.truncate(cid, 4 * n)
    if cls.nu.is_zero:
        mask = np.zeros(len(op.radicand), dtype=bool)
    else:
        mask = np.array([cls.matches_kernel(int(r)) and r <= m - 2
                         for r in op.radicand], dtype=bool)
    return oc.TruncatedOperator(f"{cid}[{j}]", op.dim, op.pj[mask], op.pk[mask],
                                op.coeff[mask], op.kind[mask], op.radicand[mask])
