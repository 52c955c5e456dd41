"""Exact frequency arithmetic, resonance classes, and decoupled generators.

Frequencies of the sideband operators are sqrt(j) for integer j, carried
exactly as (rational coefficient) * sqrt(square-free kernel).  Rational
resonance of two nonzero frequencies is then decidable: it holds exactly
when the kernels agree.  Nothing in this module clusters floating-point
eigenvalues.

:func:`class_mask` is the one rule that assigns a two-level pair to a
resonance class; the planner's class generators and the winding
certificate both route pairs through it.  The dense decomposition
U = sum_j U_j + U_dec + U_rho and its class projectors are test oracles
(``tests/helpers.py``) built on the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import operator_core as oc

# largest order p that a plan or lifted-plan file may carry: one 4p x 4p
# complex propagator at p = 10**4 already takes 25 GB, and is_prime is
# trial division, so the loaders refuse a larger p before testing it
P_MAX = 10**4


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


# ---------------------------------------------------------------------------
# class membership and the decoupled generators
# ---------------------------------------------------------------------------


def class_mask(part: ResonancePartition, j: int, radicands) -> np.ndarray:
    """Which pairs lie in class j at order ``part.m``, given their radicands.

    A pair with |coefficient| = sqrt(r) spans the eigenvectors for
    +-i*sqrt(r), so it belongs to class j exactly when sqrt(r) shares the
    class kernel and r <= m-2.  No coupling pair has r = 0, so the zero
    class selects none.
    """
    cls = part.classes[j - 1]
    return np.array([int(r) <= part.m - 2 and cls.matches_kernel(int(r))
                     for r in radicands], dtype=bool)


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
    op = oc.truncate(cid, 4 * n)
    mask = class_mask(part, j, op.radicand)
    return oc.TruncatedOperator(f"{cid}[{j}]", op.dim, op.pj[mask], op.pk[mask],
                                op.coeff[mask], op.kind[mask], op.radicand[mask])
