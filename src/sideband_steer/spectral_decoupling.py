"""Exact frequency arithmetic, resonance classes, and decoupled generators.

Frequencies of the sideband operators are sqrt(r) for integer radicands
r, and the integer r is all this module carries: with r = c^2 * k and k
square-free, two nonzero frequencies are rationally resonant exactly when
their kernels k agree.  A resonance class is a kernel and its radicands.
Nothing in this module clusters floating-point eigenvalues.

:func:`class_mask` is the one rule that assigns a two-level pair to a
resonance class; the planner's class generators and the winding
certificate both route pairs through it.  The dense decomposition
U = sum_j U_j + U_dec + U_rho and its class projectors are test oracles
(``tests/helpers.py``) built on the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

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
class ResonanceClass:
    """One Q-resonance class: the radicands r of its frequencies sqrt(r),
    ascending, all with the square-free kernel ``kernel``.  The zero class
    is kernel 0 with the single radicand 0."""

    kernel: int
    radicands: tuple[int, ...]

    def to_json(self) -> dict:
        # each frequency as sqrt(r) = c * sqrt(k); zero is 0 * sqrt(1)
        k = self.kernel or 1
        return {"members": [{"coeff": [isqrt(r // k), 1], "kernel": k}
                            for r in self.radicands],
                "nu": {"coeff": [int(self.kernel > 0), 1], "kernel": k}}


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
    classes = [ResonanceClass(0, (0,))]
    classes += [ResonanceClass(k, tuple(by_kernel[k])) for k in sorted(by_kernel)]
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
    +-i*sqrt(r), so it belongs to class j exactly when r is one of the
    class's radicands: the same kernel, and r <= m-2.  No coupling pair has
    r = 0, so the zero class selects none.
    """
    return np.isin(radicands, part.classes[j - 1].radicands)


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
