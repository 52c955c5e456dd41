"""Lie closures of generator families and controllability rank certificates.

The closure is exact: it runs over the prime field F_q.  Every generator
entry lies in the ring Z[i, sqrt 2, sqrt 3, ...]: an E pair of radicand r
and coefficient sign s carries i*s*sqrt(r) at (j, k) and (k, j), an F pair
-s*sqrt(r) at (k, j) and s*sqrt(r) at (j, k).  Sending i and each sqrt(p)
to a square root mod q, and so sqrt(c^2 k) to c times the roots of the
primes of the square-free k, is a ring map into F_q that commutes with
brackets.  The accepted words are images of Lie words.  If their rank
mod q is d^2 - 1, some minor of them is nonzero in the ring, so they are
independent over C and, being skew-Hermitian, over R: they span su(d).
A smaller rank is a lower bound, so a certificate is never false.

Every entry is kept in [0, q), so every sum of products (a bracket, or a
reduction against at most d^2 - 1 rows) stays below d^2 (q-1)^2.  A
dimension is accepted only when that is below 2^53, where float64 GEMMs
are exact, and each product is reduced mod q afterwards (delayed
reduction, as in FFLAS-FFPACK).

The generators are offered first and leave k0 words.  Round j brackets
word j with the words [:min(j, k0)] only, in one batched product offered
in order, so the final span is closed under ad_g for every generator g.
That span is the generated algebra, since every Lie word is a combination
of left-normed brackets [g_1, [g_2, ...]].  A candidate is reduced
against one fully reduced echelon form and accepted when it is nonzero.

``lie_closure`` takes any list of generator ids.  The two certificates
wrap it: ``certify_modal`` for a named ion family, ``certify_law_eberly``
for the single-ion family of one sideband colour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operator_core as oc
from . import spectral_decoupling as sd

# q is the least suitable prime above _Q_FLOOR; float64 integer sums are exact below _EXACT
_Q_FLOOR = 2**20
_EXACT = 2**53


@dataclass
class ClosureReport:
    dimension: int
    target: int
    certified: bool
    basis_rank_history: list[tuple[int, int]]
    q: int
    n: int
    labels: list[str]

    def to_json(self) -> dict:
        return {"n": self.n, "family": list(self.labels),
                "dimension": self.dimension, "target": self.target,
                "certified": self.certified, "q": self.q}


def _sqrt_mod(a: int, q: int) -> int:
    """A square root of the quadratic residue a mod the odd prime q (Tonelli-Shanks)."""
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = 2^s t with t odd
    t = (q - 1) >> s
    z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)
    m, c, x, b = s, pow(z, t, q), pow(a, (t + 1) // 2, q), pow(a, t, q)
    while b != 1:
        i = next(i for i in range(1, m) if pow(b, 1 << i, q) == 1)
        f = pow(c, 1 << (m - i - 1), q)
        m, c, x, b = i, f * f % q, x * f % q, b * f * f % q
    return x


@lru_cache(maxsize=None)
def _field(d: int, n: int) -> tuple[int, int, np.ndarray]:
    """(q, sqrt(-1) mod q, table of sqrt(r) mod q for r = 0..n).

    Every radicand of an n-truncation is at most n.  q is the least prime
    above 2^20 with q = 1 (mod 4) in which every prime up to n is a
    square, and it must keep d exact: d^2 (q-1)^2 < 2^53.
    """
    if d * d * _Q_FLOOR**2 >= _EXACT:
        raise ValueError(f"dimension {d} is too large for an exact certificate: "
                         "d^2 (q-1)^2 must stay below 2^53 for a prime q > 2^20")
    primes = [p for p in range(2, n + 1) if sd.is_prime(p)]
    q = _Q_FLOOR + 1  # = 1 (mod 4), and so is every later candidate
    while d * d * (q - 1) ** 2 < _EXACT:
        if all(pow(p, (q - 1) // 2, q) == 1 for p in primes) and sd.is_prime(q):
            break
        q += 4
    else:
        raise ValueError(f"no exact certificate at dimension {d}: no prime q > 2^20 "
                         f"with d^2 (q-1)^2 < 2^53 has square roots of -1 and of "
                         f"every prime up to {n}")
    root = {p: _sqrt_mod(p, q) for p in primes}
    table = [0]
    for r in range(1, n + 1):
        c, k = sd.squarefree_decompose(r)
        table.append(c * math.prod(root[p] for p in primes if k % p == 0) % q)
    return q, _sqrt_mod(q - 1, q), np.array(table, dtype=np.float64)


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """Reduce integer-valued float64 x with |x| <= 2^53 - q into [0, q), in place.

    x / q is rounded with relative error below 2^-53, so by less than 1/q,
    while a non-integer x / q lies at least 1/q from every integer: its
    floor is exact, and no fix-up is needed.  The closure's sums stay
    inside that range.
    """
    x -= np.floor(x / q) * q
    return x


def lie_closure(ids, n: int) -> tuple[ClosureReport, np.ndarray]:
    """Dimension of the real Lie algebra generated by the truncated couplings.

    Returns the report and the accepted words mod q, one (d, d) matrix
    each, in acceptance order.  Deterministic given the order of ``ids``;
    stops early once the su(d) dimension d^2 - 1 is reached, since the
    closure cannot grow past it.
    """
    dims = {4 * n if oc.is_ion(cid) else 2 * n for cid in ids}
    if len(dims) != 1:
        raise ValueError("all generators must share one dimension")
    d = dims.pop()
    q, i_q, sqrt_r = _field(d, n)  # refuses a large d before any work
    dd, target = d * d, d * d - 1
    words = np.zeros((target, d, d))
    ech = np.zeros((target, dd))  # fully reduced: ech[:, piv] is the identity
    piv = np.zeros(target, dtype=np.int64)
    history: list[tuple[int, int]] = []
    k = 0

    def offer(raw: np.ndarray) -> None:
        """Offer candidate words in order.  Rows accepted here reduce the
        later candidates, then join the echelon form fully reduced."""
        nonlocal k
        start = k
        flat = raw.reshape(len(raw), dd)
        cand = _mod(flat - flat[:, piv[:k]] @ ech[:k], q)
        for t in np.flatnonzero(cand.any(axis=1)):  # a zero candidate stays zero
            if k >= target:
                break
            c = cand[t]
            c -= c[piv[start:k]] @ ech[start:k]
            nz = np.flatnonzero(_mod(c, q))
            if nz.size == 0:
                continue
            row = _mod(c * pow(int(c[nz[0]]), -1, q), q)
            new = ech[start:k]
            new -= np.outer(new[:, nz[0]], row)
            _mod(new, q)
            ech[k], piv[k], words[k] = row, nz[0], raw[t]
            k += 1
        if k > start:
            old = ech[:start]
            old -= old[:, piv[start:k]] @ ech[start:k]
            _mod(old, q)

    gens = np.zeros((len(ids), d, d))
    for g, op in zip(gens, (oc.build_coupling(cid, n) for cid in ids)):
        a = np.where(op.coeff < 0, q - sqrt_r[op.radicand], sqrt_r[op.radicand])
        ia = _mod(i_q * a, q)
        g[op.pj, op.pk] = np.where(op.kind == 0, ia, a)
        g[op.pk, op.pj] = np.where(op.kind == 0, ia, q - a)
    offer(gens)
    history.append((0, k))

    k0 = k
    j = 1
    while j < k < target:
        bj, partners = words[j], words[:min(j, k0)]
        offer(_mod(partners @ bj - bj @ partners, q))
        history.append((len(partners), k))
        j += 1

    report = ClosureReport(dimension=k, target=target, certified=k == target,
                           basis_rank_history=history, q=q, n=n, labels=list(ids))
    return report, words[:k]


def certify_modal(n: int, family: str = "full") -> ClosureReport:
    """Rank certificate for a named ion family (``operator_core.FAMILIES``)
    on the 4n-truncation.

    Certified means the closure reaches dim su(4n) = 16n^2 - 1.  Requires
    n >= 3.  An ad-hoc generator list goes to ``lie_closure`` directly.
    """
    if n < 3:
        raise ValueError("modal certification requires n >= 3")
    return lie_closure(oc.family_ids(family), n)[0]


def certify_law_eberly(n: int, star: str) -> ClosureReport:
    """Rank certificate for the single-ion family {V, W, V*, W*} on 2n levels."""
    if n < 2:
        raise ValueError("Law-Eberly certification requires n >= 2")
    if star not in ("r", "b"):
        raise ValueError("star must be 'r' or 'b'")
    return lie_closure(("V", "W", f"V{star}", f"W{star}"), n)[0]
