import json
from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from sideband_steer import operator_core as oc
from sideband_steer import spectral_decoupling as sd

SIDEBANDS = [i for i in oc.ION_IDS if oc.is_sideband(i)]


# ---------------------------------------------------------------------------
# exact resonance arithmetic
# ---------------------------------------------------------------------------


def _brute_resonant(h, k, qmax=1000):
    """Is sqrt(h)/sqrt(k) rational?  Search p/q with q <= qmax."""
    for q in range(1, qmax + 1):
        num = h * q * q
        if num % k:
            continue
        p = isqrt(num // k)
        if p * p * k == num:
            return True
    return False


def test_kernel_resonance_vs_brute_force():
    for h in range(1, 51):
        for k in range(1, 51):
            exact = sd.squarefree_decompose(h)[1] == sd.squarefree_decompose(k)[1]
            square = isqrt(h * k) ** 2 == h * k
            assert exact == square
            assert exact == _brute_resonant(h, k)


@given(st.integers(1, 100_000))
def test_squarefree_decomposition(r):
    c, k = sd.squarefree_decompose(r)
    assert c * c * k == r
    # k square-free: no prime square divides it
    d = 2
    while d * d <= k:
        assert k % (d * d) != 0
        d += 1


# ---------------------------------------------------------------------------
# resonance partition
# ---------------------------------------------------------------------------


def _oracle_partition(m):
    """Independent grouping: classes of 0..m-2 by square-free kernel."""
    groups = {}
    for r in range(1, m - 1):
        rr, k = r, 1
        d = 2
        while d * d <= rr:
            while rr % (d * d) == 0:
                rr //= d * d
            if rr % d == 0:
                k *= d
                rr //= d
            d += 1
        k *= rr
        groups.setdefault(k, []).append(r)
    return groups


@pytest.mark.parametrize("m", range(2, 30))
def test_partition_against_oracle(m):
    part = sd.resonance_partition(m)
    oracle = _oracle_partition(m)
    assert part.count == len(oracle) + 1
    assert part.classes[0] == sd.ResonanceClass(0, (0,))
    for cls in part.classes[1:]:
        assert list(cls.radicands) == oracle[cls.kernel]
        for r in cls.radicands:
            # r = c^2 * kernel with an integer c >= 1
            c = isqrt(r // cls.kernel)
            assert c >= 1 and c * c * cls.kernel == r


def test_partition_examples():
    p4 = sd.resonance_partition(4)
    assert p4.count == 3
    p10 = sd.resonance_partition(10)
    assert p10.count == 7
    kernels = [c.kernel for c in p10.classes[1:]]
    assert kernels == [1, 2, 3, 5, 6, 7]
    # the kernel-2 class holds sqrt(2) and sqrt(8) = 2*sqrt(2)
    assert p10.classes[2].radicands == (2, 8)


def test_partition_rejects_small_m():
    with pytest.raises(ValueError):
        sd.resonance_partition(1)


def test_partition_json_schema():
    payload = sd.resonance_partition(10).to_json()
    blob = json.loads(json.dumps(payload))
    assert blob["m"] == 10 and blob["count"] == 7
    member = blob["classes"][1]["members"][0]
    assert member == {"coeff": [1, 1], "kernel": 1}
    assert blob["classes"][1]["nu"] == {"coeff": [1, 1], "kernel": 1}


def test_decoupling_order_hypothesis():
    # m-1 square-free <=> hypothesis; primes p give m = p+1 valid
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        assert sd.decoupling_order_ok(p + 1)
    assert not sd.decoupling_order_ok(5)   # omega_5 = 2 resonates with 1
    assert not sd.decoupling_order_ok(9)   # omega_9 = sqrt(8) with sqrt(2)
    assert not sd.decoupling_order_ok(1)


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------


def _eigh_projector(cid, dim, moduli):
    """Dense-eigensolve oracle: projector onto eigenspaces with the given moduli."""
    u = helpers.dense(oc.build_coupling(cid, dim // 4))
    w, v = np.linalg.eigh(1j * u)
    cols = [v[:, i] for i in range(dim)
            if any(abs(abs(w[i]) - m) < 1e-8 for m in moduli)]
    if not cols:
        return np.zeros((dim, dim), dtype=complex)
    b = np.stack(cols, axis=1)
    return b @ b.conj().T


@pytest.mark.parametrize("cid", ["V1r", "W2b"])
@pytest.mark.parametrize("m", [3, 4, 8, 12])
def test_projector_axioms_and_oracle(cid, m):
    dim = 4 * (m + 1)
    part = sd.resonance_partition(m)
    total = np.zeros((dim, dim), dtype=complex)
    for j, cls in enumerate(part.classes, start=1):
        pi = helpers.class_projector(cid, part, j, dim)
        assert np.max(np.abs(pi @ pi - pi)) < 1e-12
        assert np.max(np.abs(pi - pi.conj().T)) < 1e-12
        total += pi
        moduli = [np.sqrt(r) for r in cls.radicands]
        oracle = _eigh_projector(cid, dim, moduli)
        assert np.max(np.abs(pi - oracle)) < 1e-10
    # completeness: classes + dec + rest recompose the identity
    dec = helpers.decompose(oc.build_coupling(cid, dim // 4), m)
    total += dec.projectors[-1]
    rest = np.eye(dim) - total
    assert np.max(np.abs(rest @ rest - rest)) < 1e-12


def test_zero_class_projector_is_truncated_kernel():
    part = sd.resonance_partition(2)
    pi = helpers.class_projector("V1r", part, 1, 8)
    # V1r at dim 8 pairs (2,5),(4,7); kernel coordinates are 1,3,6,8
    assert np.allclose(np.diag(pi).real, [1, 0, 1, 0, 0, 1, 0, 1])


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cid", SIDEBANDS)
@pytest.mark.parametrize("m", [3, 6, 12])
def test_decomposition_invariants(cid, m):
    n = 13
    op = oc.build_coupling(cid, n)
    dec = helpers.decompose(op, m)
    terms = dec.parts + [dec.u_dec, dec.u_rho]
    recon = sum(terms)
    assert np.max(np.abs(recon - helpers.dense(op))) < 1e-12
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            if i != j:
                assert np.max(np.abs(a @ b)) < 1e-12
    # image containments: Pi_j U_j = U_j, Pi_dec U_dec = U_dec
    for pi, uj in zip(dec.projectors, dec.parts + [dec.u_dec]):
        assert np.max(np.abs(pi @ uj - uj)) < 1e-12


def test_decomposition_dec_spectrum():
    op = oc.build_coupling("V1r", 6)
    dec = helpers.decompose(op, 4)
    ev = np.linalg.eigvals(dec.u_dec)
    nonzero = np.abs(ev[np.abs(ev) > 1e-9])
    assert len(nonzero) > 0
    assert np.allclose(nonzero, np.sqrt(3), atol=1e-10)


# ---------------------------------------------------------------------------
# decoupled generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cid", SIDEBANDS)
@pytest.mark.parametrize("n", [3, 5, 8])
def test_telescoping(cid, n):
    part = sd.resonance_partition(n + 1)
    tot = sum(helpers.dense(sd.build_decoupled_generator(cid, j, n))
              for j in range(1, part.count + 1))
    assert np.max(np.abs(tot - helpers.dense(oc.build_coupling(cid, n)))) < 1e-12


def test_zero_class_generator_is_zero():
    g = sd.build_decoupled_generator("V1r", 1, 5)
    assert len(g.pj) == 0
    assert np.max(np.abs(helpers.dense(g))) == 0


def test_class_generators_moduli_at_n3():
    # m = 4, classes {0}, {1}, {sqrt2}: moduli {}, {1}, {sqrt2}
    expected = [[], [1.0], [np.sqrt(2)]]
    for j, want in zip((1, 2, 3), expected):
        g = sd.build_decoupled_generator("W1b", j, 3)
        ev = np.linalg.eigvals(helpers.dense(g))
        got = sorted(set(np.round(np.abs(ev[np.abs(ev) > 1e-10]), 10)))
        assert got == pytest.approx(want)


def test_decoupled_generator_skew_and_contained():
    g = sd.build_decoupled_generator("V2r", 3, 6)
    m = helpers.dense(g)
    assert np.max(np.abs(m + m.conj().T)) < 1e-12
    assert m.shape == (24, 24)


# ---------------------------------------------------------------------------
# eigenvector containment (spectral localization at the truncation)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cid", ["V1r", "V1b", "W2r", "W2b"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_eigenvector_localization(cid, n):
    # the truncation of the big surrogate adds spurious kernel vectors at
    # its own boundary, so the containment claim is checked on nonzero
    # moduli; the genuine kernel of the untruncated operator is the two
    # never-paired coordinates, which sit in the lowest phonon block
    big = helpers.dense(oc.build_coupling(cid, n + 3))
    w, v = np.linalg.eigh(1j * big)
    inside = (np.abs(w) < np.sqrt(n) - 1e-9) & (np.abs(w) > 1e-9)
    outside = np.abs(w) > np.sqrt(n) + 1e-9
    span = 4 * n
    for i in np.flatnonzero(inside):
        assert np.linalg.norm(v[span:, i]) < 1e-10
    for i in np.flatnonzero(outside):
        assert np.linalg.norm(v[:span, i]) < 1e-10
    op = oc.build_coupling(cid, n + 3)
    paired = set(op.pj) | set(op.pk)
    genuine_kernel = [j for j in range(8) if j not in paired]
    assert len(genuine_kernel) == 2 and max(genuine_kernel) < 4
