import itertools

import numpy as np
import pytest

import helpers
from sideband_steer import lie_certifier as lc
from sideband_steer import operator_core as oc
from sideband_steer import spectral_decoupling as sd


def project_residual(mat, basis):
    v = np.concatenate([mat.real.ravel(), mat.imag.ravel()])
    v = v / np.linalg.norm(v)
    for b in basis:
        bv = np.concatenate([b.real.ravel(), b.imag.ravel()])
        v = v - np.dot(bv, v) * bv
    return np.linalg.norm(v)


def dense_family(ids, n):
    return [helpers.dense(oc.build_coupling(cid, n)) for cid in ids]


# ---------------------------------------------------------------------------
# basic closures
# ---------------------------------------------------------------------------


def test_single_generator_is_abelian():
    rep, _ = lc.lie_closure(["V1"], 2)
    assert rep.dimension == 1


def test_law_eberly_n1_pair_generates_su2():
    rep, _ = lc.lie_closure(["V", "W"], 1)
    assert rep.dimension == 3 == rep.target


def test_two_carriers_stay_small():
    # an undersized ad-hoc family: the closure reports its truncation and fails
    rep, _ = lc.lie_closure(["V1", "W1"], 3)
    assert rep.dimension == 3
    assert not rep.certified
    assert rep.n == 3 and rep.labels == ["V1", "W1"]


def test_family_validation():
    with pytest.raises(ValueError):
        lc.lie_closure([], 3)
    with pytest.raises(ValueError):
        lc.lie_closure(["V1", "V"], 2)  # 8 and 4 levels


# ---------------------------------------------------------------------------
# the prime field and its exactness bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 7, 22])
def test_field_has_the_square_roots(n):
    d = 4 * n
    q, i_q, sqrt_r = lc._field(d, n)
    assert sd.is_prime(q) and q > 2**20 and q % 4 == 1
    assert d * d * (q - 1) ** 2 < 2**53
    assert i_q * i_q % q == q - 1
    assert [int(x) ** 2 % q for x in sqrt_r] == list(range(n + 1))


@pytest.mark.parametrize("q", [lc._field(12, 3)[0], lc._field(80, 40)[0]])
def test_mod_is_exact_up_to_the_limit(q):
    lim = 2**53 - q
    k = lim // q
    edges = [lim, -lim, k * q - 1, -(k * q + 1), k * q, -k * q, q - 1, -1, 0]
    rand = np.random.default_rng(3).integers(-lim, lim, size=100_000, endpoint=True)
    x = np.concatenate([edges, rand])
    assert np.array_equal(lc._mod(x.astype(np.float64), q), x % q)


@pytest.mark.parametrize("n, ids", [(23, oc.ION_IDS), (40, oc.ION_IDS),
                                    (42, ("V", "W", "Vr", "Wr"))])
def test_inexact_dimensions_are_refused(n, ids):
    # d = 92 and 160 exceed every q > 2^20; at d = 84 the primes up to 42
    # need a q past the bound
    with pytest.raises(ValueError, match="exact certificate"):
        lc.lie_closure(ids, n)


# ---------------------------------------------------------------------------
# Law-Eberly certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("star", ["r", "b"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_law_eberly_full_rank(n, star):
    rep = lc.certify_law_eberly(n, star)
    assert rep.dimension == 4 * n * n - 1
    assert rep.certified


@pytest.mark.parametrize("star", ["r", "b"])
def test_law_eberly_n2_is_symplectic(star):
    # at two phonon levels the family preserves an antisymmetric bilinear
    # form, so its closure is sp(2) (dimension 10), not su(4); see the
    # exact-arithmetic check below
    rep = lc.certify_law_eberly(2, star)
    assert rep.dimension == 10
    assert not rep.certified


def test_law_eberly_n2_invariant_form():
    mats = [helpers.dense(oc.build_coupling(i, 2)) for i in ("V", "W", "Vr", "Wr")]
    d = 4
    rows = [np.kron(np.eye(d), x.T) + np.kron(x.T, np.eye(d)) for x in mats]
    sym = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            sym[i * d + j, i * d + j] += 1
            sym[i * d + j, j * d + i] += 1
    system = np.vstack(rows + [sym])
    sv = np.linalg.svd(system, compute_uv=False)
    assert int(np.sum(sv < 1e-10)) == 1  # a unique invariant antisymmetric form


# the form J(phi_j, phi_k) pairs level j with level 5 - j; antisymmetric,
# with det J = Pf(J)^2 = 1
_J2 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])


def _int_det(a):
    """Exact integer determinant by the Leibniz expansion."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= int(a[i][j])
        total += term
    return total


@pytest.mark.parametrize("star", ["r", "b"])
def test_law_eberly_n2_closure_is_exactly_sp2(star):
    # upper bound: every generator M satisfies M^T J + J M = 0 for one
    # nondegenerate integer antisymmetric J, so the closure lies in the
    # symplectic algebra of J, of complex dimension 10.  Lower bound: the
    # exact certificate finds 10 words independent mod q, so independent
    # over C.  Together: the closure is sp(2), of dimension exactly 10.
    assert np.array_equal(_J2.T, -_J2) and _int_det(_J2) == 1
    for cid in ("V", "W", f"V{star}", f"W{star}"):
        m = helpers.dense(oc.build_coupling(cid, 2))
        parts = m.real.astype(np.int64), m.imag.astype(np.int64)
        assert np.array_equal(parts[0] + 1j * parts[1], m)  # entries in {0, +-1, +-i}
        for part in parts:
            assert not np.any(part.T @ _J2 + _J2 @ part)
    assert lc.certify_law_eberly(2, star).dimension == 10


def test_law_eberly_rejects_small_n():
    with pytest.raises(ValueError):
        lc.certify_law_eberly(1, "r")
    with pytest.raises(ValueError):
        lc.certify_law_eberly(3, "x")


# ---------------------------------------------------------------------------
# ion certificates
# ---------------------------------------------------------------------------


def test_modal_full_family_n3():
    rep = lc.certify_modal(3, "full")
    assert rep.dimension == 143 == rep.target
    assert rep.certified


@pytest.mark.parametrize("family", ["red-only", "blue-only"])
def test_modal_subfamilies_n3(family):
    rep = lc.certify_modal(3, family)
    assert rep.dimension == 143
    assert rep.certified


def test_modal_rejections():
    with pytest.raises(ValueError):
        lc.certify_modal(2, "full")
    with pytest.raises(ValueError):
        lc.certify_modal(3, "purple-only")


def test_report_json():
    rep = lc.certify_modal(3, "red-only")
    blob = rep.to_json()
    assert blob["dimension"] == 143 and blob["certified"]
    assert blob["family"] == list(oc.family_ids("red-only"))
    assert blob["n"] == 3


def test_closure_is_closed_under_brackets():
    # su(6), then two proper subalgebras, where closure under every bracket
    # is not automatic: sp(2) inside su(4), and the carriers of one ion.
    # Exact: the bracket of every accepted word with every generator lies in
    # the span of the accepted words mod q
    for ids, n, dim in ((("V", "W", "Vr", "Wr"), 3, 35),
                        (("V", "W", "Vr", "Wr"), 2, 10),
                        (("V1", "W1"), 3, 3)):
        rep, words = lc.lie_closure(ids, n)
        assert rep.dimension == dim
        words = words.astype(np.int64)
        gens = words[:rep.basis_rank_history[0][1]]
        brackets = [(g @ w - w @ g) % rep.q for g in gens for w in words]
        assert helpers.rank_mod(words.reshape(dim, -1), rep.q) == dim
        rows = np.concatenate([words, brackets]).reshape(-1, words[0].size)
        assert helpers.rank_mod(rows, rep.q) == dim


def test_rank_history_monotone():
    rep = lc.certify_modal(3, "full")
    ranks = [r for _, r in rep.basis_rank_history]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))
    assert ranks[-1] == 143


def test_modal_full_family_n5():
    rep = lc.certify_modal(5, "full")
    assert rep.dimension == 399 == rep.target
    assert rep.certified
    ranks = [r for _, r in rep.basis_rank_history]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))


# ---------------------------------------------------------------------------
# oracle: the exact closure against a float per-vector loop
# ---------------------------------------------------------------------------


def closure_oracle(members, tol=1e-9):
    """Per-vector modified Gram-Schmidt, run twice, one basis vector at a time.

    Same bracket schedule and early stop as the closure: round j brackets
    element j with the first min(j, k0) elements, where the first k0 span
    the generators.  A candidate is accepted when its relative residual
    exceeds ``tol``.  Also returns the residual of every accepted and every
    rejected candidate.
    """
    d = len(members[0])
    target = d * d - 1
    mats, vecs, history, accepted, rejected = [], [], [], [], []

    def try_add(m):
        nrm = np.linalg.norm(m)
        if nrm < 1e-13:
            return
        v = np.concatenate([(m / nrm).real.ravel(), (m / nrm).imag.ravel()])
        for _ in range(2):
            for b in vecs:
                v = v - np.dot(b, v) * b
        rn = np.linalg.norm(v)
        if rn <= tol:
            rejected.append(rn)
            return
        accepted.append(rn)
        v = v / rn
        vecs.append(v)
        mats.append((v[:d * d] + 1j * v[d * d:]).reshape(d, d))

    for g in members:
        try_add(g)
    history.append((0, len(mats)))
    k0 = len(mats)
    j = 1
    while j < len(mats) and len(mats) < target:
        for i in range(min(j, k0)):
            if len(mats) >= target:
                break
            try_add(mats[i] @ mats[j] - mats[j] @ mats[i])
        history.append((min(j, k0), len(mats)))
        j += 1
    return history, mats, accepted, rejected


def _oracle_family(name):
    kind, _, arg = name.partition(":")
    if kind == "modal":
        return oc.family_ids(arg), 3
    assert kind == "law-eberly"
    n, star = int(arg[:-1]), arg[-1]
    return ("V", "W", f"V{star}", f"W{star}"), n


# the expected dimension of each oracle family, written out so that the
# closure and its oracle cannot drift together
_ORACLE_DIMS = {
    "modal:full": 143, "modal:red-only": 143, "modal:blue-only": 143,
    **{f"law-eberly:{n}{star}": dim for n, dim in ((2, 10), (3, 35), (4, 63), (5, 99))
       for star in "rb"}}


@pytest.mark.parametrize("name", list(_ORACLE_DIMS))
def test_closure_matches_per_vector_oracle(name):
    ids, n = _oracle_family(name)
    rep, _ = lc.lie_closure(ids, n)
    history, mats, accepted, rejected = closure_oracle(dense_family(ids, n))
    assert rep.dimension == _ORACLE_DIMS[name]
    assert rep.dimension == len(mats)
    assert rep.basis_rank_history == history
    # every float decision of the oracle has a wide margin on both sides of tol
    assert min(accepted) > 1e-3
    assert max(rejected, default=0.0) < 1e-12


# ---------------------------------------------------------------------------
# appendix structure probes: the closure at n=3 contains the block shapes
# used in the rank argument
# ---------------------------------------------------------------------------


def _random_su(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = 0.5 * (z - z.conj().T)
    return a - (np.trace(a) / n) * np.eye(n)


def test_appendix_block_shapes_in_closure():
    n = 3
    rng = np.random.default_rng(9)
    rep, _ = lc.lie_closure(oc.ION_IDS, n)
    assert rep.certified
    _, basis, _, _ = closure_oracle(dense_family(oc.ION_IDS, n))
    p = helpers.permutation_matrix(n)
    z = np.zeros((n, n), dtype=complex)
    for _ in range(5):
        blocks = [_random_su(n, rng) for _ in range(4)]
        diag = np.block([[blocks[0], z, z, z], [z, blocks[1], z, z],
                         [z, z, blocks[2], z], [z, z, z, blocks[3]]])
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        offdiag = np.block([[z, a, z, z], [-a.conj().T, z, z, z],
                            [z, z, z, b], [z, z, -b.conj().T, z]])
        for probe in (diag, offdiag):
            fock = p.T @ probe @ p  # back to phonon-major coordinates
            assert project_residual(fock, basis) < 1e-9
