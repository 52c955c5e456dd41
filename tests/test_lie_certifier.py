import numpy as np
import pytest

import helpers
from sideband_steer import lie_certifier as lc
from sideband_steer import operator_core as oc


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def project_residual(mat, basis):
    v = np.concatenate([mat.real.ravel(), mat.imag.ravel()])
    v = v / np.linalg.norm(v)
    for b in basis:
        bv = np.concatenate([b.real.ravel(), b.imag.ravel()])
        v = v - np.dot(bv, v) * bv
    return np.linalg.norm(v)


# ---------------------------------------------------------------------------
# basic closures
# ---------------------------------------------------------------------------


def test_single_generator_is_abelian():
    fam = lc.GeneratorFamily.from_couplings(["V1"], 2)
    assert lc.lie_closure(fam).dimension == 1


def test_law_eberly_n1_pair_generates_su2():
    fam = lc.GeneratorFamily.from_couplings(["V", "W"], 1)
    rep = lc.lie_closure(fam)
    assert rep.dimension == 3 == rep.target


def test_two_carriers_stay_small():
    fam = lc.GeneratorFamily.from_couplings(["V1", "W1"], 3)
    rep = lc.lie_closure(fam)
    assert rep.dimension == 3
    assert not rep.certified


def test_family_validation():
    with pytest.raises(ValueError):
        lc.GeneratorFamily([], [])
    with pytest.raises(ValueError):
        lc.GeneratorFamily([np.eye(2)], ["H"])  # Hermitian, not skew
    with pytest.raises(ValueError):
        lc.lie_closure(lc.GeneratorFamily.from_couplings(["V1"], 2), tol=0.5)


def test_trace_subtraction_recorded():
    m = 1j * np.eye(3)
    fam = lc.GeneratorFamily([m], ["i*id"])
    # the trace 3i is removed as (3i / 3) * identity, which leaves zero
    assert np.array_equal(fam.members[0], m - (3j / 3) * np.eye(3))
    assert abs(np.trace(fam.members[0])) < 1e-14
    assert lc.lie_closure(fam).dimension == 0


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
    mats = [oc.build_coupling(i, 2).matrix for i in ("V", "W", "Vr", "Wr")]
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


def test_modal_undersized_family_warns_and_fails():
    with pytest.warns(UserWarning):
        rep = lc.certify_modal(3, ["V1", "W1"])
    assert rep.dimension == 3
    assert not rep.certified


def test_modal_rejections():
    with pytest.raises(ValueError):
        lc.certify_modal(2, "full")
    with pytest.raises(ValueError):
        lc.certify_modal(3, ["V", "W"])  # not ion generators
    with pytest.raises(ValueError):
        lc.certify_modal(3, "purple-only")


def test_report_json():
    rep = lc.certify_modal(3, "red-only")
    blob = rep.to_json()
    assert blob["dimension"] == 143 and blob["certified"]
    assert blob["family"] == list(oc.family_ids("red-only"))
    assert blob["n"] == 3


# ---------------------------------------------------------------------------
# stability properties
# ---------------------------------------------------------------------------


def test_closure_invariant_under_conjugation():
    rng = np.random.default_rng(5)
    base = lc.GeneratorFamily.from_couplings(["V", "W", "Vr", "Wr"], 3)
    ref = lc.lie_closure(base).dimension
    for _ in range(10):
        u = haar_unitary(6, rng)
        fam = lc.GeneratorFamily([u @ m @ u.conj().T for m in base.members],
                                 list(base.labels))
        assert lc.lie_closure(fam).dimension == ref


def test_closure_invariant_under_rescaling():
    rng = np.random.default_rng(6)
    ids = ["V1", "W1", "V1r", "W1r"]
    base = lc.GeneratorFamily.from_couplings(ids, 3)
    ref = lc.lie_closure(base).dimension
    scales = rng.uniform(0.1, 10, len(ids))
    fam = lc.GeneratorFamily([s * m for s, m in zip(scales, base.members)], ids)
    assert lc.lie_closure(fam).dimension == ref


def test_closure_is_closed_under_brackets():
    # su(6), then two proper subalgebras, where closure under every bracket
    # is not automatic: sp(2) inside su(4), and the carriers of one ion
    for ids, n, dim in ((("V", "W", "Vr", "Wr"), 3, 35),
                        (("V", "W", "Vr", "Wr"), 2, 10),
                        (("V1", "W1"), 3, 3)):
        fam = lc.GeneratorFamily.from_couplings(ids, n)
        rep, basis = lc.closure_basis(fam)
        assert rep.dimension == dim
        tol = rep.tolerance
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                c = basis[i] @ basis[j] - basis[j] @ basis[i]
                if np.linalg.norm(c) < 1e-12:
                    continue
                assert project_residual(c, basis) < 10 * tol


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
# oracle: the closure against the per-vector loop it replaced
# ---------------------------------------------------------------------------


def closure_oracle(family, tol=lc.DEFAULT_TOL):
    """Per-vector modified Gram-Schmidt, run twice, one basis vector at a time.

    Same bracket schedule, acceptance rule and early stop as the closure:
    round j brackets element j with the first min(j, k0) elements, where the
    first k0 span the generators.  Also returns the residual of every accepted and every
    rejected candidate.
    """
    d = family.dim
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

    for g in family.members:
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
        return lc.GeneratorFamily.from_couplings(lc.resolve_family(arg), 3)
    if kind == "law-eberly":
        n, star = int(arg[:-1]), arg[-1]
        return lc.GeneratorFamily.from_couplings(("V", "W", f"V{star}", f"W{star}"), n)
    if kind == "haar":
        base = lc.GeneratorFamily.from_couplings(["V", "W", "Vr", "Wr"], 3)
        u = haar_unitary(6, np.random.default_rng(5))
        return lc.GeneratorFamily([u @ m @ u.conj().T for m in base.members],
                                  list(base.labels))
    assert kind == "rescaled"
    ids = ["V1", "W1", "V1r", "W1r"]
    base = lc.GeneratorFamily.from_couplings(ids, 3)
    scales = np.random.default_rng(6).uniform(0.1, 10, len(ids))
    return lc.GeneratorFamily([s * m for s, m in zip(scales, base.members)], ids)


# the expected dimension of each oracle family, written out so that the
# closure and its oracle cannot drift together
_ORACLE_DIMS = {
    "modal:full": 143, "modal:red-only": 143, "modal:blue-only": 143,
    **{f"law-eberly:{n}{star}": dim for n, dim in ((2, 10), (3, 35), (4, 63), (5, 99))
       for star in "rb"},
    "haar": 35, "rescaled": 35}


@pytest.mark.parametrize("name", list(_ORACLE_DIMS))
def test_closure_matches_per_vector_oracle(name):
    fam = _oracle_family(name)
    rep, basis = lc.closure_basis(fam)
    history, mats, accepted, rejected = closure_oracle(fam)
    assert rep.dimension == _ORACLE_DIMS[name]
    assert rep.dimension == len(mats)
    assert rep.basis_rank_history == history
    assert max(np.max(np.abs(a - b)) for a, b in zip(basis, mats)) < 1e-10
    # every decision has a wide margin on both sides of tol = 1e-9
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
    fam = lc.GeneratorFamily.from_couplings(oc.ION_IDS, n)
    rep, basis = lc.closure_basis(fam)
    assert rep.certified
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
