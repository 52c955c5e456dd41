import numpy as np
import pytest
from scipy.linalg import expm

import helpers
from sideband_steer import _kernels
from sideband_steer import lift_simulator as ls
from sideband_steer import modal_planner as mp
from sideband_steer import operator_core as oc
from sideband_steer.errors import TruncationOverflowError


def frob(m):
    return np.linalg.norm(m)


# ---------------------------------------------------------------------------
# basis indexing
# ---------------------------------------------------------------------------


def test_basis_offsets():
    # j = 4*phonon + offset, with offsets 1..4 for gg, eg, ge, ee
    assert [helpers.basis_split(j) for j in (1, 2, 3, 4, 9)] == \
        [("gg", 0), ("eg", 0), ("ge", 0), ("ee", 0), ("gg", 2)]


# ---------------------------------------------------------------------------
# coupling construction
# ---------------------------------------------------------------------------


def test_v1_n1_by_hand():
    m = helpers.dense(oc.build_coupling("V1", 1))
    ref = np.zeros((4, 4), dtype=complex)
    ref[0, 1] = ref[1, 0] = ref[2, 3] = ref[3, 2] = -1j
    assert np.array_equal(m, ref)


def test_v1r_n1_truncates_to_zero():
    op = oc.build_coupling("V1r", 1)
    assert len(op.pj) == 0
    assert np.array_equal(helpers.dense(op), np.zeros((4, 4)))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_sideband_truncation_spectrum(n):
    # spectrum is exactly {0} u {+-i sqrt(j) : j=1..n-1}: two pairs per
    # phonon level give multiplicity 2 for each +-i sqrt(j), and the four
    # truncation-boundary coordinates fill the kernel
    ev = np.linalg.eigvals(helpers.dense(oc.build_coupling("V1r", n)))
    assert np.max(np.abs(ev.real)) < 1e-10
    expected = [0.0] * 4
    for j in range(1, n):
        expected += [np.sqrt(j)] * 2 + [-np.sqrt(j)] * 2
    assert np.max(np.abs(np.sort(ev.imag) - np.sort(expected))) < 1e-10


@pytest.mark.parametrize("cid", oc.ION_IDS + oc.LAW_EBERLY_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_skew_hermitian_and_disjoint(cid, n):
    op = oc.build_coupling(cid, n)
    m = helpers.dense(op)
    assert frob(m + m.conj().T) < 1e-12
    idx = np.concatenate([op.pj, op.pk]).tolist()
    assert len(set(idx)) == len(idx)


def test_sideband_pairs_link_adjacent_phonons():
    op = oc.build_coupling("V2b", 4)
    for j, k, c in zip(op.pj.tolist(), op.pk.tolist(), op.coeff):
        _, pj = helpers.basis_split(j + 1)
        _, pk = helpers.basis_split(k + 1)
        assert abs(pj - pk) == 1
        assert abs(abs(c) - np.sqrt(min(pj, pk) + 1)) < 1e-15


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        oc.build_coupling("V3", 2)
    with pytest.raises(ValueError):
        oc.is_carrier("X9")


# ---------------------------------------------------------------------------
# D matrix
# ---------------------------------------------------------------------------


def test_build_d_examples():
    assert np.array_equal(helpers.build_D(1), np.zeros((1, 1)))
    d3 = helpers.build_D(3)
    assert np.allclose(np.diag(d3, k=1), [1.0, np.sqrt(2)])
    assert d3[np.tril_indices(3)].sum() == 0
    assert abs(frob(helpers.build_D(5)) - np.sqrt(10)) < 1e-14


# ---------------------------------------------------------------------------
# permutation and closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cid", oc.ION_IDS)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_permuted_matches_block_pattern(cid, n):
    ref = helpers.block_pattern_matrix(cid, n)
    p = helpers.permutation_matrix(n)
    got = p @ helpers.dense(oc.build_coupling(cid, n)) @ p.T
    assert np.max(np.abs(got - ref)) < 1e-12


def test_permutation_is_identity_at_n1():
    p = helpers.permutation_matrix(1)
    assert np.array_equal(p, np.eye(4))
    m = helpers.dense(oc.build_coupling("V1", 1))
    assert np.array_equal(p @ m @ p.T, m)


# ---------------------------------------------------------------------------
# Law-Eberly closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4])
def test_law_eberly_block_forms(n):
    d = helpers.build_D(n)
    i_n = np.eye(n)
    z = np.zeros((n, n))
    ref = {
        "V": -1j * np.block([[z, i_n], [i_n, z]]),
        "W": np.block([[z, -i_n], [i_n, z]]),
        "Vb": -1j * np.block([[z, d], [d.T, z]]),
        "Wb": np.block([[z, -d], [d.T, z]]),
        "Vr": -1j * np.block([[z, d.T], [d, z]]),
        "Wr": np.block([[z, -d.T], [d, z]]),
    }
    for cid, mat in ref.items():
        assert np.max(np.abs(helpers.dense(oc.build_coupling(cid, n)) - mat)) < 1e-14


# ---------------------------------------------------------------------------
# segment flows
# ---------------------------------------------------------------------------


def test_segment_zero_duration():
    phi = oc.random_state(12, np.random.default_rng(0))
    out = helpers.segment_flow("V1r", 0.0, phi, 16)
    assert np.array_equal(out[:12], phi)
    assert np.array_equal(out[12:], np.zeros(4))


def test_segment_quarter_rotation():
    phi = helpers.basis_state(1, 4)
    out = helpers.segment_flow("V1", np.pi / 2, phi, 4)
    ref = -1j * helpers.basis_state(2, 4)
    assert np.max(np.abs(out - ref)) < 1e-15


def test_segment_norm_preserved(rng):
    for _ in range(100):
        cid = oc.ION_IDS[rng.integers(len(oc.ION_IDS))]
        dim = 4 * int(rng.integers(2, 8))
        phi = oc.random_state(dim - 4, rng)
        out = helpers.segment_flow(cid, rng.uniform(-1, 1) * rng.uniform(0, 5), phi, dim)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_segment_matches_expm(rng):
    for _ in range(30):
        cid = oc.ALL_IDS[rng.integers(len(oc.ALL_IDS))]
        n = int(rng.integers(2, 9))
        dim = 4 * n if oc.is_ion(cid) else 2 * n
        amp = rng.uniform(-1, 1)
        dur = rng.uniform(0, 4)
        phi = np.zeros(dim, dtype=complex)
        inner = max(dim - 4, 1)
        phi[:inner] = oc.random_state(inner, rng)
        dense = helpers.dense(oc.build_coupling(cid, n))
        ref = expm(dur * amp * dense) @ phi
        got = helpers.segment_flow(cid, dur * amp, phi, dim)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_program_states_equal_per_segment_rotations():
    # the rotation entries of the whole program, computed at once, give the
    # bits of one rotation per segment by its own angles
    rng = np.random.default_rng(22)
    dim = 16
    ops = [oc.truncate(cid, dim) for cid in ("V1", "W1r", "V2b", "W2")]
    ops.insert(2, oc.truncate("V1r", 4))  # no pair of V1r fits in 4 levels
    prog = oc.SegmentProgram.from_operators(ops).tile(3)
    assert 0 in np.diff(prog.ptr)
    thetas = rng.uniform(-3, 3, size=len(prog.ptr) - 1)
    thetas[6] = 0.0
    phi0 = oc.random_state(dim, rng)
    want = np.empty((len(thetas) + 1, dim), dtype=np.complex128)
    want[0] = phi0
    for k, theta in enumerate(thetas):
        a, b = prog.ptr[k], prog.ptr[k + 1]
        want[k + 1] = want[k]
        helpers.rotate(want[k + 1], prog.pj[a:b], prog.pk[a:b], theta * prog.coeff[a:b],
                       prog.kind[a:b])
    got = prog.states(phi0, thetas.tolist())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _segment_indices(prog, k):
    a, b = prog.ptr[k], prog.ptr[k + 1]
    return set(prog.pj[a:b].tolist()) | set(prog.pk[a:b].tolist())


def _run_schedules():
    return [pytest.param(p, mp.default_generator_ids(p, family), id=f"p{p}-{family}")
            for p in (3, 5, 7, 11) for family in oc.FAMILIES]


@pytest.mark.parametrize("cycles", [1, 3])
@pytest.mark.parametrize("p, gens", _run_schedules())
def test_runs_are_maximal_stretches_of_disjoint_segments(p, gens, cycles):
    # on a default schedule the coupling-and-class rule finds exactly the
    # maximal stretches of segments with pairwise disjoint pairs
    prog = mp._program(gens, p).tile(cycles)
    runs = mp.commuting_runs(gens * cycles).tolist()
    assert runs[0] == 0 and runs[-1] == len(prog.ptr) - 1
    assert all(a < b for a, b in zip(runs, runs[1:]))
    assert len(runs) - 1 < len(prog.ptr) - 1  # some run is longer than one segment
    before = None
    for a, b in zip(runs, runs[1:]):
        sets = [_segment_indices(prog, k) for k in range(a, b)]
        union = set().union(*sets)
        # pairwise disjoint within the run
        assert len(union) == sum(map(len, sets))
        # forced boundary: the run's first segment meets the run before it
        if before is not None:
            assert sets[0] & before
        before = union


@pytest.mark.parametrize("cycles", [1, 3])
def test_carrier_program_runs_have_length_one(cycles):
    # each carrier rotates every index, so it commutes with no other segment
    # and is a run of its own
    gens = [mp.GeneratorId("carrier", int(cid[1]), cid[0])
            for cid in ("V1", "W1", "V2", "W2", "V1", "V2")] * cycles
    prog = mp._program(gens, 3)
    assert all(_segment_indices(prog, k) == set(range(12)) for k in range(len(gens)))
    assert mp.commuting_runs(gens).tolist() == list(range(len(gens) + 1))


@pytest.mark.parametrize("kind", [0, 1], ids=["E", "F"])
def test_rotate_pairs_block_equals_per_column_calls(kind):
    # one kernel rotates the rows of a state or of a (dim, ncols) block alike
    rng = np.random.default_rng(kind)
    dim, ncols, npairs = 24, 5, 10
    perm = rng.permutation(dim)
    pj, pk = perm[:npairs], perm[npairs:2 * npairs]
    betas = rng.uniform(-7, 7, size=npairs)
    kinds = np.full(npairs, kind, dtype=np.uint8)
    block = rng.normal(size=(dim, ncols)) + 1j * rng.normal(size=(dim, ncols))
    cols = [block[:, c].copy() for c in range(ncols)]
    rot = _kernels._rotation(betas, kinds)
    _kernels.rotate_pairs(block, pj, pk, *rot)
    for col in cols:
        _kernels.rotate_pairs(col, pj, pk, *rot)
    assert np.array_equal(block.view(np.int64), np.stack(cols, axis=1).view(np.int64))


def test_carrier_block_invariance(rng):
    for cid in ("V1", "W1", "V2", "W2"):
        phi = np.zeros(16, dtype=complex)
        phi[4:8] = oc.random_state(4, rng)  # one 4-block
        out = helpers.segment_flow(cid, 0.9 * rng.uniform(0, 7), phi, 16)
        assert np.max(np.abs(out[:4])) == 0
        assert np.max(np.abs(out[8:])) == 0


def _one_segment(seg, dim_sim):
    return ls.LiftedPlan(p=2, eps=0.1, dim_sim=dim_sim, segments=[seg])


def test_truncation_overflow_raises():
    phi = helpers.basis_state(10, 12)  # eg phonon 2; V1r pair (10, 13) exits dim 12
    seg = ls.LiftedSegment("V1r", 1.0, 1.0, 0, s=0, t_hat=1.0, nu_kernel=1)
    with pytest.raises(TruncationOverflowError):
        ls.simulate_lifted(_one_segment(seg, 12), phi)
    states, _ = ls.simulate_lifted(_one_segment(seg, 16), phi)  # enlarged window works
    out = states[-1]
    assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_negative_duration_rejected():
    seg = ls.LiftedSegment("V1", 1.0, -0.1, 0)
    with pytest.raises(ValueError):
        ls.simulate_lifted(_one_segment(seg, 4), helpers.basis_state(1, 4))
