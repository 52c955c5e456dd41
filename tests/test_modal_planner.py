import json

import numpy as np
import pytest

import helpers
from sideband_steer import _kernels
from sideband_steer import modal_planner as mp
from sideband_steer import operator_core as oc


def random_plan(p, nseg, seed, family="full"):
    rng = np.random.default_rng(seed)
    gens = mp.default_generator_ids(p, family)
    segs = []
    for k in range(nseg):
        gid = gens[int(rng.integers(len(gens)))]
        angle = float(rng.uniform(-1.5, 1.5))
        while abs(angle) < 1e-3:
            angle = float(rng.uniform(-1.5, 1.5))
        segs.append(mp.PlanSegment(gid, amplitude=np.sign(angle),
                                   duration=abs(angle)))
    return mp.Plan(p=p, M=1.0, seed=seed, target_error=1e-3,
                   achieved_error=1.0, segments=segs)


# ---------------------------------------------------------------------------
# generator schedule
# ---------------------------------------------------------------------------


def test_generator_set_sizes():
    # p=3: 4 carriers + 8 sideband ids x 2 nonzero classes
    assert len(mp.default_generator_ids(3, "full")) == 20
    assert len(mp.default_generator_ids(3, "red-only")) == 12
    assert len(mp.default_generator_ids(3, "blue-only")) == 12
    with pytest.raises(ValueError):
        mp.default_generator_ids(3, "everything")


# angles on the first schedule: 1.5 per real degree of freedom, 2*4p - 1
@pytest.mark.parametrize("p,family,angles", [
    (3, "full", 40), (3, "red-only", 36), (3, "blue-only", 36),
    (5, "full", 84), (5, "red-only", 64), (5, "blue-only", 64),
    (7, "full", 88), (7, "red-only", 96), (7, "blue-only", 96),
])
def test_first_schedule_is_the_fewest_cycles_with_enough_angles(p, family, angles):
    ngens = len(mp.default_generator_ids(p, family))
    schedule = mp._cycle_schedule(ngens, 4 * p)
    cycles = schedule[0]
    need = 1.5 * (2 * 4 * p - 1)
    assert cycles * ngens == angles
    assert cycles >= 2 and cycles * ngens >= need
    assert cycles == 2 or (cycles - 1) * ngens < need
    # the restarts still grow the plan
    assert schedule[1] == cycles and schedule[2] > cycles


def test_generator_operators_nonzero():
    for gid in mp.default_generator_ids(3):
        op = mp.build_generator_operator(gid, 3)
        assert len(op.pj) > 0
        m = helpers.dense(op)
        assert np.max(np.abs(m + m.conj().T)) < 1e-12


def test_generator_id_validation():
    with pytest.raises(ValueError):
        mp.GeneratorId("carrier", 3, "V")
    with pytest.raises(ValueError):
        mp.GeneratorId("sideband", 1, "V")  # missing star/class
    gid = mp.GeneratorId("sideband", 2, "W", "b", 3)
    assert gid.coupling == "W2b"
    assert mp.GeneratorId.from_json(gid.to_json()) == gid


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def test_identical_states_give_empty_plan():
    phi = helpers.basis_state(3, 12)
    plan = mp.plan_transfer(phi, phi, 3, eps_plan=1e-3, seed=0)
    assert plan.segments == []
    assert plan.achieved_error == 0.0
    assert plan.success


def test_single_rotation_recovered_to_high_accuracy():
    phi0 = helpers.basis_state(1, 12)
    phiT = -1j * helpers.basis_state(2, 12)
    plan = mp.plan_transfer(phi0, phiT, 3, eps_plan=1e-9, seed=2)
    assert plan.success
    assert plan.achieved_error < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_pairs_within_tolerance(seed):
    rng = np.random.default_rng(100 + seed)
    phi0 = oc.random_state(12, rng)
    phiT = oc.random_state(12, rng)
    plan = mp.plan_transfer(phi0, phiT, 3, eps_plan=1e-3, seed=seed)
    assert plan.success
    final = mp.simulate_plan_modal(plan, np.pad(phi0, (0, 0)))[-1]
    err = np.linalg.norm(final - np.pad(phiT, (0, 0)))
    assert abs(err - plan.achieved_error) < 1e-12


@pytest.mark.parametrize("family", ["red-only", "blue-only"])
def test_restricted_family_still_plans(family):
    rng = np.random.default_rng(7)
    phi0 = oc.random_state(12, rng)
    phiT = oc.random_state(12, rng)
    plan = mp.plan_transfer(phi0, phiT, 3, eps_plan=1e-3, seed=11, family=family)
    assert plan.success
    stars = {seg.generator.star for seg in plan.segments
             if seg.generator.kind == "sideband"}
    assert stars <= ({"r"} if family == "red-only" else {"b"})


def test_plan_segment_structure():
    rng = np.random.default_rng(3)
    plan = mp.plan_transfer(oc.random_state(12, rng), oc.random_state(12, rng),
                            3, eps_plan=1e-3, seed=4, M=0.7)
    assert plan.segments, "nontrivial transfer needs segments"
    for seg in plan.segments:
        assert abs(seg.amplitude) == pytest.approx(0.7)
        assert seg.duration > 0


def test_budget_exhaustion_returns_best_effort():
    rng = np.random.default_rng(8)
    phi0, phiT = oc.random_state(12, rng), oc.random_state(12, rng)
    plan = mp.plan_transfer(phi0, phiT, 3, eps_plan=1e-12, seed=5, budget=3)
    assert not plan.success
    assert plan.achieved_error > 0


def test_rejects_bad_order():
    phi = helpers.basis_state(1, 12)
    with pytest.raises(ValueError):
        mp.plan_transfer(phi, phi, 4, eps_plan=1e-3, seed=0)  # not prime
    with pytest.raises(ValueError):
        mp.plan_transfer(phi, phi, 2, eps_plan=1e-3, seed=0)  # below 3


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_empty_plan():
    plan = mp.Plan(p=3, M=1.0, seed=0, target_error=1e-3, achieved_error=0.0)
    phi = helpers.basis_state(1, 12)
    traj = mp.simulate_plan_modal(plan, phi)
    assert len(traj) == 1
    assert np.array_equal(traj[0], phi)


def test_simulate_preserves_norm_and_reproduces():
    plan = random_plan(3, 25, seed=42)
    phi0 = oc.random_state(12, np.random.default_rng(0))
    t1 = mp.simulate_plan_modal(plan, phi0)
    t2 = mp.simulate_plan_modal(plan, phi0)
    assert len(t1) == 26
    for a, b in zip(t1, t2):
        assert np.array_equal(a, b)
    for state in t1:
        assert abs(np.linalg.norm(state) - 1) < 1e-12


def test_simulate_single_segment_closed_form():
    gid = mp.GeneratorId("carrier", 1, "V")
    plan = mp.Plan(p=3, M=1.0, seed=0, target_error=1, achieved_error=0,
                   segments=[mp.PlanSegment(gid, 1.0, np.pi / 2)])
    out = mp.simulate_plan_modal(plan, helpers.basis_state(1, 12))[-1]
    assert np.max(np.abs(out - (-1j) * helpers.basis_state(2, 12))) < 1e-12


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gradient_matches_finite_differences(seed):
    plan = random_plan(3, 10, seed)
    rng = np.random.default_rng(seed)
    phi0, phiT = oc.random_state(12, rng), oc.random_state(12, rng)
    assert helpers.gradient_check(plan, phi0, phiT) < 1e-5


def test_gradient_discrepancy_scales_quadratically():
    plan = random_plan(3, 8, seed=12)
    rng = np.random.default_rng(12)
    phi0, phiT = oc.random_state(12, rng), oc.random_state(12, rng)
    d1 = helpers.gradient_check(plan, phi0, phiT, step=2e-3)
    d2 = helpers.gradient_check(plan, phi0, phiT, step=1e-3)
    assert d1 / d2 == pytest.approx(4.0, rel=0.35)


def sparse_objective_grad(thetas, phi0, target, seg_ptr, pj, pk, pc, pkind, runs):
    """The objective as pair rotations, one segment at a time (the oracle);
    it takes the kernel's arguments and leaves ``runs`` unread."""
    nseg = len(thetas)
    states = np.empty((nseg + 1, phi0.shape[0]), dtype=np.complex128)
    states[0] = phi0
    for k in range(nseg):
        states[k + 1] = states[k]
        lo, hi = seg_ptr[k], seg_ptr[k + 1]
        helpers.rotate(states[k + 1], pj[lo:hi], pk[lo:hi], thetas[k] * pc[lo:hi],
                       pkind[lo:hi])
    mu = states[nseg] - target
    f = float(np.sum(mu.real**2 + mu.imag**2))
    grad = np.zeros(nseg, dtype=np.float64)
    for k in range(nseg - 1, -1, -1):
        lo, hi = seg_ptr[k], seg_ptr[k + 1]
        phi = states[k + 1]
        j, kk, c = pj[lo:hi], pk[lo:hi], pc[lo:hi]
        e = pkind[lo:hi] == 0
        sj = np.where(e, 1j * c, c) * phi[kk]
        sk = np.where(e, 1j * c, -c) * phi[j]
        grad[k] = 2.0 * float(np.sum((np.conj(mu[j]) * sj + np.conj(mu[kk]) * sk).real))
        helpers.rotate(mu, j, kk, -thetas[k] * c, pkind[lo:hi])
    return f, grad


def jacobian_column(thetas, states, k, seg_ptr, pj, pk, pc, pkind):
    """d phi_K / d theta_k by pair rotations (the oracle): S_k phi_{k+1},
    carried forward through the later segments."""
    lo, hi = seg_ptr[k], seg_ptr[k + 1]
    j, kk, c = pj[lo:hi], pk[lo:hi], pc[lo:hi]
    e = pkind[lo:hi] == 0
    col = np.zeros_like(states[k + 1])
    col[j] = np.where(e, 1j * c, c) * states[k + 1][kk]
    col[kk] = np.where(e, 1j * c, -c) * states[k + 1][j]
    for m in range(k + 1, len(thetas)):
        lo, hi = seg_ptr[m], seg_ptr[m + 1]
        helpers.rotate(col, pj[lo:hi], pk[lo:hi], thetas[m] * pc[lo:hi], pkind[lo:hi])
    return col


def _objective_programs():
    out = []
    for p in (3, 5, 7):
        for family in oc.FAMILIES:
            gens = mp.default_generator_ids(p, family)
            for cycles in (1, 3):
                out.append(pytest.param(p, gens, cycles, id=f"p{p}-{family}-x{cycles}"))
    out.append(pytest.param(11, mp.default_generator_ids(11), 1, id="p11-full-x1"))
    sideband = mp.default_generator_ids(5)[-1]
    out.append(pytest.param(5, [sideband], 1, id="p5-one-segment"))
    return out


@pytest.mark.parametrize("p, gens, cycles", _objective_programs())
def test_objective_matches_pair_rotation_oracle(p, gens, cycles):
    prog = mp._program(gens, p).tile(cycles)
    rng = np.random.default_rng([p, len(gens), cycles])
    for _ in range(3):
        phi0, phiT = oc.random_state(4 * p, rng), oc.random_state(4 * p, rng)
        thetas = rng.normal(0.0, 1.0, size=len(prog.ptr) - 1)
        args = (thetas, phi0, phiT, prog.ptr, prog.pj, prog.pk, prog.coeff, prog.kind,
                prog.runs)
        r, jac = _kernels.objective_grad(*args)
        f = float(np.sum(r.real**2 + r.imag**2))
        grad = 2.0 * (jac.conj().T @ r).real
        f_ref, grad_ref = sparse_objective_grad(*args)
        assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
        assert grad.shape == grad_ref.shape
        assert np.max(np.abs(grad - grad_ref)) <= 1e-12 * np.max(np.abs(grad_ref))
        # every column on one cycle, a sample of them on the tiled programs
        assert jac.shape == (4 * p, len(thetas))
        cols = range(len(thetas)) if cycles == 1 else rng.choice(len(thetas), 8, replace=False)
        states = prog.states(phi0, thetas)
        for k in cols:
            want = jacobian_column(thetas, states, k, *args[3:8])
            assert np.max(np.abs(jac[:, k] - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Levenberg-Marquardt
# ---------------------------------------------------------------------------


def test_minimize_solves_a_linear_least_squares_problem():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(20, 12))
    b = rng.normal(size=20)
    res = mp.minimize(lambda x: (a @ x - b, a), np.zeros(12), 200)
    x_ls = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.max(np.abs(res.x - x_ls)) < 1e-8
    assert res.fun == pytest.approx(float(np.sum((a @ x_ls - b) ** 2)), rel=1e-12)
    # damped Gauss-Newton, not steepest descent, which needs hundreds of steps
    assert res.nit <= 30


def rosenbrock(x):
    r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    jac = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
    return r, jac


def test_minimize_solves_rosenbrock():
    res = mp.minimize(rosenbrock, np.array([-1.2, 1.0]), 500)
    assert np.max(np.abs(res.x - 1.0)) < 1e-8
    r = rosenbrock(res.x)[0]
    assert res.fun == float(r @ r) < 1e-16
    assert 0 < res.nit <= 100


def test_minimize_honours_maxiter():
    x0 = np.array([-1.2, 1.0])
    r0 = rosenbrock(x0)[0]
    for maxiter in (1, 3):
        calls = []

        def fun(x):
            calls.append(x.copy())
            return rosenbrock(x)

        res = mp.minimize(fun, x0, maxiter)
        assert res.nit == maxiter and len(calls) == maxiter + 1
        r = rosenbrock(res.x)[0]
        assert res.fun == float(r @ r) <= float(r0 @ r0)


def test_minimize_stops_at_a_zero_residual_start():
    calls = []

    def fun(x):
        calls.append(x.copy())
        return x - 1.0, np.eye(len(x))

    x0 = np.ones(5)
    res = mp.minimize(fun, x0, 100)
    assert res.nit == 0 and len(calls) == 1
    assert res.fun == 0.0 and np.array_equal(res.x, x0)


def test_minimize_keeps_the_damped_matrix_nonsingular():
    # J = 0: no step can move x, and it stops without a singular solve
    res = mp.minimize(lambda x: (np.ones(3), np.zeros((3, 2))), np.zeros(2), 100)
    assert res.fun == 3.0 and np.array_equal(res.x, np.zeros(2))
    assert 0 < res.nit < 100

    # J J^T of rank 1 and twenty successful steps: undamped by its floor, lam
    # would fall below one ulp of diag(J J^T) and leave it singular
    def twin(x):
        return np.array([x[0] ** 2, x[0] ** 2]), np.array([[2.0 * x[0]], [2.0 * x[0]]])

    res = mp.minimize(twin, np.ones(1), 100)
    assert res.fun < 1e-22 and res.nit == 20


def test_minimize_stops_at_the_first_step_below_its_target():
    def run(target):
        norms = []

        def fun(x):
            r, jac = rosenbrock(x)
            norms.append(float(np.sqrt(r @ r)))
            return r, jac

        res = mp.minimize(fun, np.array([-1.2, 1.0]), 500, target)
        return res, norms

    full, full_norms = run(0.0)
    target = 1e-3
    # the unstopped run passes the target and goes on to the rounding floor
    assert full.fun < 1e-16 and min(full_norms[:-1]) < target
    res, norms = run(target)
    assert len(norms) == res.nit + 1 < len(full_norms)
    assert float(np.sqrt(res.fun)) == norms[-1] < target
    # a rejected step raises f, so no point before the last was below it
    assert all(n >= target for n in norms[:-1])


def test_plans_stop_at_their_target_not_at_the_rounding_floor(monkeypatch):
    evals = []
    objective_grad = _kernels.objective_grad

    def counted(*args):
        evals.append(1)
        return objective_grad(*args)

    monkeypatch.setattr(_kernels, "objective_grad", counted)
    rng = np.random.default_rng([5, 22])
    phi0, phiT = oc.random_state(20, rng), oc.random_state(20, rng)
    plans = {}
    for eps_plan in (1e-2, 1e-12):
        evals.clear()
        plans[eps_plan] = mp.plan_transfer(phi0, phiT, 5, eps_plan=eps_plan, seed=3), len(evals)
    (loose, loose_evals), (tight, tight_evals) = plans[1e-2], plans[1e-12]
    assert 1e-10 <= loose.achieved_error < 5e-3
    assert tight.achieved_error < 1e-12
    assert loose_evals < tight_evals


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("family", oc.FAMILIES)
def test_tight_plans_converge_without_a_restart(p, family, monkeypatch):
    runs = []
    minimize = mp.minimize

    def counted(fun, x0, maxiter, target):
        runs.append(len(x0))
        return minimize(fun, x0, maxiter, target)

    monkeypatch.setattr(mp, "minimize", counted)
    for seed in range(5):
        rng = np.random.default_rng([p, seed, 12])
        phi0, phiT = oc.random_state(4 * p, rng), oc.random_state(4 * p, rng)
        runs.clear()
        plan = mp.plan_transfer(phi0, phiT, p, eps_plan=1e-12, seed=seed, family=family)
        assert plan.success and plan.achieved_error < 1e-12
        assert len(runs) == 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_plan_json_roundtrip(tmp_path):
    plan = random_plan(3, 6, seed=1)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_json()))
    blob = json.loads(path.read_text())
    back = mp.Plan.from_json(blob)
    assert back == plan
    assert set(blob) == {"p", "M", "seed", "family", "target_error",
                         "achieved_error", "segments"}
    seg = blob["segments"][0]
    assert set(seg) == {"generator", "amplitude", "duration"}
    assert set(seg["generator"]) == {"kind", "gamma", "star", "part", "class"}
