import csv
import json

import numpy as np
import pytest
from scipy.linalg import expm

import helpers
from sideband_steer import cli
from sideband_steer import lift_simulator as ls
from sideband_steer import modal_planner as mp
from sideband_steer import operator_core as oc
from sideband_steer import torus_winding as tw
from sideband_steer.errors import SearchExhaustedError


def carrier_plan(p, angles):
    gids = [mp.GeneratorId("carrier", 1, "V"), mp.GeneratorId("carrier", 2, "W"),
            mp.GeneratorId("carrier", 1, "W"), mp.GeneratorId("carrier", 2, "V")]
    segs = [mp.PlanSegment(gids[i % 4], amplitude=np.sign(a), duration=abs(a))
            for i, a in enumerate(angles)]
    return mp.Plan(p=p, M=1.0, seed=0, target_error=1, achieved_error=0.0,
                   segments=segs)


def mixed_plan(p, seed, nseg=12):
    rng = np.random.default_rng(seed)
    gens = mp.default_generator_ids(p)
    segs = []
    for _ in range(nseg):
        gid = gens[int(rng.integers(len(gens)))]
        a = float(rng.uniform(0.2, 1.4)) * (1 if rng.random() < 0.5 else -1)
        segs.append(mp.PlanSegment(gid, amplitude=np.sign(a), duration=abs(a)))
    return mp.Plan(p=p, M=1.0, seed=seed, target_error=1, achieved_error=0.0,
                   segments=segs)


# ---------------------------------------------------------------------------
# choose_prime
# ---------------------------------------------------------------------------


def test_choose_prime_examples():
    assert ls.choose_prime(3) == 3
    assert ls.choose_prime(4) == 5
    assert ls.choose_prime(8) == 11
    assert ls.choose_prime(1) == 3


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def test_all_carrier_plan_lifts_identically():
    plan = carrier_plan(3, [0.4, -0.9, 1.2])
    lp = ls.lift_plan(plan, eps=0.05)
    assert lp.total_predicted_error == 0.0
    for seg, src in zip(lp.segments, plan.segments):
        assert seg.coupling == src.generator.coupling
        assert seg.amplitude == src.amplitude
        assert seg.duration == src.duration
        assert not seg.is_sideband


def test_single_sideband_lift_winding_relation():
    gid = mp.GeneratorId("sideband", 1, "V", "r", 3)  # class {sqrt2} at p=3
    plan = mp.Plan(p=3, M=1.0, seed=0, target_error=1, achieved_error=0.0,
                   segments=[mp.PlanSegment(gid, 1.0, 0.8)])
    lp = ls.lift_plan(plan, eps=0.1)
    seg = lp.segments[0]
    assert seg.is_sideband
    assert seg.predicted_error < 0.1
    t_bar = seg.amplitude * seg.duration
    # t_bar = t_hat + 2*pi*s/sqrt(2): the winding count must be integral
    s_float = (t_bar - 0.8) * np.sqrt(2) / (2 * np.pi)
    assert s_float == pytest.approx(seg.s, abs=1e-6)
    assert seg.nu_kernel == 2


def test_lift_budgets_sum_below_eps():
    plan = mixed_plan(3, seed=21, nseg=12)
    lp = ls.lift_plan(plan, eps=0.08)
    n_side = sum(1 for s in lp.segments if s.is_sideband)
    assert n_side > 0
    per = [s.predicted_error for s in lp.segments if s.is_sideband]
    assert all(e < 0.08 / n_side for e in per)
    assert lp.total_predicted_error == pytest.approx(sum(per))
    assert lp.total_predicted_error < 0.08
    assert lp.dim_sim == 4 * (plan.p + n_side + 1)


def test_lift_search_exhaustion_reports_segment():
    plan = mixed_plan(3, seed=22, nseg=6)
    with pytest.raises(SearchExhaustedError) as exc:
        ls.lift_plan(plan, eps=1e-9, s_max=100)
    assert exc.value.segment_index is not None


def test_lift_parallel_matches_serial():
    plan = mixed_plan(3, seed=23, nseg=10)
    a = ls.lift_plan(plan, eps=0.1, jobs=1)
    b = ls.lift_plan(plan, eps=0.1, jobs=4)
    assert [s.to_json() for s in a.segments] == [s.to_json() for s in b.segments]


def test_lifted_plan_json_roundtrip(tmp_path):
    plan = mixed_plan(3, seed=24, nseg=8)
    lp = ls.lift_plan(plan, eps=0.1)
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps(lp.to_json()))
    back = ls.LiftedPlan.from_json(json.loads(path.read_text()))
    assert back == lp


# ---------------------------------------------------------------------------
# exact lifted simulation
# ---------------------------------------------------------------------------


def test_simulate_empty_lifted_plan():
    lp = ls.LiftedPlan(p=3, eps=0.1, dim_sim=16)
    phi0 = helpers.basis_state(1, 12)
    states, tail = ls.simulate_lifted(lp, phi0)
    final = states[-1]
    assert np.array_equal(final[:12], phi0)
    assert tail == 0.0


def test_lifted_carrier_only_matches_modal():
    plan = carrier_plan(3, [0.3, 1.1, -0.7, 0.2])
    lp = ls.lift_plan(plan, eps=0.01)
    phi0 = oc.random_state(12, np.random.default_rng(1))
    states, tail = ls.simulate_lifted(lp, phi0)
    final = states[-1]
    modal = mp.simulate_plan_modal(plan, phi0)[-1]
    assert np.linalg.norm(final[:12] - modal) < 1e-12
    assert np.linalg.norm(final[12:]) == 0.0
    assert tail == 0.0


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_lifted_simulation_unitary_and_contained(seed):
    plan = mixed_plan(3, seed=seed, nseg=10)
    lp = ls.lift_plan(plan, eps=0.1)
    phi0 = oc.random_state(12, np.random.default_rng(seed))
    states, tail = ls.simulate_lifted(lp, phi0)
    final = states[-1]
    assert abs(np.linalg.norm(final) - 1) < 1e-12
    assert tail < 1e-12


def test_budget_soundness_lifted_vs_modal():
    for seed in (41, 42, 43):
        plan = mixed_plan(3, seed=seed, nseg=8)
        lp = ls.lift_plan(plan, eps=0.05)
        phi0 = oc.random_state(12, np.random.default_rng(seed))
        final = ls.simulate_lifted(lp, phi0)[0][-1]
        modal = mp.simulate_plan_modal(plan, phi0)[-1]
        modal_pad = np.zeros(lp.dim_sim, dtype=complex)
        modal_pad[:12] = modal
        assert np.linalg.norm(final - modal_pad) <= lp.total_predicted_error + 1e-9


def test_lifted_sideband_segment_matches_expm():
    # one lifted segment against a dense exponential with the same exact t_bar
    gid = mp.GeneratorId("sideband", 2, "W", "b", 2)
    plan = mp.Plan(p=3, M=1.0, seed=0, target_error=1, achieved_error=0.0,
                   segments=[mp.PlanSegment(gid, -1.0, 0.6)])
    lp = ls.lift_plan(plan, eps=0.2, s_max=10**6)
    seg = lp.segments[0]
    phi0 = oc.random_state(12, np.random.default_rng(3))
    final = ls.simulate_lifted(lp, phi0)[0][-1]
    dim = lp.dim_sim
    dense = helpers.dense(oc.build_coupling(seg.coupling, dim // 4))
    t_bar = seg.t_hat + 2 * np.pi * seg.s / np.sqrt(seg.nu_kernel)
    pad = np.zeros(dim, dtype=complex)
    pad[:12] = phi0
    ref = expm(t_bar * dense) @ pad
    # the float dense path loses ~1e-9 of phase accuracy at large t_bar;
    # the exact-reduction path is the trustworthy one
    tol = 1e-7 if seg.s > 10**4 else 1e-9
    assert np.max(np.abs(final - ref)) < tol


def _dense_lifted_step(seg, dim):
    dense = helpers.dense(oc.truncate(seg.coupling, dim))
    if seg.is_sideband:
        return expm((seg.t_hat + 2 * np.pi * seg.s / np.sqrt(seg.nu_kernel)) * dense)
    return expm(seg.duration * seg.amplitude * dense)


def test_mixed_plan_states_match_dense_product_after_every_segment():
    plan = mixed_plan(3, seed=25, nseg=10)
    assert {seg.generator.kind for seg in plan.segments} == {"carrier", "sideband"}
    phi0 = oc.random_state(12, np.random.default_rng(25))

    modal = mp.simulate_plan_modal(plan, phi0)
    assert len(modal) == len(plan.segments) + 1
    ref = phi0.copy()
    for seg, got in zip(plan.segments, modal[1:]):
        op = mp.build_generator_operator(seg.generator, plan.p)
        ref = expm(seg.angle * helpers.dense(op)) @ ref
        assert np.max(np.abs(got - ref)) < 1e-12

    lp = ls.lift_plan(plan, eps=0.5)
    states, tail = ls.simulate_lifted(lp, phi0)
    assert tail < 1e-12
    assert len(states) == len(lp.segments) + 1
    ref = np.zeros(lp.dim_sim, dtype=complex)
    ref[:12] = phi0
    for seg, got in zip(lp.segments, states[1:]):
        ref = _dense_lifted_step(seg, lp.dim_sim) @ ref
        # float t_bar costs the dense reference ~|t_bar| ulps of phase
        assert np.max(np.abs(got - ref)) < 1e-10


def test_trajectory_rows_are_the_lifted_states(tmp_path):
    plan = mixed_plan(3, seed=26, nseg=8)
    lp = ls.lift_plan(plan, eps=0.2)
    (tmp_path / "lifted.json").write_text(json.dumps(lp.to_json()))
    assert cli.main(["simulate", "--lifted", str(tmp_path / "lifted.json"),
                     "--phi0", "e1", "--output-dir", str(tmp_path)]) == 0
    states, _ = ls.simulate_lifted(lp, helpers.basis_state(1, 12))
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))[:-1]
    got = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    assert [int(r["segment_index"]) for r in rows[::lp.dim_sim]] == list(range(len(lp.segments)))
    assert np.array_equal(got.reshape(len(lp.segments), lp.dim_sim), states[1:])


# ---------------------------------------------------------------------------
# error report and the iterated-approximation estimate
# ---------------------------------------------------------------------------


def test_error_report_all_carrier():
    plan = carrier_plan(3, [0.5, -0.8])
    phi0 = oc.random_state(12, np.random.default_rng(2))
    modal = mp.simulate_plan_modal(plan, phi0)[-1]
    lp = ls.lift_plan(plan, eps=0.01)
    report = ls.error_report(plan, lp, phi0, modal, ls.simulate_lifted(lp, phi0))
    assert report["final_error"] < 1e-12
    assert report["lifting_error"] < 1e-12
    assert report["verdict"] and report["budget_sound"]


def test_error_report_verdict_fields():
    rng = np.random.default_rng(55)
    phi0, phiT = oc.random_state(12, rng), oc.random_state(12, rng)
    plan = mp.plan_transfer(phi0, phiT, 3, eps_plan=0.01, seed=55)
    lp = ls.lift_plan(plan, eps=0.09, s_max=10**9)
    report = ls.error_report(plan, lp, phi0, phiT, ls.simulate_lifted(lp, phi0))
    assert report["verdict"]
    assert report["final_error"] <= plan.achieved_error + lp.total_predicted_error + 1e-9
    assert len(report["per_segment"]) == len(lp.segments)
    assert report["running_budget"][-1] == pytest.approx(lp.total_predicted_error)


def test_eps_halving_regression_monotone():
    # regression seeds: short mixed plans keep the winding searches quick
    for seed in (61, 62, 63):
        plan = mixed_plan(3, seed=seed, nseg=10)
        phi0 = oc.random_state(12, np.random.default_rng(seed))
        modal = mp.simulate_plan_modal(plan, phi0)[-1]
        errs = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            lp = ls.lift_plan(plan, eps, s_max=10**9)
            report = ls.error_report(plan, lp, phi0, modal, ls.simulate_lifted(lp, phi0))
            errs.append(report["final_error"])
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# iterated-approximation estimate on synthetic unitaries
# ---------------------------------------------------------------------------


def test_iterated_approximation_budget():
    assert helpers.synthetic_tracking_violations(200, 16, 20, 0.01, seed=77) == 0


# ---------------------------------------------------------------------------
# one lifted segment per run of commuting class segments
# ---------------------------------------------------------------------------


def run_plan(p, coupling, classes, angles, before=(), after=()):
    """A plan with one run of ``coupling``'s classes, between carriers."""
    gamma, part, star = int(coupling[1]), coupling[0], coupling[2]
    segs = [mp.PlanSegment(mp.GeneratorId("carrier", 1, "V"), np.sign(a), abs(a))
            for a in before]
    segs += [mp.PlanSegment(mp.GeneratorId("sideband", gamma, part, star, j),
                            np.sign(a), abs(a)) for j, a in zip(classes, angles)]
    segs += [mp.PlanSegment(mp.GeneratorId("carrier", 2, "W"), np.sign(a), abs(a))
             for a in after]
    return mp.Plan(p=p, M=1.0, seed=0, target_error=1, achieved_error=0.0, segments=segs)


def test_sideband_runs_split_on_coupling_class_and_carrier():
    side = [mp.GeneratorId("sideband", 1, "V", "r", j) for j in (2, 3)]
    other = mp.GeneratorId("sideband", 1, "W", "r", 2)
    carrier = mp.GeneratorId("carrier", 1, "V")
    gens = [side[0], side[1], side[0], carrier, side[1], other, side[1], side[0]]
    plan = mp.Plan(p=3, M=1.0, seed=0, target_error=1, achieved_error=0.0,
                   segments=[mp.PlanSegment(g, 1.0, 0.5) for g in gens])
    assert ls.sideband_runs(plan) == [[0, 1], [2], [4], [5], [6, 7]]
    lp = ls.lift_plan(plan, eps=0.5)
    assert [s.origin for s in lp.segments] == [0, 2, 3, 4, 5, 6]
    assert lp.dim_sim == 4 * (3 + 5 + 1)


def test_default_schedule_pairs_every_sideband_at_p3():
    # the planner lists the nonzero classes of one coupling back to back
    gens = mp.default_generator_ids(3)
    plan = mp.Plan(p=3, M=1.0, seed=0, target_error=1, achieved_error=0.0,
                   segments=[mp.PlanSegment(g, 1.0, 0.5) for g in gens * 2])
    runs = ls.sideband_runs(plan)
    assert all(len(r) == 2 for r in runs)
    assert len(runs) == sum(g.kind == "sideband" for g in gens)


def test_runs_of_one_lift_as_single_segment_searches():
    # with a carrier after every sideband segment, every lifted segment is
    # the single-segment search of its plan segment
    carrier = mp.PlanSegment(mp.GeneratorId("carrier", 1, "W"), 1.0, 0.3)
    plan = mixed_plan(3, seed=27, nseg=10)
    plan.segments = [s for seg in plan.segments for s in (seg, carrier)]
    assert all(len(r) == 1 for r in ls.sideband_runs(plan))
    lp = ls.lift_plan(plan, eps=0.2)
    n_side = len(ls.sideband_runs(plan))
    for seg in lp.segments:
        if not seg.is_sideband:
            continue
        src = plan.segments[seg.origin]
        want = tw.find_decoupling_time(tw.DecouplingRequest(
            id=src.generator.coupling, m=4, ell=src.generator.class_index,
            t_hat=src.angle, eps=0.2 / n_side))
        assert (seg.s, seg.t_hat, seg.nu_kernel, seg.predicted_error) == \
            (want.s, want.t_hat, want.nu_kernel, want.bound)


@pytest.mark.parametrize("p,coupling,classes,eps", [
    (3, "V1r", (2, 3), 0.3), (3, "W2b", (3, 2), 0.3),
    (5, "V2r", (2, 4), 0.5), (5, "W1b", (3, 2, 4), 0.8), (5, "V1b", (4, 3, 2), 0.8),
])
def test_run_lift_bounds_the_dense_deviation(p, coupling, classes, eps):
    # ||(exp(t_bar X) - exp(sum_h t_h U_h))|_Y|| from dense exponentials is
    # below the lifted segment's certificate
    rng = np.random.default_rng([p, *classes])
    angles = [float(rng.uniform(0.3, 1.5)) * rng.choice([-1, 1]) for _ in classes]
    plan = run_plan(p, coupling, classes, angles)
    assert ls.sideband_runs(plan) == [list(range(len(classes)))]
    lp = ls.lift_plan(plan, eps=eps)
    (seg,) = lp.segments
    assert seg.origin == 0 and seg.t_hat == angles[0]
    dim, ydim = lp.dim_sim, 4 * p
    t_bar = seg.t_hat + 2 * np.pi * seg.s / np.sqrt(seg.nu_kernel)
    lifted = expm(t_bar * helpers.dense(oc.truncate(coupling, dim)))
    modal = expm(sum(s.angle * helpers.dense(mp.build_generator_operator(s.generator, p))
                     for s in plan.segments))
    diff = lifted[:, :ydim].copy()
    diff[:ydim] -= modal
    deviation = float(np.linalg.norm(diff, ord=2))
    # a float t_bar costs the dense reference ~|t_bar| ulps of phase
    assert deviation <= seg.predicted_error + 1e-9 * max(1.0, abs(t_bar))
    assert deviation > 0.1 * seg.predicted_error
    # and the exact lifted simulation agrees with the dense flow on Y
    phi0 = oc.random_state(ydim, rng)
    pad = np.zeros(dim, dtype=complex)
    pad[:ydim] = phi0
    assert np.max(np.abs(ls.simulate_lifted(lp, phi0)[0][-1] - lifted @ pad)) < \
        1e-9 * max(1.0, abs(t_bar))


def test_run_e2e_merges_runs_and_simulates_the_modal_plan_once(tmp_path, monkeypatch):
    calls = []

    def counted(plan, phi0):
        calls.append(len(plan.segments))
        return simulate_plan_modal(plan, phi0)

    simulate_plan_modal = mp.simulate_plan_modal
    monkeypatch.setattr(mp, "simulate_plan_modal", counted)
    monkeypatch.setattr(ls, "simulate_plan_modal", counted)
    assert cli.main(["run-e2e", "--n", "3", "--eps", "0.1", "--phi0", "e1", "--phiT", "e5",
                     "--seed", "7", "--output-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    plan = mp.Plan.from_json(json.loads((tmp_path / "plan.json").read_text()))
    lifted = json.loads((tmp_path / "lifted_plan.json").read_text())
    summary = json.loads((tmp_path / "summary.json").read_text())
    runs = ls.sideband_runs(plan)
    sides = [s for s in lifted["segments"] if s["s"] is not None]
    assert [s["origin"] for s in sides] == [r[0] for r in runs]
    # each run at p = 3 holds both nonzero classes of its coupling
    assert 2 * len(runs) == sum(s.generator.kind == "sideband" for s in plan.segments)
    assert lifted["dim_sim"] == 4 * (plan.p + len(runs) + 1)
    assert summary["verdict"] and summary["lifting_error"] <= summary["total_predicted_error"]
    assert sum(s["s"] for s in sides) <= 10**8


def test_error_report_takes_the_modal_final_state():
    plan = mixed_plan(3, seed=28, nseg=8)
    phi0 = oc.random_state(12, np.random.default_rng(28))
    modal = mp.simulate_plan_modal(plan, phi0)[-1]
    lp = ls.lift_plan(plan, eps=0.2)
    simulated = ls.simulate_lifted(lp, phi0)
    assert ls.error_report(plan, lp, phi0, modal, simulated, modal) == \
        ls.error_report(plan, lp, phi0, modal, simulated)
