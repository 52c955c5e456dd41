"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Two sub-cases are expected to fail and are asserted
faithfully anyway, because they pin values that are mathematically
unattainable (details printed by the tests and recorded in the project
notes): the two-phonon-level single-ion certificate (the family preserves
a symplectic form, so its closure has dimension 10, not 15) and the
winding-search cap of 1e7 for orders 6 and 8 at the tighter budgets (the
first qualifying winding index provably grows like (1/eps)^k with k
simultaneous irrational frequencies).
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

import helpers
from sideband_steer import lie_certifier as lc
from sideband_steer import lift_simulator as ls
from sideband_steer import modal_planner as mp
from sideband_steer import operator_core as oc
from sideband_steer import spectral_decoupling as sd
from sideband_steer import torus_winding as tw
from sideband_steer.errors import SearchExhaustedError

SIDEBANDS = [i for i in oc.ION_IDS if oc.is_sideband(i)]


def _verdict(num, name, failures, detail=""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} deviation(s))"
    print(f"\nACCEPTANCE C{num} {name}: {status} {detail}")
    for f in failures[:20]:
        print(f"  - {f}")
    assert not failures, f"criterion {num}: {failures}"


# ---------------------------------------------------------------------------
# C1: Lie certificates
# ---------------------------------------------------------------------------


def test_c1_lie_certificates():
    failures = []
    runs = []
    for family in ("full", "red-only", "blue-only"):
        t0 = time.perf_counter()
        rep = lc.certify_modal(3, family)
        dt = time.perf_counter() - t0
        runs.append(f"{family}@n=3 dim={rep.dimension} [{dt:.1f}s]")
        if rep.dimension != 143 or not rep.certified:
            failures.append(f"ion {family} n=3: dimension {rep.dimension} != 143")
        if dt > 60:
            failures.append(f"ion {family} n=3 took {dt:.1f}s > 60s")
    for n in (2, 3, 4, 5):
        for star in ("r", "b"):
            t0 = time.perf_counter()
            rep = lc.certify_law_eberly(n, star)
            dt = time.perf_counter() - t0
            want = 4 * n * n - 1
            runs.append(f"LE{star}@n={n} dim={rep.dimension} [{dt:.1f}s]")
            if rep.dimension != want:
                failures.append(
                    f"Law-Eberly n={n} star={star}: dimension {rep.dimension} != {want}"
                    + (" (true closure is sp(2), dimension 10; the stated"
                       " target is unattainable)" if n == 2 else ""))
            if dt > 60:
                failures.append(f"Law-Eberly n={n} {star} took {dt:.1f}s > 60s")
    _verdict(1, "lie-certificates", failures, "; ".join(runs))


# ---------------------------------------------------------------------------
# C2: spectral suite
# ---------------------------------------------------------------------------


def test_c2_spectral_suite():
    failures = []
    for cid in oc.ION_IDS:
        for n in range(1, 9):
            op = oc.build_coupling(cid, n)
            moduli = np.abs(np.linalg.eigvals(helpers.dense(op)))
            if oc.is_carrier(cid):
                if np.max(np.abs(moduli - 1.0)) > 1e-10:
                    failures.append(f"{cid} n={n}: carrier moduli not all 1")
            else:
                allowed = np.sqrt(np.arange(0, n + 1))
                err = max(np.min(np.abs(allowed - m)) for m in moduli)
                if err > 1e-10:
                    failures.append(f"{cid} n={n}: sideband moduli off by {err:.2e}")
            ref = helpers.block_pattern_matrix(cid, n)
            perm = helpers.permutation_matrix(n)
            got = perm @ helpers.dense(op) @ perm.T
            if np.max(np.abs(got - ref)) > 1e-12:
                failures.append(f"{cid} n={n}: permuted form mismatch")
    for cid in SIDEBANDS:
        for n in (3, 5, 8):
            part = sd.resonance_partition(n + 1)
            tot = sum(helpers.dense(sd.build_decoupled_generator(cid, j, n))
                      for j in range(1, part.count + 1))
            if np.max(np.abs(tot - helpers.dense(oc.build_coupling(cid, n)))) > 1e-12:
                failures.append(f"{cid} n={n}: telescoping identity fails")
    _verdict(2, "spectral-suite", failures,
             "12 operators, n<=8, permuted forms + telescoping")


# ---------------------------------------------------------------------------
# C3: decomposition suite
# ---------------------------------------------------------------------------


def test_c3_decomposition_suite():
    failures = []
    n = 13
    for cid in SIDEBANDS:
        op = oc.build_coupling(cid, n)
        for m in range(2, 13):
            dec = helpers.decompose(op, m)
            terms = dec.parts + [dec.u_dec, dec.u_rho]
            if np.max(np.abs(sum(terms) - helpers.dense(op))) > 1e-12:
                failures.append(f"{cid} m={m}: reconstruction")
            for i, a in enumerate(terms):
                for j, b in enumerate(terms):
                    if i != j and np.max(np.abs(a @ b)) > 1e-12:
                        failures.append(f"{cid} m={m}: product ({i},{j}) nonzero")
            for pi, uj in zip(dec.projectors, dec.parts + [dec.u_dec]):
                if np.max(np.abs(pi @ uj - uj)) > 1e-12:
                    failures.append(f"{cid} m={m}: image containment")
    if sd.resonance_partition(10).count != 7:
        failures.append("N(10) != 7")
    oracle = {}
    for r in range(1, 9):
        oracle.setdefault(sd.squarefree_decompose(r)[1], []).append(r)
    if len(oracle) + 1 != 7:
        failures.append("brute-force square-free oracle disagrees with N(10)=7")
    _verdict(3, "decomposition-suite", failures, "8 sidebands, m in 2..12")


# ---------------------------------------------------------------------------
# C4: winding decoupling at the pinned search cap
# ---------------------------------------------------------------------------


def test_c4_winding_decoupling():
    failures = []
    # pinned toy instance
    toy = tw.find_decoupling_time(
        tw.DecouplingRequest(id="V1r", m=3, ell=2, t_hat=np.pi, eps=0.1))
    if toy.s != 20:
        failures.append(f"toy instance returned s={toy.s} != 20")

    rng = np.random.default_rng(20250808)
    outcomes = {}
    for i in range(50):
        cid = SIDEBANDS[rng.integers(len(SIDEBANDS))]
        m = int(rng.choice([4, 6, 8]))
        part = sd.resonance_partition(m)
        ell = int(rng.integers(2, part.count + 1))  # nonzero classes
        t_hat = float(rng.uniform(-5, 5))
        eps = float(rng.choice([0.1, 0.01]))
        req = tw.DecouplingRequest(id=cid, m=m, ell=ell, t_hat=t_hat,
                                   eps=eps, s_max=10**7)
        key = (m, eps)
        outcomes.setdefault(key, [0, 0])
        try:
            res = tw.find_decoupling_time(req)
            measured = tw.verify_sigma(req, res, dim_sim=4 * (m + 1))
            assert measured <= res.bound + 1e-10 and res.bound < eps
            outcomes[key][0] += 1
        except SearchExhaustedError as exc:
            outcomes[key][1] += 1
            failures.append(
                f"instance {i} (op={cid}, m={m}, ell={ell}, eps={eps}): "
                f"exhausted at s_max=1e7, best bound {exc.best_bound:.3g}")
    table = "; ".join(f"m={m},eps={e}: {ok}/{ok + bad}"
                      for (m, e), (ok, bad) in sorted(outcomes.items()))
    _verdict(4, "winding-decoupling", failures, table)


# ---------------------------------------------------------------------------
# C5: iterated-error budget
# ---------------------------------------------------------------------------


def test_c5_iterated_error_budget():
    violations = helpers.synthetic_tracking_violations(
        n_draws=1000, dim=16, n_steps=20, eps_hi=0.01, seed=20250808)
    failures = [] if violations == 0 else [f"{violations} budget violations"]
    _verdict(5, "iterated-error-budget", failures, "1000 draws, dim 16, N=20")


# ---------------------------------------------------------------------------
# C6: planner
# ---------------------------------------------------------------------------


def test_c6_planner():
    failures = []
    worst_err, worst_grad = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng([20250808, seed])
        phi0 = oc.random_state(12, rng)
        phiT = oc.random_state(12, rng)
        plan = mp.plan_transfer(phi0, phiT, 3, eps_plan=1e-3, seed=seed)
        worst_err = max(worst_err, plan.achieved_error)
        if not plan.success:
            failures.append(f"seed {seed}: achieved {plan.achieved_error:.2e} >= 1e-3")
            continue
        disc = helpers.gradient_check(plan, phi0, phiT)
        worst_grad = max(worst_grad, disc)
        if disc >= 1e-5:
            failures.append(f"seed {seed}: gradient discrepancy {disc:.2e} >= 1e-5")
    _verdict(6, "planner", failures,
             f"20 pairs, worst error {worst_err:.2e}, worst gradient {worst_grad:.2e}")


# ---------------------------------------------------------------------------
# C7: end-to-end
# ---------------------------------------------------------------------------


def test_c7_end_to_end():
    failures = []
    details = []
    for fam_idx, family in enumerate(("full", "red-only")):
        for seed in range(5):
            t0 = time.perf_counter()
            rng = np.random.default_rng([20250808, fam_idx, seed])
            phi0 = oc.random_state(12, rng)
            phiT = oc.random_state(12, rng)
            plan = mp.plan_transfer(phi0, phiT, 3, M=1.0, eps_plan=0.01,
                                    seed=seed, family=family)
            if not plan.success:
                failures.append(f"{family}/{seed}: planner {plan.achieved_error:.2e}")
                continue
            try:
                lp = ls.lift_plan(plan, eps=0.09, s_max=10**9)
            except SearchExhaustedError as exc:
                failures.append(f"{family}/{seed}: lift exhausted ({exc})")
                continue
            report = ls.error_report(plan, lp, phi0, phiT,
                                     ls.simulate_lifted(lp, phi0))
            dt = time.perf_counter() - t0
            details.append(f"{family}/{seed}: err={report['final_error']:.4f} "
                           f"[{dt:.0f}s]")
            if report["final_error"] >= 0.1:
                failures.append(f"{family}/{seed}: final {report['final_error']:.4f}")
            if report["tail_mass"] >= 1e-12:
                failures.append(f"{family}/{seed}: tail {report['tail_mass']:.2e}")
            if dt > 1800:
                failures.append(f"{family}/{seed}: wall time {dt:.0f}s > 30min")
    _verdict(7, "end-to-end", failures, "; ".join(details))


# ---------------------------------------------------------------------------
# C8: exactness oracle
# ---------------------------------------------------------------------------


def test_c8_exactness_oracle():
    failures = []
    rng = np.random.default_rng(20250808)
    worst = 0.0
    for i in range(200):
        cid = oc.ALL_IDS[rng.integers(len(oc.ALL_IDS))]
        n = int(rng.integers(2, 17)) if oc.is_ion(cid) else int(rng.integers(2, 33))
        dim = 4 * n if oc.is_ion(cid) else 2 * n
        if dim > 64:
            n = 16 if oc.is_ion(cid) else 32
            dim = 64
        amp = float(rng.uniform(-1, 1))
        dur = float(rng.uniform(0, 6))
        phi = np.zeros(dim, dtype=complex)
        inner = max(dim - 8, 1)
        phi[:inner] = oc.random_state(inner, rng)
        ref = expm(dur * amp * helpers.dense(oc.build_coupling(cid, n))) @ phi
        got = helpers.segment_flow(cid, dur * amp, phi, dim)
        err = float(np.max(np.abs(got - ref)))
        worst = max(worst, err)
        if err > 1e-10:
            failures.append(f"segment {i} ({cid}, dim {dim}): deviation {err:.2e}")
    _verdict(8, "exactness-oracle", failures, f"200 segments, worst {worst:.2e}")
