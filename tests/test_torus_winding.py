import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

import helpers
from sideband_steer import _kernels
from sideband_steer import operator_core as oc
from sideband_steer import spectral_decoupling as sd
from sideband_steer import torus_winding as tw
from sideband_steer.errors import SearchExhaustedError


def brute_bound(m, ell, t_hat, s):
    """Test-local oracle for the scan objective, straight from numpy."""
    part = sd.resonance_partition(m)
    kernel = part.classes[ell - 1].kernel
    step = 2 * np.pi / (1.0 if kernel == 0 else np.sqrt(kernel))
    tbar = t_hat + step * s
    tot = 0.0
    for h, cls in enumerate(part.classes, start=1):
        if h == ell:
            continue
        vals = [2 * abs(np.sin(np.sqrt(r) * tbar / 2)) for r in cls.radicands]
        tot += max(vals)
    tot += 2 * abs(np.sin(np.sqrt(m - 1) * tbar / 2))
    return tot


def full_scan_bounds(members, nu, t_hat, s0, s1):
    """Test-local oracle for the scan kernel: every class on every s, each on
    its fixed-point fraction."""
    s = np.arange(s0, s1, dtype=np.int64)
    tot = np.zeros(len(s))
    for cls in helpers.fixed_point_classes(members, nu, t_hat):
        tot += helpers.class_term(cls, helpers.fixed_point_fraction(cls, s))
    return tot


def full_scan(members, nu, t_hat, eps, best, s0, s1):
    tot = full_scan_bounds(members, nu, t_hat, s0, s1)
    hits = np.flatnonzero(tot < eps)
    cand = int(s0 + hits[0]) if hits.size else -1
    if hits.size:  # the scan stops at its first hit
        tot = tot[:hits[0] + 1]
    best_s, best_bound = best
    i = int(np.argmin(tot))
    if tot[i] < best_bound:
        best_s, best_bound = s0 + i, float(tot[i])
    return cand, (best_s, best_bound)


def brute_smallest(m, ell, t_hat, eps, s_cap):
    for s in range(s_cap + 1):
        if brute_bound(m, ell, t_hat, s) < eps:
            return s
    return None


# ---------------------------------------------------------------------------
# the toy instance: frequencies {0,1} below omega_3 = sqrt(2)
# ---------------------------------------------------------------------------


def test_toy_instance_exact_s():
    req = tw.DecouplingRequest(id="V1r", m=3, ell=2, t_hat=np.pi, eps=0.1)
    res = tw.find_decoupling_time(req)
    assert res.s == 20
    assert res.t_bar == pytest.approx(41 * np.pi, rel=1e-12)
    assert res.bound == pytest.approx(0.054, abs=5e-4)
    assert brute_smallest(3, 2, np.pi, 0.1, 30) == 20


def test_toy_instance_looser_budget():
    req = tw.DecouplingRequest(id="V1r", m=3, ell=2, t_hat=np.pi, eps=0.2)
    res = tw.find_decoupling_time(req)
    assert res.s == 8
    assert res.bound == pytest.approx(0.131, abs=5e-4)


def test_zero_target_time_needs_no_winding():
    req = tw.DecouplingRequest(id="V1r", m=3, ell=2, t_hat=0.0, eps=0.1)
    res = tw.find_decoupling_time(req)
    assert res.s == 0 and res.t_bar == 0.0 and res.bound == 0.0


@pytest.mark.parametrize("m,ell,t_hat,eps", [
    (4, 2, 1.0, 0.05), (4, 3, -2.2, 0.1), (6, 2, 0.7, 0.2), (3, 2, 1.3, 0.15),
])
def test_smallest_s_matches_brute_force(m, ell, t_hat, eps):
    req = tw.DecouplingRequest(id="W1b", m=m, ell=ell, t_hat=t_hat, eps=eps)
    res = tw.find_decoupling_time(req)
    assert res.s == brute_smallest(m, ell, t_hat, eps, res.s + 10)
    assert res.bound < eps
    assert res.bound == pytest.approx(brute_bound(m, ell, t_hat, res.s), abs=1e-9)
    assert sum(res.per_class_error) == pytest.approx(res.bound)


def test_rejected_candidate_on_a_window_edge(monkeypatch):
    # with eps equal to the exact bound at s=20, the float scan offers s=20
    # and the fixed-point check refuses it; when s=20 ends a window, the
    # search must go on into the next one
    eps = float(tw.bound_profile(3, 2, np.pi, [20])[0])
    prof = tw.bound_profile(3, 2, np.pi, np.arange(2000))
    want = int(np.flatnonzero(prof < eps)[0])
    assert want > 20
    monkeypatch.setattr(tw, "_CHUNK_FIRST", 21)
    res = tw.find_decoupling_time(
        tw.DecouplingRequest(id="V1r", m=3, ell=2, t_hat=np.pi, eps=eps, s_max=2000))
    assert res.s == want


def test_monotone_budget():
    prev_s = None
    for eps in (0.4, 0.2, 0.1, 0.05, 0.025):
        req = tw.DecouplingRequest(id="V1r", m=4, ell=2, t_hat=1.3, eps=eps)
        s = tw.find_decoupling_time(req).s
        if prev_s is not None:
            assert s >= prev_s
        prev_s = s


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("s_base", [0, 10**6, 10**9, 10**12])
def test_scan_kernel_matches_full_evaluation(seed, s_base):
    # the pruned, screened scan returns exactly what evaluating every class
    # on every s returns, far from s = 0 as near it.  The last
    # thresholds sit one ulp above the window's least bound, so its argmin is
    # the first hit and, for m=3, ell=2 (one nonzero frequency), lies on the
    # edge of the screen, whose margin then decides
    rng = np.random.default_rng([seed, s_base])
    for trial in range(12):
        m = 3 if trial == 0 else int(rng.choice([3, 4, 6, 8]))
        part = sd.resonance_partition(m)
        ell = 2 if trial == 0 else int(rng.integers(1, part.count + 1))
        members, nu_kernel = tw._torus_data(m, ell)
        t_hat = float(rng.uniform(-5, 5))
        eps0 = float(10 ** rng.uniform(-3, 0.5))
        s0 = s_base + int(rng.integers(0, 10**5))
        # odd trials span several of the kernel's blocks
        s1 = s0 + int(rng.integers(1, 80000 if trial % 2 else 6000))
        tot = full_scan_bounds(members, nu_kernel, t_hat, s0, s1)
        tight = float(np.nextafter(tot.min(), math.inf))
        for eps, best_bound in ((eps0, math.inf),
                                (eps0, float(tot.min()) * rng.uniform(0.9, 1.5)),
                                (eps0, float(rng.uniform(0.0, 3.0))),
                                (tight, tight)):
            best = (-1 if best_bound == math.inf else 7, best_bound)
            _assert_scan_matches((members, nu_kernel, t_hat, eps, best, s0, s1))


@pytest.mark.parametrize("t_hat", [math.nan, math.inf, 1.5e308])
def test_scan_kernel_refuses_a_non_finite_phase(t_hat):
    # 1.5e308 is finite, but sqrt(3)*t_h/(2*pi) is not
    with pytest.raises(ValueError, match="non-finite"):
        _kernels.scan_decoupling([[3]], 2, t_hat, 0.1, (-1, math.inf), 0, 100)


def _assert_scan_matches(args, oracle=full_scan):
    got = _kernels.scan_decoupling(*args)
    assert got == oracle(*args)
    assert type(got[0]) is int and type(got[1][0]) is int


@pytest.mark.parametrize("seed", range(4))
def test_scan_kernel_matches_full_evaluation_in_the_exhausted_regime(seed):
    # m=8 windows of 1e5-1e6 steps at the thresholds of exhausted searches:
    # the survivors are enumerated, with every class in play, far from s=0
    # too; the last threshold puts the window's least bound on the edge
    rng = np.random.default_rng([seed, 8])
    for s_base in (10**5, 10**9, 10**12):
        ell = int(rng.integers(2, sd.resonance_partition(8).count + 1))
        members, nu_kernel = tw._torus_data(8, ell)
        t_hat = float(rng.uniform(-5, 5))
        s0 = s_base + int(rng.integers(0, 10**5))
        s1 = s0 + int(10 ** rng.uniform(5, 6))
        tot = full_scan_bounds(members, nu_kernel, t_hat, s0, s1)
        tight = float(np.nextafter(tot.min(), math.inf))
        for eps, best_bound in ((float(rng.uniform(0.2, 0.7)), math.inf),
                                (0.01, float(rng.uniform(0.2, 0.7))),
                                (tight, tight)):
            best = (-1 if best_bound == math.inf else 7, best_bound)
            _assert_scan_matches((members, nu_kernel, t_hat, eps, best, s0, s1))


def test_scan_kernel_evaluates_everything_at_thresholds_of_two():
    # a class term 2|sin| below thr >= 2 constrains nothing, so every index
    # of the window is evaluated, over several blocks
    members, nu_kernel = tw._torus_data(8, 2)
    for eps, best_bound in ((2.0, math.inf), (0.05, 2.0), (2.5, 3.0)):
        _assert_scan_matches((members, nu_kernel, 0.7, eps, (3, best_bound),
                              10**9, 10**9 + 70000))


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_scan_kernel_matches_full_evaluation_for_the_zero_class(m):
    # selecting the zero class makes alpha = 1 for the integer-frequency
    # class: its term is the same at every s, and only the distance of
    # t_hat/(2*pi) to an integer decides whether anything survives.  At
    # m = 2 no class has an irrational alpha, and every s is evaluated
    members, nu_kernel = tw._torus_data(m, 1)
    assert nu_kernel == 1
    for t_hat in (0.0, 0.01, 2 * np.pi - 0.02, -4 * np.pi + 0.05, 1.0, np.pi / 2):
        tot = full_scan_bounds(members, nu_kernel, t_hat, 1000, 200000)
        for eps, best_bound in ((0.3, math.inf), (0.1, 0.6),
                                (float(np.nextafter(tot.min(), math.inf)), 1.5)):
            _assert_scan_matches((members, nu_kernel, t_hat, eps, (5, best_bound),
                                  1000, 200000))


@pytest.mark.parametrize("delta", [3e-5, -3e-5])
@pytest.mark.parametrize("at_end", [False, True])
def test_scan_kernel_keeps_a_survivor_on_the_corner_of_its_ball(delta, at_end):
    # m=3, ell=2 scans one class, alpha = sqrt(2).  t_hat puts s_star delta
    # from an integer, and eps one ulp above its bound makes it the window's
    # first hit: it lies on the face of the screen's cross-polytope, |z_1| = 1.
    # As the first or last index of a window of 2*2378 + 1 indices it also
    # has |z_0| = 1, a corner of the enumeration's ball |z|^2 <= 2, which
    # only the margins of rho and r2 keep inside.  2378*sqrt(2) lies within
    # 1.5e-4 of an integer, so the window's centre is near an integer too,
    # and r2's term in the centre's distance adds next to nothing
    members, nu_kernel = tw._torus_data(3, 2)
    s_star, half = 10**6, 2378
    t_hat = 2 * np.pi * (delta - s_star * math.sqrt(2) % 1.0) / math.sqrt(2)
    s0 = s_star - 2 * half if at_end else s_star
    s1 = s0 + 2 * half + 1
    eps = float(np.nextafter(_kernel_bound(members, nu_kernel, t_hat, s_star), math.inf))
    # the whole window is one enumerated piece, and s_star is in it
    classes = _kernels._classes(tuple(map(tuple, members)), nu_kernel)
    _, screen = _kernels._screen(classes, [t_hat] * len(members), nu_kernel)
    p1, s = _kernels._piece(screen, eps, s0, s1)
    assert p1 == s1 and s is not None and s_star in s
    _assert_scan_matches((members, nu_kernel, t_hat, eps, (7, eps), s0, s1))
    assert _kernels.scan_decoupling(members, nu_kernel, t_hat, eps, (7, eps), s0, s1)[0] \
        == s_star


# The 19 reference requests (perfbench/winding_reference.json, acceptance C4)
# that exhaust s_max = 1e7, in file order, with the best index and exact
# bound that the per-index scan reported for each.  Every best bound leads
# the next best by at least 8e-4, so no float tie decides them.
EXHAUSTED_REFERENCE = [
    ("W1r", 6, 4, 0.4512197403433369, 0.01, 7804193, "0x1.27ce2182741fcp-5"),
    ("V2b", 8, 3, -4.2473427961872945, 0.01, 5792689, "0x1.1d110b5a06c65p-2"),
    ("W1b", 6, 4, -1.8220451088116754, 0.01, 5595621, "0x1.37bd342b6f64cp-5"),
    ("W2b", 8, 6, -2.009192211723577, 0.1, 5000906, "0x1.86850ce56491bp-2"),
    ("W2r", 8, 6, 2.9977454544335957, 0.01, 16746, "0x1.d6244aa3e883dp-2"),
    ("V2r", 8, 4, 4.002102372246689, 0.01, 3423380, "0x1.9eda593fc9331p-2"),
    ("V1r", 6, 3, -4.759202886669457, 0.01, 204362, "0x1.6a722dc71c6fap-6"),
    ("V1r", 8, 5, -0.21328441424219324, 0.1, 8871204, "0x1.88adc0f8a4b64p-2"),
    ("W1b", 6, 4, 4.158415943803655, 0.01, 4584481, "0x1.345ca340412dap-5"),
    ("W2r", 6, 2, -3.455206253991908, 0.01, 8305418, "0x1.0eaea9704d9c1p-6"),
    ("V2b", 8, 6, 4.251930400420683, 0.1, 4807896, "0x1.46f6e1928933ep-2"),
    ("W1b", 8, 6, -0.8584904569050078, 0.1, 5258827, "0x1.e1e76b9362992p-3"),
    ("V2r", 8, 6, -1.690254621258902, 0.01, 8498133, "0x1.a77c155c864b4p-2"),
    ("W1b", 8, 2, -0.05728999194368445, 0.1, 7081096, "0x1.6965684013ae4p-2"),
    ("W2b", 8, 3, 4.5444350943536165, 0.01, 1190945, "0x1.052f775ccbb36p-1"),
    ("W1b", 8, 3, -4.051866933763439, 0.1, 5557320, "0x1.41347bda24051p-1"),
    ("V1b", 6, 4, 2.1941972314690696, 0.01, 5428283, "0x1.e68763106ff6fp-6"),
    ("W2r", 8, 5, -2.835983106170005, 0.1, 1, "0x1.113b917f0b168p-2"),
    ("V1b", 8, 4, -3.8996396810252296, 0.01, 1003993, "0x1.3d604ad5fabebp-2"),
]


@pytest.mark.parametrize("op,m,ell,t_hat,eps,best_s,best_bound", EXHAUSTED_REFERENCE)
def test_exhausted_reference_request_keeps_its_best(op, m, ell, t_hat, eps, best_s,
                                                    best_bound):
    req = tw.DecouplingRequest(id=op, m=m, ell=ell, t_hat=t_hat, eps=eps, s_max=10**7)
    with pytest.raises(SearchExhaustedError) as exc:
        tw.find_decoupling_time(req)
    assert (exc.value.best_s, exc.value.best_bound) == (best_s, float.fromhex(best_bound))
    # one kernel call over the whole range finds what the per-index scan finds
    members, nu_kernel = tw._torus_data(m, ell)
    args = (members, nu_kernel, t_hat, eps, (-1, math.inf), 0, 10**7 + 1)
    _assert_scan_matches(args, oracle=helpers.block_scan)
    assert _kernels.scan_decoupling(*args)[1][0] == best_s


def test_order6_hit_far_out():
    # the first index below eps lies past 5e8; the per-index scan found the
    # same one
    req = tw.DecouplingRequest(id="V1r", m=6, ell=2, t_hat=1.0, eps=7.5e-3, s_max=10**9)
    res = tw.find_decoupling_time(req)
    assert res.s == 545347336
    assert res.bound == float.fromhex("0x1.fb6c49061fc64p-9")


def test_order6_search_exhausts_1e11():
    # the scan's threshold does not grow with s, so past 1e10 it still
    # offers the exact check only indices whose bound is near eps: the
    # search runs out to 1e11, and its best index has the bound it reports
    req = tw.DecouplingRequest(id="V1r", m=6, ell=2, t_hat=1.0, eps=0.00094, s_max=10**11)
    with pytest.raises(SearchExhaustedError) as exc:
        tw.find_decoupling_time(req)
    assert exc.value.best_bound <= 0.0016659307735091072
    assert exc.value.best_bound == float(tw.bound_profile(6, 2, 1.0, [exc.value.best_s])[0])


def _kernel_bound(members, nu_kernel, phases, s):
    """The scan kernel's own bound at index s: the best of a one-index window."""
    return _kernels.scan_decoupling(members, nu_kernel, phases, 0.0, (-1, math.inf),
                                    s, s + 1)[1][1]


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("with_offsets", [False, True])
def test_scan_bound_stays_within_its_rounding_of_the_exact_bound(m, with_offsets):
    # the search scans at eps + scan_rounding, so every index that the exact
    # check accepts is offered only if the two bounds stay this close, at
    # every class and from s = 0 to the top of the s range
    rng = np.random.default_rng([m, with_offsets])
    count = sd.resonance_partition(m).count
    for ell in range(1, count + 1):
        members, nu_kernel = tw._torus_data(m, ell)
        t_hat = float(rng.uniform(-5, 5))
        offsets = tuple((h, float(rng.uniform(-2, 2))) for h in range(2, count + 1)
                        if h != ell and with_offsets)
        phases = _offset_phases(m, ell, t_hat, offsets)
        rounding = _kernels.scan_rounding(members, phases)
        assert rounding < 1e-12
        grid = [s for base in (0, 10**7, 10**12, 2**53 - 40) for s in range(base, base + 40)]
        exact = tw._exact_batch(members, nu_kernel, grid, phases)[0]
        got = [_kernel_bound(members, nu_kernel, phases, s) for s in grid]
        assert np.max(np.abs(np.array(got) - exact)) <= rounding


# ---------------------------------------------------------------------------
# validation and failure modes
# ---------------------------------------------------------------------------


def test_hypothesis_violation_rejected():
    # omega_5 = 2 is rationally resonant with omega_2 = 1
    req = tw.DecouplingRequest(id="V1r", m=5, ell=2, t_hat=1.0, eps=0.1)
    with pytest.raises(ValueError):
        tw.find_decoupling_time(req)


def test_carrier_rejected():
    req = tw.DecouplingRequest(id="V1", m=4, ell=2, t_hat=1.0, eps=0.1)
    with pytest.raises(ValueError):
        tw.find_decoupling_time(req)


def test_bad_class_index_rejected():
    req = tw.DecouplingRequest(id="V1r", m=4, ell=7, t_hat=1.0, eps=0.1)
    with pytest.raises(ValueError):
        tw.find_decoupling_time(req)


@pytest.mark.parametrize("t_hat, eps", [(1.0, math.nan), (math.nan, 0.05),
                                         (1.0, math.inf), (math.inf, 0.05)])
def test_non_finite_request_rejected(t_hat, eps):
    # every comparison with nan is false, so a nan slips past each bound
    # test of the search, and an infinite eps would accept any s
    req = tw.DecouplingRequest(id="V1r", m=4, ell=2, t_hat=t_hat, eps=eps, s_max=1000)
    with pytest.raises(ValueError, match="finite"):
        tw.find_decoupling_time(req)


def test_unresolvable_t_hat_rejected():
    # at t_hat 1e15 the float phases sqrt(r)*t_hat keep no fractional digits:
    # the scan's rounding term exceeds eps, and the search is refused at once
    members, _ = tw._torus_data(6, 2)
    assert _kernels.scan_rounding(members, 1e15) > 9.5
    req = tw.DecouplingRequest("V1r", 6, 2, 1e15, 0.001, s_max=20000)
    with pytest.raises(ValueError, match="too large for eps"):
        tw.find_decoupling_time(req)
    # at 1e9 the term is about 1e-5, well below eps, and the search runs
    assert _kernels.scan_rounding(members, 1e9) < 1e-5
    with pytest.raises(SearchExhaustedError):
        tw.find_decoupling_time(dataclasses.replace(req, t_hat=1e9, s_max=2000))


def test_search_exhausted_carries_best():
    req = tw.DecouplingRequest(id="V1r", m=4, ell=2, t_hat=1.3, eps=1e-6, s_max=50)
    with pytest.raises(SearchExhaustedError) as exc:
        tw.find_decoupling_time(req)
    err = exc.value
    assert 0 <= err.best_s <= 50
    assert err.best_bound == pytest.approx(
        min(brute_bound(4, 2, 1.3, s) for s in range(51)), abs=1e-9)
    # across several scan windows, best_s is the first argmin of the full scan
    members, nu_kernel = tw._torus_data(4, 2)
    tot = full_scan_bounds(members, nu_kernel, 1.3, 0, 20001)
    with pytest.raises(SearchExhaustedError) as exc:
        tw.find_decoupling_time(dataclasses.replace(req, s_max=20000))
    assert exc.value.best_s == int(np.argmin(tot))
    assert exc.value.best_bound == pytest.approx(float(tot.min()), abs=1e-9)
    assert exc.value.best_bound == pytest.approx(
        brute_bound(4, 2, 1.3, exc.value.best_s), abs=1e-9)


def test_zero_class_selection_is_honest():
    # selecting the zero class leaves the integer-frequency class periodic
    # under every winding step, so only near-trivial targets succeed
    ok = tw.find_decoupling_time(
        tw.DecouplingRequest(id="V1r", m=4, ell=1, t_hat=0.0, eps=0.1))
    assert ok.s == 0 and ok.bound == 0.0
    with pytest.raises(SearchExhaustedError):
        tw.find_decoupling_time(
            tw.DecouplingRequest(id="V1r", m=4, ell=1, t_hat=np.pi / 2,
                                 eps=0.1, s_max=2000))


def test_bound_profile_matches_search():
    req = tw.DecouplingRequest(id="V1r", m=3, ell=2, t_hat=np.pi, eps=0.1)
    res = tw.find_decoupling_time(req)
    prof = tw.bound_profile(3, 2, np.pi, np.arange(res.s + 1))
    assert prof[res.s] == pytest.approx(res.bound)
    assert np.min(prof[:res.s]) >= 0.1  # nothing earlier qualified
    oracle = [brute_bound(3, 2, np.pi, s) for s in range(res.s + 1)]
    assert np.max(np.abs(prof - np.array(oracle))) < 1e-9


def test_result_json():
    req = tw.DecouplingRequest(id="V1r", m=3, ell=2, t_hat=np.pi, eps=0.2)
    payload = tw.find_decoupling_time(req).to_json()
    blob = json.loads(json.dumps(payload))
    assert blob["s"] == 8
    assert set(blob) == {"s", "t_bar", "bound", "per_class_error", "residuals",
                         "t_hat", "nu_kernel"}


# ---------------------------------------------------------------------------
# exact angle reduction
# ---------------------------------------------------------------------------


def scalar_residual(radicand, nu_kernel, s, t_hat):
    """Test-local copy of the one-index reduction, with its own square root."""
    if radicand == 0:
        return 0.0
    den = nu_kernel * 10 ** tw._SQRT_DIGITS
    frac = (s * math.isqrt(radicand * nu_kernel * 10 ** (2 * tw._SQRT_DIGITS))) % den / den
    return math.remainder(math.sqrt(radicand) * t_hat + 2 * math.pi * frac, 2 * math.pi)


def scalar_profile(m, ell, t_hat, s_values):
    """Test-local oracle for bound_profile: one index, one class, one radicand at a time."""
    members, nu_kernel = tw._torus_data(m, ell)
    out = np.empty(len(s_values))
    for i, s in enumerate(s_values):
        errs = [[2.0 * abs(math.sin(0.5 * scalar_residual(r, nu_kernel, int(s), t_hat)))
                 for r in rads] for rads in members]
        per_class = [e[int(np.argmax(e))] for e in errs]
        # sum() as Python adds floats up to 3.11: left to right, uncompensated
        total = 0.0
        for e in per_class:
            total += e
        out[i] = total
    return out


def scalar_flow_betas(cid, dim, s, nu_kernel, t_hat):
    """Test-local oracle for exact_flow_betas: one reduction per pair."""
    _, _, pc, _, pr = oc.pair_arrays(cid, dim)
    return np.array([math.copysign(1.0, c) * scalar_residual(int(r), nu_kernel, s, t_hat)
                     for c, r in zip(pc, pr)])


def exact_residual(radicand, nu_kernel, s, t_hat):
    """One residual through the package's batched exact reduction."""
    return float(tw._exact_batch([[radicand]], nu_kernel, [s], t_hat)[2][0, 0])


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("m", [3, 4, 6, 8, 12])
def test_bound_profile_bits_match_scalar_oracle(m):
    # the batched evaluation reduces each radicand's numerator once, and a
    # grid of _BATCH_MIN indices or more takes the fixed-width fractions;
    # every float it returns is bit for bit the one-index reduction's
    rng = np.random.default_rng(m)
    grids = [(top, 512) for top in (10**6, 10**9, 10**12, 2**53 - 1)] \
        + [(10**9, tw._BATCH_MIN - 1), (10**9, tw._BATCH_MIN)]
    for ell in range(1, sd.resonance_partition(m).count + 1):
        for top, size in grids:
            t_hat = float(rng.uniform(-5, 5))
            grid = np.unique(np.linspace(0, top, size).astype(np.int64))
            assert len(grid) == size and grid[-1] == top
            assert np.array_equal(_bits(tw.bound_profile(m, ell, t_hat, grid)),
                                  _bits(scalar_profile(m, ell, t_hat, grid)))


def integer_fractions(qs, den, s_values):
    """Test-local oracle for winding_fractions: the integer expression."""
    return np.array([[(int(s) * q) % den / den for s in s_values] for q in qs])


def _top_bits(q, den, s):
    """H, the top 64 bits of s * floor(q * 2^192 / den) mod 2^192."""
    return (s * ((q << 192) // den)) % 2**192 >> 128


def test_winding_fractions_bits_match_integer_expression():
    rng = np.random.default_rng(24)
    for nu in (1, 2, 3, 5, 6, 7):
        den = nu * 10**tw._SQRT_DIGITS
        qs = [0] + [_kernels._sqrt_fixed(r * nu) % den for r in (2, 3, 5, 6, 7, 10, 11, 15)]
        s = np.concatenate(([0, 1, 2**53 - 1], rng.integers(0, 2**53, 3000),
                            rng.integers(0, 10**7, 1000)))
        got = _kernels.winding_fractions(qs, den, s)
        assert np.array_equal(_bits(got), _bits(integer_fractions(qs, den, s)))
        assert not got[0].any() and not got[:, 0].any()


class _CountedInt(int):
    """An int that counts the products the integer fallback forms with it."""

    products = 0

    def __rmul__(self, other):
        type(self).products += 1
        return int.__rmul__(self, other)


def test_winding_fractions_of_a_zero_numerator_skip_the_fallback():
    # q = 0 (radicand 0, and the selected class's radicands) is 0.0 at every
    # s; its H = 0 would otherwise send the whole row to the integer path
    den = 5 * 10**tw._SQRT_DIGITS
    q = _kernels._sqrt_fixed(2 * 5) % den
    s = np.arange(0, 10**9, 10**6)
    _CountedInt.products = 0
    got = _kernels.winding_fractions([_CountedInt(0), q], den, s)
    assert _CountedInt.products == 0
    assert np.array_equal(_bits(got), _bits(integer_fractions([0, q], den, s)))


def test_winding_fractions_near_0_and_1():
    den = 3 * 10**tw._SQRT_DIGITS
    # s*q mod den is small, or den less a small amount: F below 2^-8, and F
    # within 2^-139 of 1; at q = den/3, s = 3, F is 0.0 and W wraps to 2^192 - 1
    qs = [den >> 9, den >> 40, 7, den - 1, den - 2, den - (den >> 60), den // 3]
    s = [1, 2, 3, 2**20, 2**53 - 1] * 13
    want = integer_fractions(qs, den, s)
    assert 0.0 < want[2, 0] < 2.0**-8 and den > 2**139  # F(q=den-1, s=1) = 1 - 1/den
    assert want[6, 2] == 0.0 and _top_bits(den // 3, den, 3) == 2**64 - 1
    assert np.array_equal(_bits(_kernels.winding_fractions(qs, den, s)), _bits(want))


def test_winding_fractions_at_a_rounding_midpoint():
    # an index whose H sits on a rounding midpoint: float64(H) rounds to
    # even, the true F lies just above H and rounds up, so only the
    # integer fallback gives the right bits
    den = 2 * 10**tw._SQRT_DIGITS
    q = _kernels._sqrt_fixed(3 * 2) % den
    for s in range(1, 10**5):
        top = _top_bits(q, den, s)
        if 2**56 <= top and float(top) * 2.0**-64 != (s * q) % den / den:
            break
    half = 1 << top.bit_length() - 54
    assert top % (2 * half) == half
    grid = list(range(s - 40, s + 40))
    assert np.array_equal(_bits(_kernels.winding_fractions([q], den, grid)),
                          _bits(integer_fractions([q], den, grid)))


@pytest.mark.parametrize("offset", [0, -1])
def test_winding_fractions_on_either_side_of_a_midpoint(offset):
    # den = 3*2^64 puts F*2^64 at a chosen value: mid + 1/3 (q = 3*mid + 1,
    # s = 1, H = mid), or mid itself, a tie that rounds to the upper float
    # (q = mid, s = 3, X = floor(mid*2^128/3), H = mid - 1).  The ambiguous H
    # are a midpoint and the integer below it
    den = 3 << 64
    for exp in (56, 60, 63):
        ulp = 1 << exp - 52
        # midpoints whose float below has an even and an odd mantissa; the
        # odd one must not be a multiple of 3
        even = (1 << exp) + 2 * ulp + ulp // 2
        odd = next(mid for j in range(3) if (mid := (1 << exp) + (2 * j + 1) * ulp + ulp // 2) % 3)
        q, s = (3 * even + 1, 1) if offset == 0 else (odd, 3)
        assert _top_bits(q, den, s) == (even if offset == 0 else odd - 1)
        want = integer_fractions([q], den, [s])
        assert float(_top_bits(q, den, s)) * 2.0**-64 != want[0, 0]
        got = _kernels.winding_fractions([q], den, [s] * tw._BATCH_MIN)
        assert np.array_equal(_bits(got), _bits(np.repeat(want, tw._BATCH_MIN, axis=1)))


def test_bound_profile_outside_the_fixed_width_range():
    # negative indices and indices of 2^53 or more take the integer path
    rng = np.random.default_rng(5)
    for m, ell in ((4, 2), (8, 3)):
        t_hat = float(rng.uniform(-5, 5))
        for extra in ([-1], [-10**12], [2**53], [2**60 + 3]):
            grid = list(range(0, 10**6, 10**4)) + extra
            assert np.array_equal(_bits(tw.bound_profile(m, ell, t_hat, grid)),
                                  _bits(scalar_profile(m, ell, t_hat, grid)))


def test_exact_batch_tie_at_pi_matches_remainder():
    # t = 2*pi + pi (rounded) is exactly 2*pi + pi: fmod gives pi, and
    # remainder's tie to an even quotient gives -pi
    t = tw.TWO_PI + math.pi
    assert t - tw.TWO_PI == math.pi
    for t_hat in (t, -t, math.pi, -math.pi):
        small = tw._exact_batch([[1]], 2, [0], t_hat)
        large = tw._exact_batch([[1]], 2, [0] * tw._BATCH_MIN, t_hat)
        for a, b in zip(small, large):
            assert np.array_equal(_bits(np.repeat(a, tw._BATCH_MIN, axis=-1)), _bits(b))
    assert tw._exact_batch([[1]], 2, [0] * tw._BATCH_MIN, t)[2][0, 0] == -math.pi


@pytest.mark.parametrize("dim", [20, 200])
def test_exact_flow_betas_bits_match_scalar_oracle(dim):
    rng = np.random.default_rng(dim)
    for cid in (i for i in oc.ION_IDS if oc.is_sideband(i)):
        for s in (0, 374, 10**12 + 7):
            nu_kernel = int(rng.choice([1, 2, 3, 5]))
            t_hat = float(rng.uniform(-5, 5))
            got = tw.exact_flow_betas(cid, dim, s, nu_kernel, t_hat)
            want = scalar_flow_betas(cid, dim, s, nu_kernel, t_hat)
            assert np.array_equal(_bits(got), _bits(want))


def test_exact_residual_periodicity_of_selected_class():
    # members of the selected class have radicand q^2 * kernel: the winding
    # contribution cancels identically, at any s
    for kernel in (1, 2, 3):
        for q in (1, 2, 3):
            for s in (0, 17, 10**7 + 3, 10**12 + 7):
                d = exact_residual(q * q * kernel, kernel, s, 0.0)
                assert d == 0.0
            d = exact_residual(q * q * kernel, kernel, 12345, 0.543)
            assert d == pytest.approx(
                math.remainder(q * math.sqrt(kernel) * 0.543, 2 * math.pi), abs=1e-13)


def test_exact_residual_matches_float_at_small_s():
    for (r, k, s, t) in [(2, 1, 5, 1.1), (3, 2, 40, -0.7), (7, 3, 123, 2.2)]:
        ref = math.remainder(math.sqrt(r) * (t + 2 * math.pi * s / math.sqrt(k)),
                             2 * math.pi)
        assert exact_residual(r, k, s, t) == pytest.approx(ref, abs=1e-10)


def test_exact_residual_guard_digits_suffice():
    # reimplement the reduction with twice the guard digits and compare at
    # winding indexes far beyond anything the searches ever return
    from math import isqrt

    def residual_hi(r, k, s, t, digits=100):
        den = k * 10**digits
        frac = (s * isqrt(r * k * 10 ** (2 * digits))) % den / den
        return math.remainder(math.sqrt(r) * t + 2 * math.pi * frac, 2 * math.pi)

    rng = np.random.default_rng(4)
    for _ in range(60):
        r = int(rng.integers(1, 60))
        k = int(rng.choice([1, 2, 3, 5, 6, 7]))
        s = int(rng.integers(0, 10**12))
        t = float(rng.uniform(-5, 5))
        assert exact_residual(r, k, s, t) == pytest.approx(
            residual_hi(r, k, s, t), abs=1e-12)


def test_expbart_periodicity_operator_level():
    # exp(t_bar U_ell) equals exp(t_hat U_ell) to 1e-12 via exact reduction
    req = tw.DecouplingRequest(id="V1r", m=4, ell=2, t_hat=1.3, eps=0.05)
    res = tw.find_decoupling_time(req)
    part = sd.resonance_partition(4)
    dim = 20
    (lj, lk, lt), lb_hat = tw.ell_class_betas("V1r", dim, part, 2, req.t_hat)
    cols_hat = np.eye(dim, dtype=complex)
    helpers.rotate(cols_hat, lj, lk, lb_hat, lt)
    # t_bar version through the exact winding reduction
    pj, pk, pc, pt, pr = oc.pair_arrays("V1r", dim)
    mask = sd.class_mask(part, 2, pr)
    betas_bar = np.array([math.copysign(1.0, c) *
                          exact_residual(int(r), res.nu_kernel, res.s, res.t_hat)
                          for c, r in zip(pc[mask], pr[mask])])
    cols_bar = np.eye(dim, dtype=complex)
    helpers.rotate(cols_bar, pj[mask], pk[mask], betas_bar, pt[mask])
    assert np.max(np.abs(cols_bar - cols_hat)) < 1e-12


def test_part_exponentials_commute_and_compose(rng):
    # exp(tU) equals the ordered product of the part exponentials
    for m in (3, 4, 8):
        op = oc.build_coupling("W2r", m + 2)
        dec = helpers.decompose(op, m)
        t = float(rng.uniform(-2, 2))
        terms = dec.parts + [dec.u_dec, dec.u_rho]
        prod = np.eye(op.dim, dtype=complex)
        for u in terms:
            prod = prod @ expm(t * u)
        ref = expm(t * helpers.dense(op))
        assert np.max(np.abs(prod - ref)) < 1e-12


# ---------------------------------------------------------------------------
# verify_sigma
# ---------------------------------------------------------------------------


def test_verify_sigma_trivial():
    req = tw.DecouplingRequest(id="V1r", m=3, ell=2, t_hat=0.0, eps=0.1)
    res = tw.find_decoupling_time(req)
    measured = tw.verify_sigma(req, res, dim_sim=16)
    assert measured == 0.0


def test_verify_sigma_toy():
    req = tw.DecouplingRequest(id="V1r", m=3, ell=2, t_hat=np.pi, eps=0.1)
    res = tw.find_decoupling_time(req)
    measured = tw.verify_sigma(req, res, dim_sim=16)
    assert measured <= res.bound + 1e-10
    assert measured > 0


@pytest.mark.parametrize("seed", range(6))
def test_verify_sigma_random(seed):
    # ell ranges over the nonzero classes: a winding step can never cancel
    # the integer-frequency class when the selected representative is 1
    rng = np.random.default_rng(seed)
    sides = [i for i in oc.ION_IDS if oc.is_sideband(i)]
    cid = sides[rng.integers(len(sides))]
    m = int(rng.choice([3, 4, 6]))
    part = sd.resonance_partition(m)
    ell = int(rng.integers(2, part.count + 1))
    t_hat = float(rng.uniform(-4, 4))
    req = tw.DecouplingRequest(id=cid, m=m, ell=ell, t_hat=t_hat, eps=0.1)
    res = tw.find_decoupling_time(req)
    measured = tw.verify_sigma(req, res, dim_sim=4 * (m + 1))
    assert measured <= res.bound + 1e-10
    assert res.bound < 0.1


@pytest.mark.parametrize("m,ell,offsets", [(4, 2, ((3, -0.7),)), (4, 3, ((2, 1.2),)),
                                           (6, 3, ((2, 0.4), (4, -1.1)))])
def test_verify_sigma_of_a_run(m, ell, offsets):
    # Sigma = exp(t_bar U) exp(-t_hat U_ell - sum tau_h U_h) is within the
    # run's certificate of the identity on Y
    req = tw.DecouplingRequest(id="W2r", m=m, ell=ell, t_hat=0.9, eps=0.3, offsets=offsets)
    res = tw.find_decoupling_time(req)
    measured = tw.verify_sigma(req, res, dim_sim=4 * (m + 1))
    assert 0.0 < measured <= res.bound + 1e-10


def test_verify_sigma_dim_check():
    req = tw.DecouplingRequest(id="V1r", m=4, ell=2, t_hat=0.0, eps=0.1)
    res = tw.find_decoupling_time(req)
    with pytest.raises(ValueError):
        tw.verify_sigma(req, res, dim_sim=12)


# ---------------------------------------------------------------------------
# density backstop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_density_backstop(p):
    rng = np.random.default_rng(p)
    part = sd.resonance_partition(p + 1)
    for _ in range(100):
        ell = int(rng.integers(2, part.count + 1))
        req = tw.DecouplingRequest(id="V1r", m=p + 1, ell=ell,
                                   t_hat=float(rng.uniform(-5, 5)),
                                   eps=0.05, s_max=10**7)
        res = tw.find_decoupling_time(req)
        assert res.bound < 0.05


@pytest.mark.xfail(strict=True, reason="five simultaneous quadratic irrationals "
                   "need winding indexes ~1e11 for eps=0.05; 1e7 cannot suffice")
def test_density_backstop_p7():
    req = tw.DecouplingRequest(id="V1r", m=8, ell=2, t_hat=1.37, eps=0.05,
                               s_max=10**7)
    tw.find_decoupling_time(req)


# ---------------------------------------------------------------------------
# lifted runs: per-class phase offsets
# ---------------------------------------------------------------------------


def _offset_phases(m, ell, t_hat, offsets):
    """t_hat - tau_h for classes h != ell in order, then the omega_m term."""
    tau = dict(offsets)
    count = sd.resonance_partition(m).count
    return [t_hat - tau.get(h, 0.0) for h in range(1, count + 1) if h != ell] + [t_hat]


def offset_bound(m, ell, t_hat, offsets, s):
    """Test-local exact oracle of a run's certificate at one index:
    sum over classes of max 2|sin(delta/2)|, delta the residual of
    sqrt(r) * (t_hat - tau_h + 2*pi*s/sqrt(nu))."""
    members, nu_kernel = tw._torus_data(m, ell)
    total = 0.0
    for rads, t in zip(members, _offset_phases(m, ell, t_hat, offsets)):
        total += max(2.0 * abs(math.sin(0.5 * scalar_residual(r, nu_kernel, s, t)))
                     for r in rads)
    return total


def _random_run(rng, m):
    """(ell, offsets): a run of two or more nonzero classes at order m."""
    count = sd.resonance_partition(m).count
    classes = [int(h) for h in rng.permutation(np.arange(2, count + 1))]
    size = int(rng.integers(2, len(classes) + 1))
    return classes[0], tuple((h, float(rng.uniform(-2, 2))) for h in classes[1:size])


@pytest.mark.parametrize("seed", range(6))
def test_scan_kernel_with_offsets_matches_block_scan(seed):
    # one phase per class: the kernel's enumeration returns what testing
    # every index returns, near s = 0 and far out
    rng = np.random.default_rng([seed, 17])
    for s_base in (0, 10**6, 10**10):
        m = int(rng.choice([4, 6, 8]))
        ell, offsets = _random_run(rng, m)
        members, nu_kernel = tw._torus_data(m, ell)
        phases = _offset_phases(m, ell, float(rng.uniform(-5, 5)), offsets)
        s0 = s_base + int(rng.integers(0, 10**5))
        s1 = s0 + int(rng.integers(10**4, 3 * 10**5))
        for eps, best_bound in ((float(rng.uniform(0.05, 0.5)), math.inf),
                                (0.01, float(rng.uniform(0.2, 1.0))),
                                (2.5, 3.0)):
            best = (-1 if best_bound == math.inf else 7, best_bound)
            _assert_scan_matches((members, nu_kernel, phases, eps, best, s0, s1),
                                 oracle=helpers.block_scan)


@pytest.mark.parametrize("m,seed", [(4, 0), (4, 1), (4, 2), (6, 0), (6, 1), (6, 2)])
def test_run_search_returns_the_smallest_qualifying_s(m, seed):
    # every index whose exact bound is below eps has a float bound below
    # eps + 1e-9 at these sizes, so the per-index scan offers each of them;
    # the first one the exact oracle accepts is the search's s
    rng = np.random.default_rng([seed, m])
    ell, offsets = _random_run(rng, m)
    t_hat = float(rng.uniform(-5, 5))
    eps = 0.15 if m == 4 else 0.3
    req = tw.DecouplingRequest(id="V2b", m=m, ell=ell, t_hat=t_hat, eps=eps,
                               s_max=10**7, offsets=offsets)
    res = tw.find_decoupling_time(req)
    assert res.bound < eps
    assert res.bound == pytest.approx(offset_bound(m, ell, t_hat, offsets, res.s), abs=1e-12)
    members, nu_kernel = tw._torus_data(m, ell)
    phases = _offset_phases(m, ell, t_hat, offsets)
    s = 0
    while True:
        cand = helpers.block_scan(members, nu_kernel, phases, eps + 1e-9, (-1, math.inf),
                                  s, res.s + 1)[0]
        assert cand >= 0
        if offset_bound(m, ell, t_hat, offsets, cand) < eps:
            break
        s = cand + 1
    assert cand == res.s


@pytest.mark.parametrize("m", [4, 6, 8])
def test_zero_offsets_give_the_scalar_bits(m):
    # t_hat - 0.0 == t_hat: a request whose offsets are all 0.0, the kernel
    # fed one phase per class and the exact evaluator alike give the bits
    # of the plain call
    rng = np.random.default_rng(m)
    count = sd.resonance_partition(m).count
    for ell in range(2, count + 1):
        t_hat = float(rng.uniform(-5, 5))
        zeros = tuple((h, 0.0) for h in range(1, count + 1) if h != ell)
        for eps, s_max in ((0.1, 10**7), (1e-4, 10**5)):
            plain = tw.DecouplingRequest(id="W1r", m=m, ell=ell, t_hat=t_hat, eps=eps,
                                         s_max=s_max)
            runs = dataclasses.replace(plain, offsets=zeros)
            try:
                want = tw.find_decoupling_time(plain)
            except SearchExhaustedError as exc:
                with pytest.raises(SearchExhaustedError) as got:
                    tw.find_decoupling_time(runs)
                assert (got.value.best_s, _bits(got.value.best_bound)) == \
                    (exc.best_s, _bits(exc.best_bound))
            else:
                got = tw.find_decoupling_time(runs)
                assert got == want
                assert _bits(got.per_class_error).tolist() == _bits(want.per_class_error).tolist()
        members, nu_kernel = tw._torus_data(m, ell)
        args = (0.2, (-1, math.inf), 10**6, 10**6 + 50000)
        assert _kernels.scan_decoupling(members, nu_kernel, [t_hat - 0.0] * len(members),
                                        *args) == \
            _kernels.scan_decoupling(members, nu_kernel, t_hat, *args)
        grid = [0, 17, 10**9 + 3]
        for a, b in zip(tw._exact_batch(members, nu_kernel, grid, [t_hat - 0.0] * len(members)),
                        tw._exact_batch(members, nu_kernel, grid, t_hat)):
            assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("offsets", [((2, 0.5),), ((3, 0.5), (3, 0.1)), ((9, 0.5),),
                                     ((3, math.nan),), ((0, 0.5),)])
def test_bad_offsets_rejected(offsets):
    req = tw.DecouplingRequest(id="V1r", m=4, ell=2, t_hat=1.0, eps=0.1, offsets=offsets)
    with pytest.raises(ValueError):
        tw.find_decoupling_time(req)
