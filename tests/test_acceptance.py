"""Acceptance suite: one test per criterion, each printing a PASS line.

The expensive protocols (the safety/containment sweep and the large timed
benchmark) run once in module-scoped fixtures shared by the tests that
grade them.
"""

import time

import numpy as np
import pytest

from tripscreen import (MetricProblem, PathConfig, SmoothedHingeLoss,
                        SolveConfig, Sphere, TripletStatus, build_triplets,
                        dual_gap_bound, gap_bound, gaussian_blobs,
                        gradient_bound, halfspace_from_iterate, lambda_max,
                        path_bound, projected_gradient_bound,
                        relaxed_path_bound, run_path, screen_all, solve)
from tripscreen.rules import _halfspace_min, _orthant_min
from conftest import (check_lambda_ranges, dense_h, finite_diff_gradient,
                      grid_p2_cone_distance, grid_p2_extremes, kkt_reference,
                      numeric_p3_min, numeric_p4_min, one_triplet,
                      random_instance, solve_oracle, verdicts)

GAP_LEVELS = (1e-1, 1e-3, 1e-6)
LAM_FRACS = (0.3, 0.05, 0.01)
N_SAFETY_INSTANCES = 100
DECAY = 0.9


def ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def chained_references(problem, lam, levels=GAP_LEVELS, final_tol=1e-12):
    """References at successive gap levels from one warm-started chain,
    ending with a high-accuracy oracle solve."""
    refs = {}
    m0 = None
    for level in levels:
        res = solve(problem, lam,
                    SolveConfig(gap_tol=level, max_iter=400_000,
                                screen_every=1), m0=m0)
        assert res.converged
        refs[level] = res
        m0 = res.metric
    oracle = solve(problem, lam,
                   SolveConfig(gap_tol=min(final_tol, 1e-13),
                               max_iter=400_000), m0=m0)
    assert oracle.gap <= final_tol
    return refs, oracle


def spheres_for_reference(problem, lam, ref, rrpb_ref, lam0):
    """The five prescribed sphere bounds built from one reference."""
    m = ref.metric
    inner = problem.inner(m)
    alpha = problem.alpha_from_inner(inner)
    grad = problem.accumulate(problem.loss.grad(inner)) + lam * m
    gb = gradient_bound(m, grad, lam)
    out = {
        "gb": gb,
        "pgb": projected_gradient_bound(gb),
        "dgb": gap_bound(problem, m, alpha, lam, inner=inner),
        "cdgb": dual_gap_bound(problem, alpha, lam),
    }
    eps0 = np.sqrt(2.0 * max(rrpb_ref.gap, 0.0) / lam0)
    out["rrpb"] = relaxed_path_bound(rrpb_ref.metric, eps0, lam0, lam)
    return out, grad


@pytest.fixture(scope="module")
def safety_sweep():
    """Criteria 1 and 2 share this sweep over instances x lam x gap levels."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)
    false_hits = []
    containment_violations = []
    spheres_checked = 0
    verdicts = 0

    for inst in range(N_SAFETY_INSTANCES):
        diagonal = inst % 4 == 3  # every fourth instance runs diagonal mode
        prob = random_instance(seed=int(rng.integers(1 << 30)),
                               n_lo=20, n_hi=50, d_lo=2, d_hi=5,
                               diagonal=diagonal)
        lmax = lambda_max(prob)
        for frac in LAM_FRACS:
            lam = frac * lmax
            lam0 = lam / DECAY
            refs, oracle = chained_references(prob, lam)
            refs0, _ = chained_references(prob, lam0, final_tol=1e-9)
            part = prob.categorize(oracle.metric)
            lower_ok = np.zeros(prob.n_triplets, dtype=bool)
            upper_ok = np.zeros(prob.n_triplets, dtype=bool)
            lower_ok[part.lower] = True
            upper_ok[part.upper] = True

            for level in GAP_LEVELS:
                ref = refs[level]
                spheres, grad = spheres_for_reference(
                    prob, lam, ref, refs0[level], lam0)
                halfspace = None
                if not diagonal:
                    for scale in (1.0, 10.0, 100.0):
                        halfspace = halfspace_from_iterate(
                            ref.metric - (scale / lam) * grad)
                        if not halfspace.vacuous:
                            break
                rules = ("nonneg",) if diagonal else ("sphere", "linear", "psd")
                for name, sphere in spheres.items():
                    spheres_checked += 1
                    dist = float(np.linalg.norm(oracle.metric - sphere.center))
                    if dist > sphere.radius + 1e-9:
                        containment_violations.append(
                            (inst, frac, level, name, dist, sphere.radius))
                    for rule in rules:
                        statuses = np.zeros(prob.n_triplets, dtype=np.int8)
                        screen_all(prob, sphere, statuses, rule=rule,
                                   halfspace=halfspace, budget=30)
                        low = statuses == TripletStatus.LOWER
                        up = statuses == TripletStatus.UPPER
                        verdicts += int(low.sum() + up.sum())
                        bad_low = int(np.count_nonzero(low & ~lower_ok))
                        bad_up = int(np.count_nonzero(up & ~upper_ok))
                        if bad_low or bad_up:
                            false_hits.append(
                                (inst, frac, level, name, rule, bad_low, bad_up))
    elapsed = time.perf_counter() - t_start
    return {
        "false_hits": false_hits,
        "containment_violations": containment_violations,
        "spheres": spheres_checked,
        "verdicts": verdicts,
        "elapsed": elapsed,
    }


def test_criterion_01_safety(safety_sweep):
    data = safety_sweep
    assert data["false_hits"] == [], data["false_hits"][:5]
    assert data["elapsed"] <= 300.0, f"sweep took {data['elapsed']:.0f}s"
    ok("01 safety-suite",
       f"({N_SAFETY_INSTANCES} instances, {data['verdicts']} screened "
       f"verdicts, 0 false, {data['elapsed']:.0f}s)")


def test_criterion_02_containment(safety_sweep):
    data = safety_sweep
    assert data["containment_violations"] == [], \
        data["containment_violations"][:5]
    ok("02 containment-suite",
       f"({data['spheres']} spheres all contain the 1e-12 optimum)")


@pytest.fixture(scope="module")
def optimal_reference_cases():
    cases = []
    for seed in (101, 202, 303):
        prob = random_instance(seed=seed, n_lo=25, n_hi=40, d_lo=3, d_hi=5)
        lam0 = 0.05 * lambda_max(prob)
        m0, alpha0 = kkt_reference(prob, lam0)
        cases.append((prob, lam0, m0, alpha0))
    return cases


def test_criterion_03_gap_vs_path_bound(optimal_reference_cases):
    worst = 0.0
    for prob, lam0, m0, alpha0 in optimal_reference_cases:
        for ratio in (0.9, 0.7, 1.15):
            lam1 = ratio * lam0
            dgb = gap_bound(prob, m0, alpha0, lam1)
            rpb = path_bound(m0, lam0, lam1)
            err_r = abs(dgb.radius - 2.0 * rpb.radius)
            assert err_r <= 1e-9 * dgb.radius
            dist = float(np.linalg.norm(dgb.center - rpb.center))
            err_c = abs(dist - rpb.radius)
            assert err_c <= 1e-9 * rpb.radius
            assert dist + rpb.radius <= dgb.radius + 1e-9
            worst = max(worst, err_r / dgb.radius, err_c / rpb.radius)
    ok("03 theorem-8-relations", f"(worst relative error {worst:.2e})")


def test_criterion_04_projected_bound_vs_path_bound(optimal_reference_cases):
    worst = 0.0
    for prob, lam0, m0, alpha0 in optimal_reference_cases:
        xi = -prob.accumulate(alpha0)
        for ratio in (0.9, 0.8):
            lam1 = ratio * lam0
            rpb = path_bound(m0, lam0, lam1)
            pgb = projected_gradient_bound(
                gradient_bound(m0, xi + lam1 * m0, lam1))
            c_err = (np.linalg.norm(pgb.center - rpb.center)
                     / max(np.linalg.norm(rpb.center), 1e-300))
            r_err = abs(pgb.radius - rpb.radius) / max(rpb.radius, 1e-300)
            assert c_err <= 1e-9
            assert r_err <= 1e-9
            worst = max(worst, c_err, r_err)
        same = projected_gradient_bound(
            gradient_bound(m0, xi + lam0 * m0, lam0))
        assert same.radius <= 1e-6
    ok("04 theorem-7-and-4", f"(worst relative error {worst:.2e}, "
       "zero-radius at matched lambda)")


def test_criterion_05_linked_gap_bound_factor(optimal_reference_cases):
    worst = 0.0
    rng = np.random.default_rng(0)
    for prob, lam0, m0, alpha0 in optimal_reference_cases:
        for alpha in (alpha0, rng.uniform(size=prob.n_triplets)):
            linked = prob.m_of_alpha(alpha, lam0)
            dgb = gap_bound(prob, linked, alpha, lam0)
            cdgb = dual_gap_bound(prob, alpha, lam0)
            err = abs(cdgb.radius - dgb.radius / np.sqrt(2.0))
            assert err <= 1e-9 * max(dgb.radius, 1e-300)
            if dgb.radius > 0:
                worst = max(worst, err / dgb.radius)
    ok("05 linked-gap-sqrt2", f"(worst relative error {worst:.2e})")


def test_criterion_06_rule_oracles():
    loss = SmoothedHingeLoss(0.05)
    rng = np.random.default_rng(7)

    # ball & half-space closed form vs numerical solver, 50 instances, d = 3
    checked = 0
    while checked < 50:
        d = 3
        b = rng.normal(size=(d, d))
        q = b @ b.T / (5 * d)
        r = float(rng.uniform(0.8, 2.5))
        a = rng.normal(size=(d, d))
        a = (a + a.T) / 2 - 0.8 * np.eye(d)
        hs = halfspace_from_iterate(a)
        if hs.vacuous:
            continue
        u, v = rng.normal(size=d), rng.normal(size=d)
        t = one_triplet(u, v, loss)
        if t.h_norms[0] == 0.0:
            continue
        p = hs.normal
        mn = _halfspace_min(t.inner(q), t.inner(p), t.h_norms,
                            float(np.vdot(p, q)), float(np.vdot(p, p)), r)[0]
        if np.isnan(mn):
            continue
        ref = numeric_p4_min(q, r, p, dense_h(u, v))
        assert abs(mn - ref) <= 1e-6 * max(1.0, abs(ref))
        checked += 1

    # orthant closed form vs numerical solver, 50 instances, d = 5
    checked_p3 = 0
    while checked_p3 < 50:
        d = 5
        q = rng.normal(size=d) + 1.0
        r = float(rng.uniform(0.3, 1.5))
        if np.linalg.norm(np.minimum(q, 0.0)) > 0.9 * r:
            continue
        h = rng.normal(size=d)
        mn = _orthant_min(h[None], q, r)[0]
        if np.isnan(mn):
            continue
        ref = numeric_p3_min(q, r, h)
        assert abs(mn - ref) <= 1e-6 * max(1.0, abs(ref))
        checked_p3 += 1

    # PSD-rule verdicts vs dense grid minimization, 25 decisive d = 2 cases
    decisive = 0
    trials = 0
    while decisive < 25 and trials < 600:
        trials += 1
        b = rng.normal(size=(2, 2))
        q = b @ b.T / 2
        r = float(rng.uniform(0.2, 1.2))
        u, v = rng.normal(size=2), rng.normal(size=2)
        t = one_triplet(u, v, loss)
        if t.h_norms[0] == 0.0:
            continue
        gmin, gmax, band = grid_p2_extremes(q, r, dense_h(u, v))
        verdict = verdicts(t, Sphere(center=q, radius=r), "psd",
                           budget=300)[0]
        if gmin - 2 * band > 1.0:
            decisive += 1
            assert verdict == TripletStatus.UPPER
        elif gmax + 2 * band < 1.0 - loss.gamma:
            decisive += 1
            assert verdict == TripletStatus.LOWER
        elif gmin < 1.0 and gmax > 1.0 - loss.gamma:
            decisive += 1
            assert verdict == TripletStatus.UNKNOWN
    assert decisive >= 25

    # PSD-rule verdicts at r = 0.95, 0.99, 1.01 and 1.05 x the grid distance
    # rho from the center to the hyperplane <X, H> = c intersected with the
    # cone, where the sphere distance is at most 0.9 rho (so the cone
    # decides): the ball misses that set below rho and reaches it above
    near = 0
    trials = 0
    while near < 12 and trials < 400:
        trials += 1
        b = rng.normal(size=(2, 2))
        q = b @ b.T / 2
        u, v = rng.normal(size=2), rng.normal(size=2)
        t = one_triplet(u, v, loss)
        h = dense_h(u, v)
        qh = float(np.vdot(q, h))
        if qh > 1.0:
            c, status = 1.0, TripletStatus.UPPER
        elif qh < 1.0 - loss.gamma:
            c, status = 1.0 - loss.gamma, TripletStatus.LOWER
        else:
            continue
        rho = grid_p2_cone_distance(q, h, c)
        if rho is None or rho > 3.0 or abs(qh - c) > 0.9 * rho * t.h_norms[0]:
            continue
        near += 1
        for factor in (0.95, 0.99, 1.01, 1.05):
            verdict = verdicts(t, Sphere(center=q, radius=factor * rho), "psd",
                               budget=300)[0]
            expect = status if factor < 1.0 else TripletStatus.UNKNOWN
            assert verdict == expect, (factor, rho)
    assert near >= 12
    ok("06 rule-oracles", "(50 half-space, 50 orthant, 25 grid cases, "
       f"{near} near-threshold PSD cases)")


def test_criterion_07_lambda_ranges():
    loss = SmoothedHingeLoss(0.05)
    rng = np.random.default_rng(11)
    tested = 0
    nonempty = 0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        b = rng.normal(size=(d, d))
        m0 = b @ b.T / (2 * d)
        u, v = rng.normal(size=d), rng.normal(size=d)
        t = one_triplet(u, v, loss)
        eps = float(abs(rng.normal()) * 0.05)
        lam0 = float(rng.uniform(0.5, 4.0))
        counts = check_lambda_ranges(t, m0, eps, lam0)
        tested += counts[0]
        nonempty += counts[1]
    assert nonempty >= 20
    ok("07 lambda-ranges", f"({tested} grid evaluations, "
       f"{nonempty} nonempty intervals)")


def test_criterion_08_path_equivalence():
    data = gaussian_blobs(60, 5, 2, separation=2.0, seed=8, label_noise=0.2)
    prob = MetricProblem(build_triplets(data, k=3), SmoothedHingeLoss(0.05))
    base = PathConfig(decay=DECAY, solve=SolveConfig(
        gap_tol=1e-11, max_iter=400_000, bound="none"))
    scr = PathConfig(decay=DECAY, solve=SolveConfig(
        gap_tol=1e-11, max_iter=400_000,
        bound="relaxed-path+projected-gradient", rule="sphere"))
    out_base = run_path(prob, base)
    out_scr = run_path(prob, scr)
    assert len(out_base.records) == len(out_scr.records)
    worst = 0.0
    for rb, rs in zip(out_base.records, out_scr.records):
        assert np.isclose(rb.lam, rs.lam, rtol=1e-12)
        diff = float(np.linalg.norm(rb.result.metric - rs.result.metric))
        assert diff <= 1e-6
        worst = max(worst, diff)
        pb = prob.categorize(rb.result.metric)
        ps = prob.categorize(rs.result.metric)
        assert np.array_equal(pb.lower, ps.lower)
        assert np.array_equal(pb.boundary, ps.boundary)
        assert np.array_equal(pb.upper, ps.upper)
    assert any(r.rate_total > 0 for r in out_scr.records[1:])
    ok("08 path-equivalence",
       f"({len(out_base.records)} lambda steps, worst metric diff {worst:.2e},"
       " identical partitions)")


def test_criterion_09_gradient_check():
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 20:
        seed += 1
        prob = random_instance(seed=900 + seed, n_lo=15, n_hi=30,
                               d_lo=2, d_hi=4)
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(prob.dim, prob.dim))
        m = (b @ b.T) * rng.uniform(0.005, 0.05)
        lam = float(rng.uniform(0.5, 5.0))
        x = prob.inner(m)
        if np.minimum(np.abs(x - 1.0), np.abs(x - 0.95)).min() < 1e-4:
            continue  # too close to a kink for finite differences
        g = prob.gradient(m, lam)
        fd = finite_diff_gradient(prob, m, lam)
        rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
        assert rel <= 1e-5
        worst = max(worst, rel)
        checked += 1
    ok("09 gradient-check", f"(20 instances, worst relative error {worst:.2e})")


@pytest.fixture(scope="module")
def timed_benchmark():
    """Criteria 10 and 11: one large synthetic path, timed with and without
    screening on top of the active-set heuristic."""
    data = gaussian_blobs(2000, 19, 2, separation=2.0, seed=42,
                          label_noise=0.15)
    triplets = build_triplets(data, k=10)
    assert len(triplets) >= 200_000
    prob = MetricProblem(triplets, SmoothedHingeLoss(0.05))

    base_cfg = PathConfig(decay=DECAY, stop_threshold=0.01, solve=SolveConfig(
        gap_tol=1e-6, max_iter=100_000, active_set=True, bound="none"))
    scr_cfg = PathConfig(decay=DECAY, stop_threshold=0.01,
                         use_range_screening=True, solve=SolveConfig(
                             gap_tol=1e-6, max_iter=100_000, active_set=True,
                             bound="relaxed-path", rule="sphere"))
    t0 = time.perf_counter()
    out_base = run_path(prob, base_cfg)
    t_base = time.perf_counter() - t0
    t0 = time.perf_counter()
    out_scr = run_path(prob, scr_cfg)
    t_scr = time.perf_counter() - t0
    return {"n_triplets": len(triplets), "t_base": t_base, "t_scr": t_scr,
            "out_base": out_base, "out_scr": out_scr}


def test_criterion_10_relative_speedup(timed_benchmark):
    bench = timed_benchmark
    total = bench["t_base"] + bench["t_scr"]
    assert total <= 900.0, f"benchmark took {total:.0f}s"
    assert all(r.result.converged for r in bench["out_base"].records)
    assert all(r.result.converged for r in bench["out_scr"].records)
    ratio = bench["t_scr"] / bench["t_base"]
    assert ratio <= 0.7, (f"screened path {bench['t_scr']:.1f}s vs "
                          f"baseline {bench['t_base']:.1f}s")
    ok("10 relative-speedup",
       f"({bench['n_triplets']} triplets, baseline {bench['t_base']:.1f}s, "
       f"screened {bench['t_scr']:.1f}s, ratio {ratio:.2f} <= 0.7)")


def test_criterion_11_screening_rate(timed_benchmark):
    records = timed_benchmark["out_scr"].records
    n = len(records)
    mid = [r.rate_total for r in records[n // 3: 2 * n // 3 + 1]]
    assert mid, "path too short to have a mid section"
    peak = max(mid)
    median = float(np.median(mid))
    assert median >= 0.2, f"mid-path median rate {median:.2f} below 0.2"
    qualitative = "matches" if median >= 0.5 else "below"
    ok("11 screening-rate",
       f"(mid-path rate_total median {median:.2f}, peak {peak:.2f}; "
       f"{qualitative} the >=0.5 high-rate regime)")
