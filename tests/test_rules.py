import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripscreen import (MetricProblem, SmoothedHingeLoss, Sphere, TripletSet,
                        TripletStatus, eig_sym, gap_bound,
                        halfspace_from_iterate, lambda_max, lambda_ranges_all,
                        path_bound, psd_split, relaxed_path_bound, screen_all)
from tripscreen.rules import (_cone_tolerance, _first_step_in_cone,
                              _halfspace_min, _orthant_min, _sdls_batch,
                              _sphere_masks)
from conftest import (check_lambda_ranges, dense_h, grid_p2_extremes,
                      one_triplet, random_instance, reference_at,
                      numeric_p3_min, numeric_p4_min, solve_oracle, verdicts)

LOSS = SmoothedHingeLoss(0.05)


def scalar_triplet(u_val=1.0, v_val=0.0, diagonal=False):
    return one_triplet([u_val], [v_val], LOSS, diagonal=diagonal)


def make_triplet(rng, d):
    """One-triplet problem with random factors, and its dense H."""
    u = rng.normal(size=d)
    v = rng.normal(size=d)
    return one_triplet(u, v, LOSS), dense_h(u, v)


def mid_lambda(prob, frac=0.03):
    plus = psd_split(prob.sum_h()).plus
    return frac * max(prob.inner(plus).max(), 1.0)


class TestSphereRule:
    def test_upper_fires(self):
        prob = scalar_triplet()  # H = [[1]], norm 1
        s = Sphere(center=np.array([[3.0]]), radius=1.0)
        assert verdicts(prob, s)[0] == TripletStatus.UPPER

    def test_lower_fires(self):
        prob = scalar_triplet()
        s = Sphere(center=np.array([[-2.0]]), radius=1.0)
        assert verdicts(prob, s)[0] == TripletStatus.LOWER

    def test_unknown_between(self):
        prob = scalar_triplet()
        s = Sphere(center=np.array([[1.0]]), radius=1.0)
        assert verdicts(prob, s)[0] == TripletStatus.UNKNOWN

    def test_zero_radius_matches_partition(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        star = solve_oracle(prob, lam).metric
        s = Sphere(center=star, radius=0.0)
        part = prob.categorize(star)
        statuses = verdicts(prob, s)
        for t_idx in range(0, prob.n_triplets, 3):
            verdict = statuses[t_idx]
            if t_idx in part.upper:
                assert verdict == TripletStatus.UPPER
            elif t_idx in part.lower:
                assert verdict == TripletStatus.LOWER
            else:
                assert verdict == TripletStatus.UNKNOWN


class TestHalfSpace:
    def test_from_indefinite_iterate(self):
        hs = halfspace_from_iterate(np.diag([1.0, -2.0]))
        assert not hs.vacuous
        assert np.allclose(hs.normal, np.diag([0.0, 2.0]))

    def test_psd_iterate_is_vacuous(self):
        assert halfspace_from_iterate(np.diag([1.0, 2.0])).vacuous

    def test_contains_psd_cone(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-2)
        hs = next(h for h in (halfspace_from_iterate(
            ref.metric - (scale / lam) * prob.gradient(ref.metric, lam))
            for scale in (3.0, 10.0, 30.0, 100.0)) if not h.vacuous)
        rng = np.random.default_rng(0)
        d = prob.dim
        for _ in range(1000):
            b = rng.normal(size=(d, d))
            assert float(np.vdot(hs.normal, b @ b.T)) >= -1e-9


class TestLinearRule:
    def test_proportional_case_never_screens_upper(self):
        # H = 2P: the constrained minimum collapses to 0
        p = np.diag([0.0, 1.0])
        val = _halfspace_min(qh=np.array([2.0]), ph=np.array([2.0]),
                             hn=np.array([2.0]), pq=1.0, pp=1.0, r=2.0)
        assert val[0] == 0.0

    def test_feasible_ball_minimizer_matches_sphere(self):
        rng = np.random.default_rng(1)
        prob = random_instance(seed=40, d_lo=3, d_hi=3)
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-2)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        s = gap_bound(prob, ref.metric, alpha, lam)
        hs = next(h for h in (halfspace_from_iterate(
            ref.metric - (scale / lam) * prob.gradient(ref.metric, lam))
            for scale in (3.0, 10.0, 30.0, 100.0)) if not h.vacuous)
        p = hs.normal
        pq = float(np.vdot(p, s.center))
        qh, ph, hn = prob.inner(s.center), prob.inner(p), prob.h_norms
        nonzero = hn != 0
        feasible = nonzero & (pq - s.radius * ph / np.where(nonzero, hn, 1.0)
                              >= 0)
        mn = _halfspace_min(qh, ph, hn, pq, float(np.vdot(p, p)), s.radius)
        assert np.all(np.isclose(mn[feasible],
                                 qh[feasible] - s.radius * hn[feasible],
                                 rtol=1e-12))
        assert np.count_nonzero(feasible) > 0

    def test_values_match_numerical_solver(self):
        rng = np.random.default_rng(2)
        case3 = 0
        for trial in range(50):
            d = 3
            b = rng.normal(size=(d, d))
            q = b @ b.T / (5 * d)  # center near the cone boundary
            r = float(rng.uniform(0.8, 2.5))
            a = rng.normal(size=(d, d))
            a = (a + a.T) / 2 - 0.8 * np.eye(d)
            hs = halfspace_from_iterate(a)
            if hs.vacuous:
                continue
            p = hs.normal
            t, h = make_triplet(rng, d)
            hn = t.h_norms[0]
            if hn == 0:
                continue
            pq = float(np.vdot(p, q))
            pp = float(np.vdot(p, p))
            ph = t.inner(p)
            mn = _halfspace_min(t.inner(q), ph, t.h_norms, pq, pp, r)[0]
            if np.isnan(mn):
                continue
            if pq - r * ph[0] / hn < 0:
                case3 += 1
            ref = numeric_p4_min(q, r, p, h)
            scale = max(1.0, abs(ref))
            assert abs(mn - ref) <= 1e-6 * scale
        assert case3 >= 5  # the active-constraint branch must be exercised

    def test_sphere_dominance(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-1)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        s = gap_bound(prob, ref.metric, alpha, lam)
        hs = halfspace_from_iterate(
            ref.metric - (1.0 / lam) * prob.gradient(ref.metric, lam))
        s_verdict = verdicts(prob, s)
        l_verdict = verdicts(prob, s, rule="linear", halfspace=hs)
        decided = s_verdict != TripletStatus.UNKNOWN
        assert np.array_equal(l_verdict[decided], s_verdict[decided])


class TestPsdRule:
    def test_shortcut_returns_unknown(self):
        # the feasible center clears neither threshold (0.95 <= 0.97 <= 1),
        # so both ascents are skipped outright and no budget is consumed
        prob = scalar_triplet()
        s = Sphere(center=np.array([[0.97]]), radius=5.0)
        assert verdicts(prob, s, "psd", budget=0)[0] == TripletStatus.UNKNOWN
        assert verdicts(prob, s, "psd", budget=100)[0] == TripletStatus.UNKNOWN

    def test_upper_shortcut_blocks_ascent(self):
        # center value 0.5 <= 1: the zero-part side cannot be certified no
        # matter the budget (the linear-part side may still fire legitimately)
        prob = scalar_triplet()
        s = Sphere(center=np.array([[0.5]]), radius=0.2)
        assert verdicts(prob, s, "psd", budget=200)[0] != TripletStatus.UPPER

    def test_fires_when_sphere_fires(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-2)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        s = gap_bound(prob, ref.metric, alpha, lam)
        sv = verdicts(prob, s)[::2]
        pv = verdicts(prob, s, "psd", budget=50)[::2]
        decided = sv != TripletStatus.UNKNOWN
        assert np.array_equal(pv[decided], sv[decided])

    def test_linear_dominance(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-1)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        s = gap_bound(prob, ref.metric, alpha, lam)
        hs = halfspace_from_iterate(
            ref.metric - (1.0 / lam) * prob.gradient(ref.metric, lam))
        lv = verdicts(prob, s, "linear", halfspace=hs)
        pv = verdicts(prob, s, "psd", budget=300)
        decided = lv != TripletStatus.UNKNOWN
        assert np.array_equal(pv[decided], lv[decided])

    def test_verdicts_match_grid_minimization(self):
        rng = np.random.default_rng(3)
        decisive = 0
        trials = 0
        while decisive < 25 and trials < 400:
            trials += 1
            b = rng.normal(size=(2, 2))
            q = b @ b.T / 2
            r = float(rng.uniform(0.2, 1.2))
            t, h = make_triplet(rng, 2)
            if t.h_norms[0] == 0:
                continue
            gmin, gmax, band = grid_p2_extremes(q, r, h)
            s = Sphere(center=q, radius=r)
            verdict = verdicts(t, s, "psd", budget=300)[0]
            upper_true = gmin - 2 * band > 1.0
            upper_false = gmin < 1.0  # grid point is feasible: true min <= gmin
            lower_true = gmax + 2 * band < 1.0 - LOSS.gamma
            lower_false = gmax > 1.0 - LOSS.gamma
            if upper_true:
                decisive += 1
                assert verdict == TripletStatus.UPPER
            elif lower_true:
                decisive += 1
                assert verdict == TripletStatus.LOWER
            elif upper_false and lower_false:
                decisive += 1
                assert verdict == TripletStatus.UNKNOWN
        assert decisive >= 25

    def test_dual_values_respect_weak_duality(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = 3
            b = rng.normal(size=(d, d))
            q = b @ b.T / d
            t, h = make_triplet(rng, d)
            if t.h_norms[0] == 0:
                continue
            c = 1.0
            q_sq = float(np.vdot(q, q))
            for y in rng.uniform(-2.0, 2.0, size=8):
                plus = psd_split(q + y * h).plus
                dual = -float(np.vdot(plus, plus)) + 2.0 * c * y + q_sq
                denom = float(np.vdot(plus, h))
                if denom <= 1e-9:
                    continue
                x = plus * (c / denom)  # rescaled onto the constraint
                assert dual <= float(np.vdot(x - q, x - q)) + 1e-9

    def test_root_satisfies_constraint(self):
        from scipy.optimize import brentq
        rng = np.random.default_rng(5)
        d = 3
        b = rng.normal(size=(d, d))
        q = b @ b.T / d
        _, h = make_triplet(rng, d)
        c = 1.0

        def phi(y):
            plus = psd_split(q + y * h).plus
            return c - float(np.vdot(plus, h))

        if phi(0.0) == 0.0 or np.sign(phi(-50.0)) == np.sign(phi(50.0)):
            pytest.skip("no sign change in the probe window")
        y_star = brentq(phi, -50.0, 50.0, xtol=1e-13)
        plus = psd_split(q + y_star * h).plus
        assert abs(float(np.vdot(plus, h)) - c) <= 1e-6


def first_step_case(seed, d, rank, m=16):
    """A PSD center of the given rank (rank-deficient below d), m random
    triplets and a radius that leaves some of them to the PSD rule."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(d, rank))
    q = b @ b.T / rank
    u = rng.normal(size=(m, d))
    v = rng.normal(size=(m, d))
    zeros = np.zeros(m, dtype=int)
    prob = MetricProblem(TripletSet(zeros, zeros, zeros, u, v), LOSS)
    qh = prob.inner(q)
    c = np.where(qh > 1.0, 1.0, 1.0 - LOSS.gamma)
    dist = np.abs(qh - c) / prob.h_norms
    r = float(np.quantile(dist, rng.uniform(0.2, 0.9)) * rng.uniform(1.0, 2.0))
    return prob, q, r


def check_first_step(prob, q, r, budget=100):
    """Check the closed-form first step of the PSD rule on a PSD center.

    Every row it settles has min eig(Q + y0 H) >= -tau, and ``screen_all``
    gives the verdicts of the ascent run on every candidate row.  Returns
    the rows settled with y0 > 0 and y0 < 0, and the rows the ascent
    certified although Q + y0 H is not PSD.
    """
    ts = prob.triplets
    idx = np.arange(prob.n_triplets)
    low, up, qh, hn = _sphere_masks(prob, Sphere(center=q, radius=r), idx)
    open_rows = ~(low | up) & (hn > 0.0)
    settled_pos = settled_neg = certified_outside = 0
    for c, side, cand in ((1.0, up, open_rows & (qh > 1.0)),
                          (1.0 - LOSS.gamma, low,
                           open_rows & (qh < 1.0 - LOSS.gamma))):
        rows = np.flatnonzero(cand)
        if rows.size == 0:
            continue
        settled = _first_step_in_cone(prob, eig_sym(q), rows, c, qh[rows], r)
        tau = _cone_tolerance(ts.u[rows], ts.v[rows], r)
        fired = _sdls_batch(prob, q, r, rows, c, qh[rows], qh[rows], budget)
        side[rows[fired]] = True
        for k, row in enumerate(rows):
            y0 = (c - qh[row]) / ts.hnorm[row] ** 2
            x0 = q + y0 * dense_h(ts.u[row], ts.v[row])
            low_eig = np.linalg.eigvalsh(x0).min()
            if settled[k]:
                rounding = 1e-12 * max(1.0, np.linalg.norm(x0))
                assert low_eig >= -tau[k] - rounding
                settled_pos += y0 > 0
                settled_neg += y0 < 0
            elif fired[k] and low_eig < -1e-9:
                certified_outside += 1
    expect = np.zeros(prob.n_triplets, dtype=np.int8)
    expect[low & ~up] = TripletStatus.LOWER
    expect[up & ~low] = TripletStatus.UPPER
    got = verdicts(prob, Sphere(center=q, radius=r), "psd", budget=budget)
    assert np.array_equal(got, expect)
    return settled_pos, settled_neg, certified_outside


class TestPsdFirstStep:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.data())
    def test_closed_form_matches_ascent(self, seed, d, data):
        rank = data.draw(st.integers(1, d), label="rank")
        check_first_step(*first_step_case(seed, d, rank))

    def test_covers_both_signs_and_ascent_certificates(self):
        # fixed draws over d = 2..6 and every rank: the shortcut must fire
        # for both signs of y0, and the ascent must still certify rows whose
        # first step leaves the cone
        totals = np.zeros(3, dtype=int)
        for seed in range(40):
            for d in range(2, 7):
                prob, q, r = first_step_case(seed, d, 1 + seed % d)
                totals += check_first_step(prob, q, r)
        assert np.all(totals >= 20), totals

    def test_rank_one_h_goes_to_ascent(self):
        # v parallel to u: H has rank 1 and no tolerance exists
        prob = one_triplet([1.0, 2.0], [0.5, 1.0], LOSS)
        assert _cone_tolerance(prob.triplets.u, prob.triplets.v, 1.0)[0] == 0.0
        assert not _first_step_in_cone(prob, eig_sym(np.eye(2)), np.array([0]),
                                       1.0, prob.inner(np.eye(2)), 1.0)[0]


class TestNonnegRule:
    def test_scalar_example(self):
        prob = scalar_triplet(diagonal=True)  # diag(H) = [1]
        s = Sphere(center=np.array([3.0]), radius=1.0)
        assert verdicts(prob, s, "nonneg")[0] == TripletStatus.UPPER
        assert _orthant_min(np.array([1.0])[None], np.array([3.0]), 1.0)[0] == 2.0

    def test_inactive_constraint_equals_sphere_minimum(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = 4
            h = np.abs(rng.normal(size=d))
            q = np.abs(rng.normal(size=d)) + 2.0
            r = 0.5
            if np.any(q - r * h / np.linalg.norm(h) < 0):
                continue
            mn = _orthant_min(h[None], q, r)[0]
            assert np.isclose(mn, h @ q - r * np.linalg.norm(h), rtol=1e-9)

    def test_matches_numerical_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
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

    def test_batch_rows_match_numerical_solver(self):
        # One call over rows that exercise every branch of the kernel.
        q = np.array([1.0, 2.0, -0.2, 1.5, 0.0])
        r = 0.8
        h = np.array([
            [0.0, 0.0, 0.0, 0.0, 0.0],        # H = 0
            [0.4, 0.8, 0.1, -0.5, 0.3],       # breakpoints 0.2, 0.2, 0, 0, 0
            0.7 * q,                          # h parallel to q
            -0.7 * q,
            [1.0, -2.0, 0.5, 0.3, -0.4],      # mixed signs
            [-0.3, 0.2, -1.0, 0.0, 0.6],
            [2.0, -0.1, -0.5, -1.2, 0.0],
        ])
        mn = _orthant_min(h, q, r)
        assert mn.shape == (len(h),)
        assert mn[0] == 0.0
        for row, value in zip(h[1:], mn[1:]):
            ref = numeric_p3_min(q, r, row)
            assert abs(value - ref) <= 1e-6 * max(1.0, abs(ref)), (row, value)

    def test_face_inside_ball_gives_zero(self):
        # h >= 0: the minimum is 0 once the face {x_k = 0 where h_k > 0}
        # reaches into the ball, here at distance 0.36 < 0.5.
        q = np.array([0.3, 2.0, 0.2])
        mn = _orthant_min(np.array([[1.0, 0.0, 2.0], [1.0, 1.0, 2.0]]), q, 0.5)
        assert mn[0] == 0.0
        # With every coordinate weighted the face is the origin, outside.
        assert mn[1] > 0.0
        ref = numeric_p3_min(q, 0.5, np.array([1.0, 1.0, 2.0]))
        assert abs(mn[1] - ref) <= 1e-6 * max(1.0, abs(ref))

    def test_zero_radius_is_the_center(self):
        rng = np.random.default_rng(8)
        q = np.array([1.0, 0.0, 2.5, -1e-16])  # the last is within 1e-15
        h = rng.normal(size=(6, 4))
        assert np.array_equal(_orthant_min(h, q, 0.0),
                              h @ np.maximum(q, 0.0))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6))
    def test_never_exceeds_a_feasible_value(self, seed, d):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=d) + 0.5
        r = float(rng.uniform(0.1, 2.0))
        h = rng.normal(size=(8, d))
        h[rng.random((8, d)) < 0.3] = 0.0
        mn = _orthant_min(h, q, r)
        # Points of the ball pushed into the orthant, kept where still
        # strictly inside the ball.
        step = rng.normal(size=(200, d))
        step *= (r * rng.random((200, 1)) ** (1.0 / d)
                 / np.linalg.norm(step, axis=1, keepdims=True))
        x = np.maximum(q + step, 0.0)
        x = x[np.linalg.norm(x - q, axis=1) < r]
        if x.size == 0:
            return
        # A strictly feasible point exists: every row has a finite minimum.
        assert not np.isnan(mn).any()
        vals = h @ x.T
        assert np.all(mn[:, None] <= vals + 1e-12 * (1.0 + np.abs(vals)))

    def test_requires_diagonal_sphere(self):
        prob = scalar_triplet()
        s = Sphere(center=np.array([[1.0]]), radius=0.1)
        with pytest.raises(ValueError):
            verdicts(prob, s, "nonneg")

    def test_empty_intersection_returns_unknown(self):
        # The ball around -5 misses the orthant: no minimum to certify with.
        assert np.isnan(_orthant_min(np.array([1.0])[None], np.array([-5.0]),
                                     1.0)[0])
        # screen_all applies the sphere rule first (it would call the 1-d
        # ball LOWER), so the rule itself is checked where that is undecided:
        # diag(H) = [0.5, 1], <H, Q> = 0.5, ||H|| = 1.118.
        prob = one_triplet([1.0, 1.0], [np.sqrt(0.5), 0.0], LOSS,
                           diagonal=True)
        s = Sphere(center=np.array([-5.0, 3.0]), radius=1.0)
        assert verdicts(prob, s)[0] == TripletStatus.UNKNOWN
        assert verdicts(prob, s, "nonneg")[0] == TripletStatus.UNKNOWN


class TestLambdaRange:
    def test_precondition_failure_is_empty(self):
        m0 = np.array([[0.1]])
        prob = scalar_triplet()  # <H, M0> = 0.1; 0.1 - 2 + 0.1 < 0
        lo, hi = lambda_ranges_all(prob, m0, 0.0, 1.0)[:2]
        assert not lo[0] < hi[0]

    def test_zero_eps_consistency_at_reference_lambda(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = 3
            b = rng.normal(size=(d, d))
            m0 = b @ b.T / d
            t, _ = make_triplet(rng, d)
            lam0 = float(rng.uniform(0.5, 3.0))
            lo, hi = lambda_ranges_all(t, m0, 0.0, lam0)[:2]
            sphere0 = path_bound(m0, lam0, lam0)  # zero-radius ball at m0
            fired = verdicts(t, sphere0)[0] == TripletStatus.UPPER
            assert (lo[0] < lam0 < hi[0]) == fired

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_interval_matches_direct_evaluation(self, side):
        rng = np.random.default_rng(9 if side == "upper" else 10)
        tested = 0
        for _ in range(60):
            d = 4
            b = rng.normal(size=(d, d))
            m0 = b @ b.T / (2 * d)
            t, _ = make_triplet(rng, d)
            eps = float(abs(rng.normal()) * 0.05)
            lam0 = float(rng.uniform(0.5, 3.0))
            ranges = lambda_ranges_all(t, m0, eps, lam0)
            lo, hi = (ranges[:2] if side == "upper" else ranges[2:])
            lo, hi = lo[0], hi[0]
            empty = not lo < hi
            if empty:
                grid = np.geomspace(lam0 / 8, lam0 * 8, 17)
            else:
                top = hi if np.isfinite(hi) else 100 * max(lo, lam0)
                grid = np.geomspace(max(lo, 1e-6) / 2, 2 * top, 50)
            for lam in grid:
                if not empty:
                    near_lo = abs(lam - lo) <= 1e-9 * max(1.0, lo)
                    near_hi = np.isfinite(hi) and abs(lam - hi) <= 1e-9 * max(1.0, hi)
                    if near_lo or near_hi:
                        continue
                sphere = relaxed_path_bound(m0, eps, lam0, lam)
                verdict = verdicts(t, sphere)[0]
                want = TripletStatus.UPPER if side == "upper" else TripletStatus.LOWER
                assert (verdict == want) == (lo < lam < hi)
                tested += 1
        assert tested > 500

    def test_diagonal_mode_intervals(self):
        prob = random_instance(seed=41, diagonal=True)
        lam0 = 0.3 * lambda_max(prob)
        ref = reference_at(prob, lam0, 1e-3)
        eps = float(np.sqrt(2.0 * ref.gap / lam0))
        tested, nonempty = check_lambda_ranges(prob, ref.metric, eps, lam0)
        assert nonempty >= 20
        assert tested >= 50 * prob.n_triplets

    def test_negative_eps_rejected(self):
        prob = scalar_triplet()
        with pytest.raises(ValueError, match="eps"):
            lambda_ranges_all(prob, np.array([[0.1]]), -1e-9, 1.0)

    @pytest.mark.parametrize("lam0", [0.0, -1.0])
    def test_nonpositive_lam0_rejected(self, lam0):
        prob = scalar_triplet()
        with pytest.raises(ValueError, match="lam0"):
            lambda_ranges_all(prob, np.array([[0.1]]), 0.0, lam0)


class TestScreenAll:
    def test_zero_radius_leaves_boundary_unknown(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        star = solve_oracle(prob, lam).metric
        statuses = np.zeros(prob.n_triplets, dtype=np.int8)
        counts = screen_all(prob, Sphere(center=star, radius=0.0), statuses)
        assert counts.remaining == prob.categorize(star).boundary.size

    def test_idempotent(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-3)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        s = gap_bound(prob, ref.metric, alpha, lam)
        statuses = np.zeros(prob.n_triplets, dtype=np.int8)
        first = screen_all(prob, s, statuses)
        again = screen_all(prob, s, statuses)
        assert again.new_lower == 0 and again.new_upper == 0
        assert again.remaining == first.remaining

    def test_never_revokes(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-3)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        s = gap_bound(prob, ref.metric, alpha, lam)
        statuses = np.zeros(prob.n_triplets, dtype=np.int8)
        screen_all(prob, s, statuses)
        snapshot = statuses.copy()
        rogue = Sphere(center=ref.metric + 100.0, radius=1e-6)
        screen_all(prob, rogue, statuses)
        screened = snapshot != TripletStatus.UNKNOWN
        assert np.array_equal(statuses[screened], snapshot[screened])

    def test_cumulative_counts_monotone(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        statuses = np.zeros(prob.n_triplets, dtype=np.int8)
        prev_remaining = prob.n_triplets
        for level in (1e-1, 1e-2, 1e-4):
            ref = reference_at(prob, lam, level)
            alpha = prob.alpha_from_inner(prob.inner(ref.metric))
            s = gap_bound(prob, ref.metric, alpha, lam)
            counts = screen_all(prob, s, statuses)
            assert counts.remaining <= prev_remaining
            prev_remaining = counts.remaining

    def test_multiple_spheres_or_semantics(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-3)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        dgb = gap_bound(prob, ref.metric, alpha, lam)
        from tripscreen import gradient_bound, projected_gradient_bound
        pgb = projected_gradient_bound(gradient_bound(
            ref.metric, prob.gradient(ref.metric, lam), lam))
        single = np.zeros(prob.n_triplets, dtype=np.int8)
        screen_all(prob, dgb, single)
        both = np.zeros(prob.n_triplets, dtype=np.int8)
        screen_all(prob, [dgb, pgb], both)
        fired_single = np.count_nonzero(single)
        fired_both = np.count_nonzero(both)
        assert fired_both >= fired_single
