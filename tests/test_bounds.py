import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripscreen import (Sphere, SolveConfig, TripletStatus, dual_gap_bound,
                        gap_bound, gradient_bound, loss_term, path_bound,
                        projected_gradient_bound, psd_split,
                        relaxed_path_bound)
from tripscreen.bounds import gap
from conftest import kkt_reference, random_instance, reference_at, solve_oracle


def mid_lambda(prob, frac=0.03):
    plus = psd_split(prob.sum_h()).plus
    return frac * max(prob.inner(plus).max(), 1.0)


class TestGradientBound:
    def test_zero_gradient(self):
        m = np.eye(3)
        s = gradient_bound(m, np.zeros((3, 3)), 2.0)
        assert np.allclose(s.center, m)
        assert s.radius == 0.0

    def test_arithmetic(self):
        s = gradient_bound(np.eye(2), 2.0 * np.eye(2), 1.0)
        assert np.allclose(s.center, np.zeros((2, 2)))
        assert np.isclose(s.radius, np.sqrt(2.0))

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            gradient_bound(np.eye(2), np.eye(2), 0.0)

    def test_contains_optimum_from_rough_reference(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        star = solve_oracle(prob, lam).metric
        ref = reference_at(prob, lam, 1e-3)
        grad = prob.gradient(ref.metric, lam)
        s = gradient_bound(ref.metric, grad, lam)
        assert np.linalg.norm(star - s.center) <= s.radius + 1e-9


class TestProjectedGradientBound:
    def test_diagonal_split_arithmetic(self):
        base = Sphere(center=np.diag([1.0, -1.0]), radius=np.sqrt(3.0))
        s = projected_gradient_bound(base)
        assert np.allclose(s.center, np.diag([1.0, 0.0]))
        assert np.isclose(s.radius ** 2, 2.0)

    def test_psd_center_unchanged(self):
        base = Sphere(center=np.diag([1.0, 2.0]), radius=0.5)
        s = projected_gradient_bound(base)
        assert np.allclose(s.center, base.center)
        assert np.isclose(s.radius, base.radius)

    def test_radius_never_exceeds_gradient_bound(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        for level in (1e-1, 1e-3):
            ref = reference_at(prob, lam, level)
            gb = gradient_bound(ref.metric, prob.gradient(ref.metric, lam), lam)
            pgb = projected_gradient_bound(gb)
            assert pgb.radius <= gb.radius + 1e-15

    def test_zero_radius_with_injected_subgradient(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        m0, alpha0 = kkt_reference(prob, lam)
        grad = -prob.accumulate(alpha0) + lam * m0
        pgb = projected_gradient_bound(gradient_bound(m0, grad, lam))
        assert pgb.radius <= 1e-6

    def test_negative_radius_clamped(self):
        base = Sphere(center=np.diag([1.0, -5.0]), radius=0.1)
        s = projected_gradient_bound(base)
        assert s.radius == 0.0
        assert s.radius_clamped


class TestGapKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.0, max_value=1.0))
    def test_fenchel_young_form_equals_p_minus_d(self, small_problem, seed,
                                                 lam, scale):
        prob = small_problem
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(prob.dim, prob.dim))
        m = scale * (b @ b.T) / prob.dim
        alpha = rng.uniform(size=prob.n_triplets)
        pinned = rng.uniform(size=alpha.size) < 0.3
        alpha[pinned] = rng.integers(0, 2, size=int(pinned.sum()))
        value = gap(prob, m, lam, alpha=alpha).value
        p = prob.primal_value(m, lam)
        d = prob.dual_value(alpha, lam)
        assert value >= 0.0
        # P - D, the reference, carries rounding of order eps * max(|P|, |D|)
        assert abs(value - (p - d)) <= 1e-9 * max(1.0, abs(p), abs(d))

    def test_weights_read_from_loss(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-2)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        g = gap(prob, ref.metric, lam)
        assert np.array_equal(g.alpha, alpha)
        assert np.isclose(g.value, prob.duality_gap(ref.metric, alpha, lam),
                          rtol=1e-9)
        assert np.isclose(g.loss_sum, loss_term(prob, ref.metric), rtol=1e-12)

    def test_reduced_gap_with_pins_that_hold(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        m = reference_at(prob, lam, 1e-2).metric
        x = prob.inner(m)
        full = gap(prob, m, lam)
        # no statuses and all-unknown statuses are the same objective
        none = gap(prob, m, lam, np.zeros(prob.n_triplets, dtype=np.int8))
        assert none.value == full.value
        statuses = np.zeros(prob.n_triplets, dtype=np.int8)
        lower = np.flatnonzero(x < 1.0 - prob.loss.gamma)
        upper = np.flatnonzero(x > 1.0)
        statuses[lower[::2]] = TripletStatus.LOWER
        statuses[upper[::2]] = TripletStatus.UPPER
        reduced = gap(prob, m, lam, statuses)
        unknown = np.flatnonzero(statuses == TripletStatus.UNKNOWN)
        assert np.array_equal(reduced.rows, unknown)
        assert reduced.x.shape == unknown.shape
        assert reduced.value <= full.value + 1e-12 * max(1.0, full.value)
        assert np.isclose(reduced.loss_sum, full.loss_sum, rtol=1e-12)


class TestGapBound:
    def test_radius_formula(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        ref = reference_at(prob, lam, 1e-2)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        s = gap_bound(prob, ref.metric, alpha, lam)
        gap = prob.duality_gap(ref.metric, alpha, lam)
        assert np.isclose(s.radius, np.sqrt(2.0 * max(gap, 0.0) / lam), rtol=1e-9)
        assert s.center is not None and np.allclose(s.center, ref.metric)

    def test_zero_at_optimum(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        m0, alpha0 = kkt_reference(prob, lam)
        s = gap_bound(prob, m0, alpha0, lam)
        assert s.radius <= 1e-6

    def test_contains_optimum(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        star = solve_oracle(prob, lam).metric
        for level in (1e-1, 1e-4):
            ref = reference_at(prob, lam, level)
            alpha = prob.alpha_from_inner(prob.inner(ref.metric))
            s = gap_bound(prob, ref.metric, alpha, lam)
            assert np.linalg.norm(star - s.center) <= s.radius + 1e-9


class TestDualGapBound:
    def test_zero_at_optimal_alpha(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        _, alpha0 = kkt_reference(prob, lam)
        s = dual_gap_bound(prob, alpha0, lam)
        assert s.radius <= 1e-6

    def test_sqrt2_factor_with_linked_reference(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        rng = np.random.default_rng(0)
        alpha = rng.uniform(size=prob.n_triplets)
        linked_m = prob.m_of_alpha(alpha, lam)
        dgb = gap_bound(prob, linked_m, alpha, lam)
        cdgb = dual_gap_bound(prob, alpha, lam)
        assert abs(cdgb.radius - dgb.radius / np.sqrt(2.0)) <= 1e-9 * dgb.radius
        assert np.allclose(cdgb.center, linked_m)

    def test_contains_optimum(self, small_problem):
        prob = small_problem
        lam = mid_lambda(prob)
        star = solve_oracle(prob, lam).metric
        ref = reference_at(prob, lam, 1e-3)
        alpha = prob.alpha_from_inner(prob.inner(ref.metric))
        s = dual_gap_bound(prob, alpha, lam)
        assert np.linalg.norm(star - s.center) <= s.radius + 1e-9


class TestPathBound:
    def test_same_lambda_degenerates(self):
        m = np.diag([1.0, 2.0])
        s = path_bound(m, 3.0, 3.0)
        assert np.allclose(s.center, m)
        assert s.radius == 0.0

    def test_arithmetic(self):
        m = np.array([[1.0]])
        s = path_bound(m, 2.0, 1.0)
        assert np.allclose(s.center, 1.5 * m)
        assert np.isclose(s.radius, 0.5)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            path_bound(np.eye(2), -1.0, 1.0)

    def test_relation_to_gap_bound_at_optimum(self, small_problem):
        prob = small_problem
        lam0 = mid_lambda(prob)
        lam1 = 0.9 * lam0
        m0, alpha0 = kkt_reference(prob, lam0)
        dgb = gap_bound(prob, m0, alpha0, lam1)
        rpb = path_bound(m0, lam0, lam1)
        assert abs(dgb.radius - 2.0 * rpb.radius) <= 1e-9 * dgb.radius
        dist = np.linalg.norm(dgb.center - rpb.center)
        assert abs(dist - rpb.radius) <= 1e-9 * rpb.radius
        assert dist + rpb.radius <= dgb.radius + 1e-9

    def test_matches_projected_gradient_bound_with_injection(self, small_problem):
        prob = small_problem
        lam0 = mid_lambda(prob)
        lam1 = 0.85 * lam0
        m0, alpha0 = kkt_reference(prob, lam0)
        rpb = path_bound(m0, lam0, lam1)
        grad = -prob.accumulate(alpha0) + lam1 * m0
        pgb = projected_gradient_bound(gradient_bound(m0, grad, lam1))
        scale = max(np.linalg.norm(rpb.center), 1e-12)
        assert np.linalg.norm(pgb.center - rpb.center) <= 1e-9 * scale
        assert abs(pgb.radius - rpb.radius) <= 1e-9 * max(rpb.radius, 1e-12)


class TestRelaxedPathBound:
    def test_zero_eps_equals_path_bound(self):
        m = np.diag([0.3, 1.1])
        a = relaxed_path_bound(m, 0.0, 2.0, 1.4)
        b = path_bound(m, 2.0, 1.4)
        assert np.allclose(a.center, b.center)
        assert np.isclose(a.radius, b.radius)

    def test_same_lambda_gives_eps_ball(self):
        m = np.diag([0.3, 1.1])
        s = relaxed_path_bound(m, 0.07, 2.0, 2.0)
        assert np.allclose(s.center, m)
        assert np.isclose(s.radius, 0.07)

    def test_arithmetic(self):
        m = np.array([[2.0]])  # norm 2
        s = relaxed_path_bound(m, 0.01, 1.0, 0.9)
        expect = (0.1 / 1.8) * 2.0 + (0.1 + 1.9) / 1.8 * 0.01
        assert np.isclose(s.radius, expect)
        assert np.isclose(expect, 0.12222, atol=1e-5)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            relaxed_path_bound(np.eye(2), -0.1, 1.0, 0.9)

    def test_contains_next_optimum(self, small_problem):
        prob = small_problem
        lam0 = mid_lambda(prob)
        lam1 = 0.9 * lam0
        star1 = solve_oracle(prob, lam1).metric
        ref = reference_at(prob, lam0, 1e-4)
        eps = np.sqrt(2.0 * max(ref.gap, 0.0) / lam0)
        s = relaxed_path_bound(ref.metric, eps, lam0, lam1)
        assert np.linalg.norm(star1 - s.center) <= s.radius + 1e-9
