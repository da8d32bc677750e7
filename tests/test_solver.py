import numpy as np
import pytest

from tripscreen import (Dataset, MetricProblem, SmoothedHingeLoss,
                        SolveConfig, TripletStatus, bb_step, build_triplets,
                        gaussian_blobs, lambda_max, loss_term, psd_split,
                        solve)
from tripscreen.bounds import gap
from conftest import random_instance, solve_oracle


def one_triplet_problem(h_root=1.2, gamma=0.05):
    # single anchor pair against one other-class point, d = 1
    x = np.array([[0.0], [h_root], [0.0]])
    # u = x0 - x2 = 0 gives H = -v v^T; flip roles so H is positive instead:
    x = np.array([[0.0], [0.0], [h_root]])
    y = np.array([0, 0, 1])
    ts = build_triplets(Dataset(x, y), k=1)
    prob = MetricProblem(ts, SmoothedHingeLoss(gamma))
    # both triplets share H = h_root^2 (u = +-h_root, v = 0)
    return prob, h_root ** 2


class TestBBStep:
    def test_proportional(self):
        dm = np.eye(3)
        for c in (0.5, 2.0, -3.0):
            assert np.isclose(bb_step(dm, c * dm, fallback=1.0), 1.0 / abs(c))

    def test_arithmetic(self):
        assert np.isclose(bb_step(np.eye(2), 2.0 * np.eye(2), fallback=9.9), 0.5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dm = rng.normal(size=(4, 4))
            dg = rng.normal(size=(4, 4))
            cross = np.vdot(dm, dg)
            expect = 0.5 * abs(cross / np.vdot(dg, dg) + np.vdot(dm, dm) / cross)
            assert np.isclose(bb_step(dm, dg, fallback=0.0), expect, rtol=1e-12)

    def test_fallbacks(self):
        z = np.zeros((2, 2))
        assert bb_step(z, np.eye(2), fallback=0.7) == 0.7  # zero cross product
        assert bb_step(np.eye(2), z, fallback=0.3) == 0.3  # zero curvature


class TestPgdSolve:
    def test_all_linear_regime_closed_form(self, small_problem):
        prob = small_problem
        lam = 2.0 * lambda_max(prob)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-10, max_iter=50_000))
        expect = psd_split(prob.sum_h()).plus / lam
        assert res.converged
        assert np.linalg.norm(res.metric - expect) <= 1e-6
        assert prob.categorize(res.metric).upper.size == 0
        alpha = prob.alpha_from_inner(prob.inner(res.metric))
        assert np.allclose(alpha, 1.0)

    def test_single_triplet_scalar_closed_form(self):
        prob, h = one_triplet_problem()
        gamma = prob.loss.gamma
        count = prob.n_triplets
        lam_knee = count * h ** 2 / (1.0 - gamma)
        for lam in (2.0 * lam_knee, 0.3 * lam_knee):
            res = solve(prob, lam, SolveConfig(gap_tol=1e-12, max_iter=50_000))
            if lam >= lam_knee:
                expect = count * h / lam          # linear part: alpha = 1
            else:
                expect = count * h / (gamma * lam + count * h ** 2)
            assert abs(res.metric[0, 0] - expect) <= 1e-8 * max(1.0, expect)

    def test_screening_does_not_change_optimum(self, small_problem):
        prob = small_problem
        lam = 0.03 * lambda_max(prob)
        plain = solve(prob, lam, SolveConfig(gap_tol=1e-9, max_iter=50_000))
        screened = solve(prob, lam, SolveConfig(
            gap_tol=1e-9, max_iter=50_000,
            bound="relaxed-path+projected-gradient", rule="sphere"))
        assert np.linalg.norm(plain.metric - screened.metric) <= 1e-6
        assert screened.n_lower + screened.n_upper > 0

    @pytest.mark.parametrize("bound,rule", [
        ("gradient", "sphere"), ("projected-gradient", "sphere"),
        ("dual-gap", "sphere"), ("relaxed-path", "sphere"),
        ("relaxed-path", "linear"), ("relaxed-path", "psd")])
    def test_screened_solves_match_across_configs(self, bound, rule):
        prob = random_instance(seed=50, n_lo=25, n_hi=25, d_lo=3, d_hi=3)
        lam = 0.05 * lambda_max(prob)
        base = solve(prob, lam, SolveConfig(gap_tol=1e-9, max_iter=50_000))
        res = solve(prob, lam, SolveConfig(gap_tol=1e-9, max_iter=50_000,
                                           bound=bound, rule=rule))
        assert res.converged
        assert np.linalg.norm(base.metric - res.metric) <= 1e-6

    def test_reports_loss_and_boundary_of_returned_metric(self, small_problem):
        prob = small_problem
        lam = 0.03 * lambda_max(prob)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-9, max_iter=50_000,
                                           bound="relaxed-path",
                                           rule="sphere"))
        assert res.n_lower + res.n_upper > 0
        assert np.isclose(res.loss_sum, loss_term(prob, res.metric),
                          rtol=1e-9)
        assert res.n_boundary == prob.categorize(res.metric).boundary.size

    def test_screened_statuses_are_safe(self, small_problem):
        prob = small_problem
        lam = 0.03 * lambda_max(prob)
        star = solve_oracle(prob, lam).metric
        part = prob.categorize(star)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-8, max_iter=50_000,
                                           bound="relaxed-path",
                                           rule="sphere"))
        lower = np.flatnonzero(res.statuses == TripletStatus.LOWER)
        upper = np.flatnonzero(res.statuses == TripletStatus.UPPER)
        assert np.isin(lower, part.lower).all()
        assert np.isin(upper, part.upper).all()

    def test_result_metric_in_cone(self, small_problem):
        prob = small_problem
        lam = 0.1 * lambda_max(prob)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-8))
        vals = np.linalg.eigvalsh(res.metric)
        assert vals.min() >= -1e-9 * max(1.0, np.linalg.norm(res.metric))

    def test_gap_reported_nonnegative_and_below_tol(self, small_problem):
        prob = small_problem
        lam = 0.07 * lambda_max(prob)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-7))
        assert res.converged and -1e-12 <= res.gap <= 1e-7

    def test_max_iter_exhaustion_flagged(self, small_problem):
        prob = small_problem
        lam = 0.03 * lambda_max(prob)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-30, max_iter=7))
        assert not res.converged and not res.stalled
        assert res.iterations == 7
        assert res.metric.shape == (prob.dim, prob.dim)
        # stopped between checkpoints: what it reports is of the last metric
        assert res.gap == gap(prob, res.metric, lam).value
        assert np.isclose(res.loss_sum, loss_term(prob, res.metric),
                          rtol=1e-12)
        assert res.n_boundary == prob.categorize(res.metric).boundary.size

    def test_stall_below_rounding_floor_flagged(self, small_problem):
        prob = small_problem
        lam = 0.03 * lambda_max(prob)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-40, max_iter=100_000,
                                           screen_every=1))
        assert res.stalled and not res.converged
        assert res.iterations <= 10_000
        assert 0.0 <= res.gap <= 1e-20

    @pytest.mark.parametrize("instance", [6, 9])
    def test_sweep_instances_reach_tight_gap(self, instance):
        # The safety sweep's draws (tests/test_acceptance.py, seed 2024): at
        # 0.3 lambda_max these two sat on the rounding floor of P - D, near
        # 2e-13, and ran to the iteration cap.
        rng = np.random.default_rng(2024)
        seeds = [int(rng.integers(1 << 30)) for _ in range(instance + 1)]
        prob = random_instance(seed=seeds[instance], n_lo=20, n_hi=50,
                               d_lo=2, d_hi=5, diagonal=instance % 4 == 3)
        lam = 0.3 * lambda_max(prob)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-13, max_iter=10_000))
        assert res.converged
        assert res.iterations <= 1_000

    def test_warm_start_projected_to_cone(self, small_problem):
        prob = small_problem
        lam = 0.1 * lambda_max(prob)
        bad = np.diag(np.linspace(-1.0, 1.0, prob.dim))
        res = solve(prob, lam, SolveConfig(gap_tol=1e-7), m0=bad)
        assert res.converged

    def test_prescreened_statuses_respected(self, small_problem):
        prob = small_problem
        lam = 0.03 * lambda_max(prob)
        star = solve_oracle(prob, lam).metric
        part = prob.categorize(star)
        statuses = np.zeros(prob.n_triplets, dtype=np.int8)
        statuses[part.lower[: len(part.lower) // 2]] = TripletStatus.LOWER
        statuses[part.upper[: len(part.upper) // 2]] = TripletStatus.UPPER
        res = solve(prob, lam, SolveConfig(gap_tol=1e-9, max_iter=50_000),
                    statuses=statuses)
        assert np.linalg.norm(res.metric - star) <= 1e-6
        kept = statuses != TripletStatus.UNKNOWN
        assert np.array_equal(res.statuses[kept], statuses[kept])

    def test_diagonal_mode(self):
        prob = random_instance(seed=51, diagonal=True)
        lam = 0.05 * lambda_max(prob)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-9, max_iter=50_000))
        assert res.converged
        assert res.metric.ndim == 1
        assert res.metric.min() >= 0.0
        screened = solve(prob, lam, SolveConfig(
            gap_tol=1e-9, max_iter=50_000, bound="relaxed-path",
            rule="nonneg"))
        assert np.linalg.norm(res.metric - screened.metric) <= 1e-6


class TestActiveSetSolve:
    def test_matches_plain_solver(self):
        for seed in (60, 61):
            prob = random_instance(seed=seed, n_lo=30, n_hi=30)
            lam = 0.05 * lambda_max(prob)
            plain = solve(prob, lam, SolveConfig(gap_tol=1e-9, max_iter=50_000))
            active = solve(prob, lam, SolveConfig(
                gap_tol=1e-9, max_iter=50_000, active_set=True))
            assert active.converged
            assert np.linalg.norm(plain.metric - active.metric) <= 1e-6

    def test_identical_when_all_triplets_active(self, small_problem):
        prob = small_problem
        lam = 1.2 * lambda_max(prob)  # everything stays in the linear part
        plain = solve(prob, lam, SolveConfig(gap_tol=1e-10, max_iter=50_000))
        active = solve(prob, lam, SolveConfig(gap_tol=1e-10, max_iter=50_000,
                                              active_set=True))
        # same gradient steps (working set == all), so the same iterates; the
        # stall detector may just certify the optimum a few iterations sooner
        assert active.iterations <= plain.iterations
        assert np.allclose(active.metric, plain.metric, rtol=0, atol=1e-12)

    def test_with_screening(self, small_problem):
        prob = small_problem
        lam = 0.03 * lambda_max(prob)
        plain = solve(prob, lam, SolveConfig(gap_tol=1e-9, max_iter=50_000))
        cfg = SolveConfig(gap_tol=1e-9, max_iter=50_000, active_set=True,
                          bound="relaxed-path", rule="sphere")
        res = solve(prob, lam, cfg)
        assert res.converged
        assert np.linalg.norm(plain.metric - res.metric) <= 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(gap_tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(screen_every=0)
        with pytest.raises(ValueError):
            SolveConfig(bound="nope")
        with pytest.raises(ValueError):
            SolveConfig(rule="nope")
