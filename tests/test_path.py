import numpy as np
import pytest

from tripscreen import (Dataset, MetricProblem, PathConfig, SmoothedHingeLoss,
                        SolveConfig, TripletStatus, build_triplets,
                        gaussian_blobs, lambda_max, loss_term, psd_split,
                        run_path, solve)
from conftest import solve_oracle


def gaussian_problem(seed=0, n=60, d=5, k=3, gamma=0.05, separation=2.0,
                     label_noise=0.2):
    # label noise keeps the loss curve from decaying all the way to zero, so
    # the path terminates mid-way like on real overlapping-class data
    data = gaussian_blobs(n, d, 2, separation=separation, seed=seed,
                          label_noise=label_noise)
    return MetricProblem(build_triplets(data, k=k), SmoothedHingeLoss(gamma))


class TestLambdaMax:
    def test_single_triplet_scalar(self):
        x = np.array([[0.0], [0.0], [1.3]])
        y = np.array([0, 0, 1])
        ts = build_triplets(Dataset(x, y), k=1)
        prob = MetricProblem(ts, SmoothedHingeLoss(0.05))
        # two identical triplets with H = 1.69 each; the accumulated matrix is
        # their sum, so the threshold is <H, [sum H]_+> / (1 - gamma)
        h = 1.3 ** 2
        assert np.isclose(lambda_max(prob), h * (2 * h) / 0.95)

    def test_all_linear_certificate_above_threshold(self, small_problem):
        prob = small_problem
        lam = 2.0 * lambda_max(prob)
        res = solve(prob, lam, SolveConfig(gap_tol=1e-10, max_iter=50_000))
        part = prob.categorize(res.metric)
        assert part.upper.size == 0
        assert np.allclose(prob.alpha_from_inner(prob.inner(res.metric)), 1.0)

    def test_upper_set_nonempty_below_threshold(self, small_problem):
        prob = small_problem
        lam = 0.5 * lambda_max(prob)
        res = solve_oracle(prob, lam, tol=1e-10)
        assert prob.categorize(res.metric).upper.size > 0

    def test_degenerate_sum_gets_sentinel(self):
        # same-class pairs far apart and the other class on top of the anchor
        # make every comparison matrix negative
        x = np.array([[0.0], [10.0], [0.001], [10.001]])
        y = np.array([0, 0, 1, 1])
        ts = build_triplets(Dataset(x, y), k=1)
        prob = MetricProblem(ts, SmoothedHingeLoss(0.05))
        assert psd_split(prob.sum_h()).plus.max() == 0.0
        assert lambda_max(prob) == 1.0

    def test_gamma_one_rejected(self):
        prob = gaussian_problem(gamma=1.0)
        with pytest.raises(ValueError):
            lambda_max(prob)


class TestLossTerm:
    def test_excludes_regularizer(self, small_problem):
        prob = small_problem
        rng = np.random.default_rng(0)
        b = rng.normal(size=(prob.dim, prob.dim))
        m = (b @ b.T) / 50.0
        lam = 3.0
        assert np.isclose(loss_term(prob, m),
                          prob.primal_value(m, lam) - 0.5 * lam * np.vdot(m, m))


class TestRunPath:
    def test_geometric_schedule_and_termination(self):
        prob = gaussian_problem(seed=1)
        cfg = PathConfig(decay=0.9, stop_threshold=0.01,
                         solve=SolveConfig(gap_tol=1e-8, max_iter=100_000))
        out = run_path(prob, cfg)
        lams = out.lambdas
        assert len(lams) >= 3
        assert np.all(np.diff(lams) < 0)
        assert np.allclose(lams[1:] / lams[:-1], 0.9, rtol=1e-12)
        # the reported loss terms justify the stop exactly where it happened
        losses = [r.loss_term for r in out.records]
        for k in range(1, len(losses)):
            ratio = ((losses[k - 1] - losses[k]) / losses[k - 1]
                     * (lams[k - 1] / (lams[k - 1] - lams[k])))
            if k < len(losses) - 1:
                assert ratio >= cfg.stop_threshold
            else:
                assert ratio < cfg.stop_threshold

    @pytest.mark.parametrize("rule", ["sphere", "linear", "psd"])
    def test_screening_on_equals_off(self, rule):
        prob = gaussian_problem(seed=2)
        # the gap tolerance controls how far each run can sit from the true
        # optimum; 1e-11 keeps both within a fraction of the 1e-6 budget
        base = PathConfig(decay=0.9, solve=SolveConfig(
            gap_tol=1e-11, max_iter=200_000, bound="none"))
        scr = PathConfig(decay=0.9, solve=SolveConfig(
            gap_tol=1e-11, max_iter=200_000,
            bound="relaxed-path+projected-gradient", rule=rule))
        out_base = run_path(prob, base)
        out_scr = run_path(prob, scr)
        assert len(out_base.records) == len(out_scr.records)
        for rb, rs in zip(out_base.records, out_scr.records):
            assert np.isclose(rb.lam, rs.lam, rtol=1e-12)
            assert np.linalg.norm(rb.result.metric - rs.result.metric) <= 1e-6
        # screening actually did something
        assert any(r.rate_total > 0 for r in out_scr.records[1:])

    def test_path_screening_is_safe(self):
        prob = gaussian_problem(seed=3, n=40, d=4)
        cfg = PathConfig(decay=0.9, solve=SolveConfig(
            gap_tol=1e-8, max_iter=100_000, bound="relaxed-path",
            rule="sphere"))
        out = run_path(prob, cfg)
        for rec in out.records:
            # Warm-started from the path's metric; the oracle still certifies
            # its own full-objective gap.
            star = solve_oracle(prob, rec.lam, tol=1e-12, m0=rec.result.metric)
            part = prob.categorize(star.metric)
            lower = np.flatnonzero(rec.result.statuses == TripletStatus.LOWER)
            upper = np.flatnonzero(rec.result.statuses == TripletStatus.UPPER)
            assert np.isin(lower, part.lower).all()
            assert np.isin(upper, part.upper).all()

    def test_range_screening_consistent_and_exercised(self):
        prob = gaussian_problem(seed=4, n=50, d=4)
        solve_cfg = SolveConfig(gap_tol=1e-8, max_iter=100_000,
                                bound="relaxed-path", rule="sphere")
        plain = run_path(prob, PathConfig(decay=0.9, solve=solve_cfg))
        ranged = run_path(prob, PathConfig(decay=0.9, solve=solve_cfg,
                                           use_range_screening=True))
        assert len(plain.records) == len(ranged.records)
        hits = sum(r.range_hits for r in ranged.records)
        assert hits > 0
        for rp, rr in zip(plain.records, ranged.records):
            assert np.linalg.norm(rp.result.metric - rr.result.metric) <= 1e-6
            # everything pre-fixed before the solve must stay consistent with
            # the final verdicts of the unranged run
            assert rr.result.n_lower + rr.result.n_upper > 0 or rr.lam == plain.lambda_max

    def test_flat_loss_stops_immediately(self):
        # all comparison matrices are negative, so the zero metric is optimal
        # at every lam and the loss is flat: the ratio is 0 on the first
        # transition and the path stops after two steps
        x = np.array([[0.0], [10.0], [0.001], [10.001]])
        y = np.array([0, 0, 1, 1])
        prob = MetricProblem(build_triplets(Dataset(x, y), k=1),
                             SmoothedHingeLoss(0.05))
        cfg = PathConfig(decay=0.9, solve=SolveConfig(gap_tol=1e-8,
                                                      max_iter=200_000))
        out = run_path(prob, cfg)
        assert len(out.records) == 2
        assert out.records[0].loss_term == out.records[1].loss_term

    def test_rates_in_unit_interval(self):
        prob = gaussian_problem(seed=6, n=40, d=3)
        cfg = PathConfig(decay=0.9, solve=SolveConfig(
            gap_tol=1e-8, max_iter=100_000, bound="relaxed-path",
            rule="sphere"))
        out = run_path(prob, cfg)
        for rec in out.records:
            assert 0.0 <= rec.rate_total <= 1.0
            assert 0.0 <= rec.rate_screenable <= 1.0
            assert rec.rate_screenable >= rec.rate_total - 1e-12

    def test_diagonal_mode_path(self):
        data = gaussian_blobs(40, 4, 2, separation=2.0, seed=7)
        prob = MetricProblem(build_triplets(data, k=3),
                             SmoothedHingeLoss(0.05), diagonal=True)
        cfg = PathConfig(decay=0.9, solve=SolveConfig(
            gap_tol=1e-8, max_iter=100_000, bound="relaxed-path",
            rule="nonneg"))
        out = run_path(prob, cfg)
        assert all(r.result.converged for r in out.records)
        assert all(r.result.metric.min() >= 0 for r in out.records)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PathConfig(decay=1.5)
        with pytest.raises(ValueError):
            PathConfig(stop_threshold=0.0)
