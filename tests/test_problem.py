import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripscreen import (Dataset, MetricProblem, SmoothedHingeLoss,
                        SolveConfig, build_triplets, gaussian_blobs,
                        psd_split)
from tripscreen import problem as problem_module
from conftest import dense_h, finite_diff_gradient, random_instance, solve_oracle


class TestLoss:
    def test_zero_part(self):
        for g in (0.0, 0.05, 0.5):
            loss = SmoothedHingeLoss(g)
            assert loss.value(2.0) == 0.0
            assert loss.grad(2.0) == 0.0

    def test_smoothed_boundary(self):
        loss = SmoothedHingeLoss(0.05)
        assert np.isclose(loss.value(0.95), 0.025)
        assert np.isclose(loss.grad(0.95), -1.0)

    def test_linear_part(self):
        loss = SmoothedHingeLoss(0.05)
        assert np.isclose(loss.value(-1.0), 1.975)
        assert loss.grad(-1.0) == -1.0

    def test_hinge_kink_default_subgradient(self):
        loss = SmoothedHingeLoss(0.0)
        assert loss.value(1.0) == 0.0
        assert loss.grad(1.0) == 0.0
        assert loss.grad(1.0 - 1e-12) == -1.0

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            SmoothedHingeLoss(-0.1)
        with pytest.raises(ValueError):
            SmoothedHingeLoss(1.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=0, max_value=1))
    def test_value_and_grad_ranges(self, x, gamma):
        loss = SmoothedHingeLoss(gamma)
        assert loss.value(x) >= 0.0
        assert -1.0 <= loss.grad(x) <= 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-5, max_value=5))
    def test_grad_matches_finite_difference(self, x):
        loss = SmoothedHingeLoss(0.05)
        h = 1e-7
        for kink in (1.0, 0.95):
            if abs(x - kink) < 1e-3:
                return
        fd = (loss.value(x + h) - loss.value(x - h)) / (2 * h)
        assert np.isclose(loss.grad(x), fd, atol=1e-6)


class TestDataset:
    def test_validations(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 2)), np.array([0]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([1, 1, 1]))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([0, 1]))


class TestBuildTriplets:
    def test_two_by_two_exhaustive(self):
        x = np.array([[0.0], [1.0], [5.0], [6.0]])
        y = np.array([0, 0, 1, 1])
        ts = build_triplets(Dataset(x, y), k=None)
        assert len(ts) == 8

    def test_tiny_line_example(self):
        # anchors 0 and 1 pair with each other; sample 2 is the other class
        x = np.array([[0.0], [0.1], [1.0]])
        y = np.array([0, 0, 1])
        ts = build_triplets(Dataset(x, y), k=1)
        assert len(ts) == 2
        for t in (0, 1):
            assert np.allclose(ts.u[t], x[ts.anchor[t]] - x[ts.other[t]])
            assert np.allclose(ts.v[t], x[ts.anchor[t]] - x[ts.same[t]])

    def test_deterministic_order_and_ranks(self):
        data = gaussian_blobs(30, 3, 2, seed=5)
        a = build_triplets(data, k=2)
        b = build_triplets(data, k=2)
        assert np.array_equal(a.anchor, b.anchor)
        assert np.array_equal(a.same, b.same)
        assert np.array_equal(a.other, b.other)
        assert np.all(np.diff(a.anchor) >= 0)

    def test_singleton_class_anchors_skipped(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        ts = build_triplets(Dataset(x, y), k=3)
        # anchor 0 has no same-class partner: only anchors 1 and 2 remain
        assert set(ts.anchor.tolist()) == {1, 2}

    def test_neighbor_selection_is_euclidean_with_index_ties(self):
        x = np.array([[0.0], [2.0], [-2.0], [10.0]])
        y = np.array([0, 0, 0, 1])
        ts = build_triplets(Dataset(x, y), k=1)
        anchor0 = [t for t in range(len(ts)) if ts.anchor[t] == 0]
        # both same-class candidates sit at distance 2: the tie goes to index 1
        assert ts.same[anchor0[0]] == 1

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("ties", [False, True])
    def test_anchor_blocks_match_one_block(self, monkeypatch, block, ties):
        # the distance block holds _ANCHOR_BLOCK anchors; its edges must not
        # change the triplets, also with exact distance ties (integer data)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(53, 3)) * 2.0
        if ties:
            x = np.round(x)
        data = Dataset(x, rng.integers(0, 3, size=53))
        monkeypatch.setattr(problem_module, "_ANCHOR_BLOCK", 53)
        whole = build_triplets(data, k=4)
        monkeypatch.setattr(problem_module, "_ANCHOR_BLOCK", block)
        blocked = build_triplets(data, k=4)
        for field in ("anchor", "same", "other", "u", "v"):
            assert np.array_equal(getattr(blocked, field),
                                  getattr(whole, field))

    def test_segment_shaped_count(self):
        # 2310 samples, 7 balanced classes, 90% subsample, k=20:
        # every anchor contributes 20 * 20 pairs, about 832k in total
        rng = np.random.default_rng(0)
        n = int(round(0.9 * 2310))
        labels = np.arange(n) % 7
        feats = rng.normal(size=(n, 2)) + 5.0 * labels[:, None]
        ts = build_triplets(Dataset(feats, labels), k=20)
        assert abs(len(ts) - 832_000) <= 0.02 * 832_000

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_triplet_norm_near_duplicate_points(self, diagonal):
        # x_j and x_l (different classes) nearly coincide, so u ~ v and
        # ||u||^4 + ||v||^4 - 2 <u,v>^2 would lose every digit of ||H||^2
        from fractions import Fraction

        rng = np.random.default_rng(5)
        d = 6
        anchors = rng.normal(size=(4, d))
        near = rng.normal(size=(4, d)) * 3.0
        offset = rng.normal(size=(4, d))
        offset *= 1e-8 * np.linalg.norm(near - anchors, axis=1,
                                        keepdims=True) / np.linalg.norm(
                                            offset, axis=1, keepdims=True)
        x = np.vstack([anchors, near, near + offset])
        y = np.array([0] * 4 + [0] * 4 + [1] * 4)
        prob = MetricProblem(build_triplets(Dataset(x, y)),
                             SmoothedHingeLoss(0.05), diagonal=diagonal)
        ts = prob.triplets
        rows = np.flatnonzero(np.linalg.norm(ts.u - ts.v, axis=1)
                              <= 1e-7 * np.linalg.norm(ts.u, axis=1))
        assert rows.size >= 4
        for t in rows:
            u = [Fraction(float(a)) for a in ts.u[t]]
            v = [Fraction(float(b)) for b in ts.v[t]]
            if diagonal:
                exact = sum((a * a - b * b) ** 2 for a, b in zip(u, v))
            else:
                exact = sum((u[p] * u[q] - v[p] * v[q]) ** 2
                            for p in range(d) for q in range(d))
            assert exact > 0
            ref = float(exact) ** 0.5
            assert abs(prob.h_norms[t] - ref) <= 1e-9 * ref

    def test_triplet_norm_identity(self):
        prob = random_instance(seed=12)
        ts = prob.triplets
        for t_idx in range(0, len(ts), max(1, len(ts) // 25)):
            ref = np.linalg.norm(dense_h(ts.u[t_idx], ts.v[t_idx]))
            assert np.isclose(ts.hnorm[t_idx], ref, rtol=1e-9, atol=1e-12)


class TestInnerProducts:
    def test_identity_metric(self):
        prob = random_instance(seed=13)
        u, v = prob.triplets.u[0], prob.triplets.v[0]
        m = np.eye(prob.dim)
        expect = float(u @ u - v @ v)
        assert np.isclose(prob.inner(m)[0], expect, rtol=1e-12)

    def test_zero_metric(self):
        prob = random_instance(seed=14)
        assert prob.inner(np.zeros((prob.dim, prob.dim))).max() == 0.0

    def test_matches_dense_materialization(self):
        prob = random_instance(seed=15, d_lo=4, d_hi=4)
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        m = (m + m.T) / 2
        vals = prob.inner(m)
        for t_idx in range(0, len(prob.triplets), max(1, len(prob.triplets) // 20)):
            h = dense_h(prob.triplets.u[t_idx], prob.triplets.v[t_idx])
            assert np.isclose(vals[t_idx], np.vdot(m, h), rtol=1e-9)


class TestObjectives:
    def test_primal_at_zero(self):
        x = np.array([[0.0], [0.2], [0.4], [0.6], [0.9], [5.0], [5.2], [5.4], [5.6], [5.9]])
        y = np.array([0] * 5 + [1] * 5)
        ts = build_triplets(Dataset(x, y), k=1)
        prob = MetricProblem(ts, SmoothedHingeLoss(0.05))
        # ell(0) = 1 - gamma/2 per triplet, regularizer vanishes
        m0 = np.zeros((1, 1))
        count = len(ts)
        assert np.isclose(prob.primal_value(m0, 3.7), count * 0.975)

    def test_lambda_validation(self):
        prob = random_instance(seed=16)
        with pytest.raises(ValueError):
            prob.primal_value(np.zeros((prob.dim, prob.dim)), 0.0)

    def test_scalar_closed_form(self):
        # one triplet in one dimension: everything reduces to scalars
        x = np.array([[0.0], [0.4], [2.0]])
        y = np.array([0, 0, 1])
        ts = build_triplets(Dataset(x, y), k=1)
        prob = MetricProblem(ts, SmoothedHingeLoss(0.05))
        lam = 2.0
        for m_val in (0.0, 0.1, 0.5):
            m = np.array([[m_val]])
            expect = 0.0
            for t_idx in range(len(ts)):
                h = ts.u[t_idx, 0] ** 2 - ts.v[t_idx, 0] ** 2
                expect += prob.loss.value(h * m_val)
            expect += 0.5 * lam * m_val ** 2
            assert np.isclose(prob.primal_value(m, lam), expect, rtol=1e-12)

    def test_gradient_all_zero_part(self):
        prob = random_instance(seed=17)
        # blow the metric up so every inner product clears the margin
        s = prob.sum_h()
        plus = psd_split(s).plus
        m = plus * (10.0 / max(prob.inner(plus).min(), 1e-9))
        if prob.inner(m).min() > 1.0:
            lam = 1.5
            g = prob.gradient(m, lam)
            assert np.allclose(g, lam * m, rtol=1e-12)

    def test_gradient_at_zero(self):
        prob = random_instance(seed=18)
        g = prob.gradient(prob.zero_metric(), 1.0)
        expect = -prob.sum_h()
        assert np.allclose(g, expect, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        for seed in (20, 21):
            prob = random_instance(seed=seed, d_lo=3, d_hi=4)
            rng = np.random.default_rng(seed)
            b = rng.normal(size=(prob.dim, prob.dim))
            m = (b @ b.T) / prob.dim * 0.05
            lam = 1.3
            x = prob.inner(m)
            margins = np.minimum(np.abs(x - 1.0), np.abs(x - 0.95))
            if margins.min() < 1e-4:
                continue  # keep clear of the kinks
            g = prob.gradient(m, lam)
            fd = finite_diff_gradient(prob, m, lam)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


class TestDualSide:
    def test_alpha_pieces(self):
        prob = random_instance(seed=22)
        loss = prob.loss
        assert loss.grad(1.2) == 0.0            # zero part -> alpha 0
        assert loss.grad(0.5) == -1.0           # linear part -> alpha 1
        assert np.isclose(-loss.grad(0.975), 0.5)

    def test_m_of_alpha_zero(self):
        prob = random_instance(seed=24)
        assert np.allclose(prob.m_of_alpha(np.zeros(prob.n_triplets), 2.0), 0.0)

    def test_m_of_alpha_psd_fixed_point(self):
        prob = random_instance(seed=25, d_lo=2, d_hi=2)
        rng = np.random.default_rng(2)
        alpha = rng.uniform(size=prob.n_triplets)
        s = prob.accumulate(alpha)
        m = prob.m_of_alpha(alpha, 3.0)
        assert np.allclose(m, psd_split(s).plus / 3.0, atol=1e-12)

    def test_dual_value_zero(self):
        prob = random_instance(seed=26)
        assert prob.dual_value(np.zeros(prob.n_triplets), 1.0) == 0.0

    def test_dual_value_all_ones_nsd_sum(self):
        # engineered so the accumulated comparison matrix is NSD: same-class
        # pairs far apart, different class on top of the anchor
        x = np.array([[0.0], [4.0], [0.05], [10.0], [14.0], [10.05]])
        y = np.array([0, 0, 1, 1, 1, 0])
        ts = build_triplets(Dataset(x, y), k=1)
        prob = MetricProblem(ts, SmoothedHingeLoss(0.05))
        s = prob.sum_h()
        if np.linalg.eigvalsh(s).max() <= 0:
            n = prob.n_triplets
            val = prob.dual_value(np.ones(n), 2.0)
            assert np.isclose(val, n * (1 - 0.025))

    def test_dual_feasibility_error(self):
        prob = random_instance(seed=27)
        alpha = np.zeros(prob.n_triplets)
        alpha[0] = 1.5
        with pytest.raises(ValueError, match="feasible"):
            prob.dual_value(alpha, 1.0)

    def test_weak_duality_sampled(self):
        prob = random_instance(seed=28, n_lo=20, n_hi=25)
        rng = np.random.default_rng(3)
        lam = 5.0
        for _ in range(1000):
            alpha = rng.uniform(size=prob.n_triplets)
            b = rng.normal(size=(prob.dim, prob.dim))
            m = (b @ b.T) * rng.uniform(0.0, 0.1)
            p = prob.primal_value(m, lam)
            d = prob.dual_value(alpha, lam)
            assert d <= p + 1e-9 * max(1.0, abs(p))


class TestGapAndCategorize:
    def test_gap_zero_at_optimum(self, small_problem):
        prob = small_problem
        lam = 0.05 * max(prob.inner(psd_split(prob.sum_h()).plus).max(), 1.0)
        res = solve_oracle(prob, lam, tol=1e-10)
        alpha = prob.alpha_from_inner(prob.inner(res.metric))
        gap = prob.duality_gap(res.metric, alpha, lam)
        assert abs(gap) <= 1e-8

    def test_gap_nonnegative_at_zero(self):
        prob = random_instance(seed=30)
        m = prob.zero_metric()
        alpha = prob.alpha_from_inner(prob.inner(m))
        assert prob.duality_gap(m, alpha, 1.0) >= 0.0

    def test_gap_scalar_closed_form(self):
        x = np.array([[0.0], [0.4], [2.0]])
        y = np.array([0, 0, 1])
        ts = build_triplets(Dataset(x, y), k=1)
        prob = MetricProblem(ts, SmoothedHingeLoss(0.05))
        lam = 1.0
        m = np.array([[0.1]])
        alpha = np.full(len(ts), 0.25)
        hs = ts.u[:, 0] ** 2 - ts.v[:, 0] ** 2
        p = sum(prob.loss.value(h * 0.1) for h in hs) + 0.5 * lam * 0.01
        s = float(alpha @ hs)
        d = (-0.5 * 0.05 * float(alpha @ alpha) + alpha.sum()
             - 0.5 * max(s, 0.0) ** 2 / lam)
        assert np.isclose(prob.duality_gap(m, alpha, lam), p - d, rtol=1e-12)

    def test_categorize_zero_metric(self):
        prob = random_instance(seed=31)
        part = prob.categorize(prob.zero_metric())
        assert part.lower.size == prob.n_triplets

    def test_categorize_boundaries_closed(self):
        prob = random_instance(seed=32)
        x = np.full(prob.n_triplets, 1.0)
        part = prob.categorize(prob.zero_metric(), inner=x)
        assert part.boundary.size == prob.n_triplets

    def test_partition_stable_under_perturbation(self, small_problem):
        prob = small_problem
        lam = 0.03 * max(prob.inner(psd_split(prob.sum_h()).plus).max(), 1.0)
        res = solve_oracle(prob, lam, tol=1e-12)
        x = prob.inner(res.metric)
        gamma = prob.loss.gamma
        away = np.minimum(np.abs(x - 1.0), np.abs(x - (1.0 - gamma))) > 1e-5
        base = prob.categorize(res.metric)
        rng = np.random.default_rng(4)
        for _ in range(5):
            noise = rng.normal(size=res.metric.shape)
            noise = (noise + noise.T) / 2
            pert = res.metric + 1e-7 * noise / np.linalg.norm(noise)
            new = prob.categorize(pert)
            kept = np.flatnonzero(away)
            for name in ("lower", "boundary", "upper"):
                assert np.array_equal(np.isin(kept, getattr(base, name)),
                                      np.isin(kept, getattr(new, name)))

    def test_kkt_consistency_at_solution(self, small_problem):
        prob = small_problem
        lam = 0.05 * max(prob.inner(psd_split(prob.sum_h()).plus).max(), 1.0)
        res = solve_oracle(prob, lam, tol=1e-10)
        alpha = prob.alpha_from_inner(prob.inner(res.metric))
        p = prob.primal_value(res.metric, lam)
        d = prob.dual_value(alpha, lam)
        assert abs(p - d) <= 1e-8 * max(1.0, abs(p))
