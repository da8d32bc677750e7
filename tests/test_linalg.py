import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripscreen import check_symmetric, cone_split, eig_sym, psd_split


def random_sym(rng, d, scale=1.0):
    a = rng.normal(scale=scale, size=(d, d))
    return (a + a.T) / 2.0


class TestCheckSymmetric:
    def test_averages_small_asymmetry(self):
        a = np.array([[1.0, 2.0 + 1e-9], [2.0, 3.0]])
        out = check_symmetric(a)
        assert np.array_equal(out, out.T)

    def test_rejects_large_asymmetry(self):
        a = np.array([[1.0, 2.1], [2.0, 3.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(a)

    def test_rejects_non_finite(self):
        a = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            check_symmetric(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_symmetric(np.zeros((2, 3)))


class TestEigSym:
    def test_identity(self):
        dec = eig_sym(np.eye(3))
        assert np.allclose(dec.values, np.ones(3))

    def test_diagonal_descending(self):
        dec = eig_sym(np.diag([3.0, -1.0]))
        assert np.allclose(dec.values, [3.0, -1.0])
        # eigenvectors are the axes up to sign
        assert np.allclose(np.abs(dec.vectors), np.eye(2), atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_sym(rng, 5, scale=3.0)
            dec = eig_sym(a)
            rebuilt = (dec.vectors * dec.values) @ dec.vectors.T
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(rebuilt - a) <= 1e-8 * scale
            assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(5)) <= 1e-8 * 5

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_sym(rng, 6)
            dec = eig_sym(a)
            assert np.isclose(dec.values.sum(), np.trace(a), rtol=1e-9, atol=1e-12)


class TestPsdSplit:
    def test_diagonal_sign_split(self):
        s = psd_split(np.diag([2.0, -3.0]))
        assert np.allclose(s.plus, np.diag([2.0, 0.0]))
        assert np.allclose(s.minus, np.diag([0.0, -3.0]))

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(4, 4))
        a = b @ b.T
        s = psd_split(a)
        assert np.allclose(s.plus, a, atol=1e-10)
        assert np.linalg.norm(s.minus) <= 1e-10 * np.linalg.norm(a)

    def test_offdiagonal_example(self):
        # eigenvalues +-1; positive part has the rank-1 factor (1,1)/sqrt(2)
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = psd_split(a)
        assert np.allclose(s.plus, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_projection_optimality_sampled(self):
        rng = np.random.default_rng(3)
        a = random_sym(rng, 3, scale=2.0)
        s = psd_split(a)
        best = np.linalg.norm(s.plus - a)
        for _ in range(10_000):
            b = rng.normal(size=(3, 3))
            x = b @ b.T
            assert np.linalg.norm(x - a) >= best - 1e-12

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_sym(rng, 5)
            plus = psd_split(a).plus
            again = psd_split(plus)
            assert np.linalg.norm(again.minus) <= 1e-9 * max(1.0, np.linalg.norm(plus))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_split_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        a = random_sym(rng, d, scale=5.0)
        s = psd_split(a)
        norm = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(s.plus + s.minus - a) <= 1e-9 * norm
        assert abs(np.vdot(s.plus, s.minus)) <= 1e-9 * max(
            1.0, np.linalg.norm(s.plus) * np.linalg.norm(s.minus))
        assert eig_sym(s.plus).values.min() >= -1e-9 * norm
        assert eig_sym(s.minus).values.max() <= 1e-9 * norm


class TestConeSplit:
    def test_vector_layout(self):
        plus, minus = cone_split(np.array([1.0, -2.0, 0.0]))
        assert np.allclose(plus, [1.0, 0.0, 0.0])
        assert np.allclose(minus, [0.0, -2.0, 0.0])


class TestFrobInner:
    def test_split_orthogonality(self):
        rng = np.random.default_rng(9)
        a = random_sym(rng, 5, scale=3.0)
        s = psd_split(a)
        tol = 1e-9 * max(1.0, np.linalg.norm(s.plus) * np.linalg.norm(s.minus))
        assert abs(np.vdot(s.plus, s.minus)) <= tol
