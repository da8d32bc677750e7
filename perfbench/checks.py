"""Correctness checks computed apart from the program.

Nothing here calls into ``tripscreen``: triplet values come from the
features and the triplet indices, the weighted comparison sum from a pair
Laplacian, and the duality gap from its Fenchel-Young form, in which every
term is nonnegative, so no difference of two large numbers sets its floor.
"""

from __future__ import annotations

import math

import numpy as np

LOWER = 1   # the program's status codes: linear part of the loss
UPPER = 2   # zero part of the loss


def hinge_value(x: np.ndarray, gamma: float) -> np.ndarray:
    """Smoothed hinge: 0 above 1, quadratic on [1-gamma, 1], linear below."""
    quad = (1.0 - x) ** 2 / (2.0 * gamma)
    return np.where(x > 1.0, 0.0,
                    np.where(x >= 1.0 - gamma, quad, 1.0 - x - gamma / 2.0))


def hinge_alpha(x: np.ndarray, gamma: float) -> np.ndarray:
    """Dual weight read from the loss at x: minus its derivative."""
    return np.clip((1.0 - x) / gamma, 0.0, 1.0)


class TripletGeometry:
    """Per-triplet factors u = x_i - x_l and v = x_i - x_j, taken from the
    features, and the Frobenius norm of H = u u^T - v v^T."""

    def __init__(self, features, anchor, same, other, diagonal: bool):
        self.features = np.asarray(features, dtype=float)
        self.anchor = np.asarray(anchor)
        self.same = np.asarray(same)
        self.other = np.asarray(other)
        self.diagonal = diagonal
        x = self.features
        self.u = x[self.anchor] - x[self.other]
        self.v = x[self.anchor] - x[self.same]
        if diagonal:
            self.hnorm = np.linalg.norm(self.u ** 2 - self.v ** 2, axis=1)
        else:
            uu = np.einsum("md,md->m", self.u, self.u)
            vv = np.einsum("md,md->m", self.v, self.v)
            uv = np.einsum("md,md->m", self.u, self.v)
            self.hnorm = np.sqrt(
                np.maximum(uu ** 2 + vv ** 2 - 2 * uv ** 2, 0.0))

    def values(self, metric: np.ndarray) -> np.ndarray:
        """<H_t, M>: the Mahalanobis distance to the other-class point minus
        the distance to the same-class point."""
        if self.diagonal:
            return self.u ** 2 @ metric - self.v ** 2 @ metric
        return (np.sum((self.u @ metric) * self.u, axis=1)
                - np.sum((self.v @ metric) * self.v, axis=1))

    def weighted_sum(self, alpha: np.ndarray) -> np.ndarray:
        """sum_t alpha_t H_t, assembled over sample pairs: weight +alpha on
        (i, l) and -alpha on (i, j) gives X^T L X for the pair Laplacian L."""
        n = self.features.shape[0]
        w = (np.bincount(self.anchor * n + self.other, weights=alpha,
                         minlength=n * n)
             - np.bincount(self.anchor * n + self.same, weights=alpha,
                           minlength=n * n)).reshape(n, n)
        w = w + w.T
        lap = np.diag(w.sum(axis=1)) - w
        s = self.features.T @ lap @ self.features
        s = (s + s.T) / 2.0
        return np.diag(s).copy() if self.diagonal else s


def cone_parts(s: np.ndarray):
    """(positive part, negative part) of a symmetric matrix, or of a vector
    against the nonnegative orthant."""
    if s.ndim == 1:
        return np.maximum(s, 0.0), np.minimum(s, 0.0)
    w, v = np.linalg.eigh(s)
    return (v * np.maximum(w, 0.0)) @ v.T, (v * np.minimum(w, 0.0)) @ v.T


def full_gap(geo: TripletGeometry, metric: np.ndarray, lam: float,
             gamma: float):
    """Duality gap of the full objective at ``metric``, with every triplet and
    the dual read from the loss there (screening ignored).

    Fenchel-Young form: sum_t [l(x_t) + l*(-a_t) + a_t x_t]
    + (lam/2) ||M - S+/lam||^2 - <S-, M>, with S = sum_t a_t H_t.
    Returns (gap, triplet values).
    """
    x = geo.values(metric)
    alpha = hinge_alpha(x, gamma)
    fenchel = (hinge_value(x, gamma) + 0.5 * gamma * alpha ** 2 - alpha
               + alpha * x)
    s_plus, s_minus = cone_parts(geo.weighted_sum(alpha))
    gap = (float(np.sum(fenchel))
           + 0.5 * lam * float(np.vdot(metric - s_plus / lam,
                                       metric - s_plus / lam))
           - float(np.vdot(s_minus, metric)))
    return gap, x


def gap_radius(gap: float, lam: float) -> float:
    """Radius of the gap ball around a point: sqrt(2 gap / lam)."""
    return math.sqrt(2.0 * max(gap, 0.0) / lam)


def psd_violation(metric: np.ndarray) -> float:
    """How far the smallest eigenvalue (or entry, for a diagonal metric)
    falls below zero, relative to the metric's size; 0 when in the cone."""
    metric = np.asarray(metric, dtype=float)
    low = metric.min() if metric.ndim == 1 else np.linalg.eigvalsh(metric)[0]
    return max(0.0, -float(low)) / max(1.0, float(np.linalg.norm(metric)))


def verdict_conflicts(x: np.ndarray, hnorm: np.ndarray, radius: float,
                      statuses: np.ndarray, gamma: float) -> int:
    """Verdicts that every point of the ball ||X - M|| <= radius refutes.

    ``x`` holds <H_t, M>. A LOWER verdict claims <H_t, M*> < 1 - gamma, so it
    is refuted when even the smallest value over the ball, x - radius ||H||,
    is at least 1 - gamma; an UPPER verdict claims <H_t, M*> > 1.
    """
    slack = 1e-9 * np.maximum(1.0, np.abs(x))
    spread = radius * hnorm
    bad_low = (statuses == LOWER) & (x - spread >= 1.0 - gamma + slack)
    bad_up = (statuses == UPPER) & (x + spread <= 1.0 - slack)
    return int(np.count_nonzero(bad_low | bad_up))
