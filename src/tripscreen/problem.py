"""Triplet construction, loss functions, and the primal/dual metric-learning objectives.

The learned metric is a PSD matrix M (or a nonnegative vector in diagonal
mode).  Each triplet (i, j, l) with y_i == y_j != y_l contributes the rank-2
comparison matrix H = u u^T - v v^T, u = x_i - x_l, v = x_i - x_j, which is
never materialized densely: all objective and screening quantities reduce to
inner products against u and v.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import cone_project, cone_split


@dataclass(frozen=True)
class SmoothedHingeLoss:
    """Margin loss with a quadratic segment of width gamma joining the zero
    and linear parts; gamma == 0 gives the plain hinge.

    At the hinge kink (x == 1, gamma == 0) the subgradient is taken as 0.
    Callers that need a different subgradient (a dual iterate, say) inject it
    explicitly where they build gradient-based quantities.
    """

    gamma: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x1 = np.atleast_1d(x)
        g = self.gamma
        if g == 0.0:
            out = np.maximum(0.0, 1.0 - x1)
        else:
            out = np.zeros_like(x1)
            mid = (x1 >= 1.0 - g) & (x1 <= 1.0)
            lin = x1 < 1.0 - g
            out[mid] = (1.0 - x1[mid]) ** 2 / (2.0 * g)
            out[lin] = 1.0 - x1[lin] - g / 2.0
        return float(out[0]) if scalar else out

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x1 = np.atleast_1d(x)
        g = self.gamma
        if g == 0.0:
            out = np.where(x1 < 1.0, -1.0, 0.0)
        else:
            out = np.zeros_like(x1)
            mid = (x1 >= 1.0 - g) & (x1 <= 1.0)
            out[mid] = -(1.0 - x1[mid]) / g
            out[x1 < 1.0 - g] = -1.0
        return float(out[0]) if scalar else out

    def conjugate(self, alpha):
        """Convex conjugate ell*(-alpha) = (gamma/2) alpha^2 - alpha on [0, 1]."""
        alpha = np.asarray(alpha, dtype=float)
        out = 0.5 * self.gamma * alpha ** 2 - alpha
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, d) with one discrete class id per row."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must have one entry per sample")
        if features.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if np.unique(labels).size < 2:
            raise ValueError("need at least 2 distinct labels")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


class TripletSet:
    """Vectorized triplet storage: index arrays plus stacked u/v factors."""

    def __init__(self, anchor, same, other, u, v):
        self.anchor = np.asarray(anchor, dtype=np.int64)
        self.same = np.asarray(same, dtype=np.int64)
        self.other = np.asarray(other, dtype=np.int64)
        self.u = np.ascontiguousarray(u, dtype=float)
        self.v = np.ascontiguousarray(v, dtype=float)
        if not (len(self.anchor) == len(self.same) == len(self.other)
                == self.u.shape[0] == self.v.shape[0]):
            raise ValueError("triplet arrays must have equal length")
        self.hnorm = _rank2_norm(self.u, self.v)

    def __len__(self) -> int:
        return self.u.shape[0]

    @property
    def dim(self) -> int:
        return self.u.shape[1]


def _rank2_parts(u: np.ndarray, v: np.ndarray):
    """Trace and wedge of H = u u^T - v v^T, row by row, without cancellation.

    H has one eigenvalue s+ >= 0, one -s- <= 0 and d - 2 zeros.  Returned are
    s+ - s- = ||u||^2 - ||v||^2 = w.(u+v) and s+ s- = ||u||^2 ||v||^2 - <u,v>^2
    = ||u||^2 ||w_perp||^2, with w = u - v (= x_j - x_l, exact when x_j and
    x_l nearly coincide) and w_perp the part of w orthogonal to u.  The
    textbook forms lose every digit as w -> 0.
    """
    w = u - v
    uu = np.einsum("md,md->m", u, u)
    wu = np.einsum("md,md->m", w, u)
    coef = np.divide(wu, uu, out=np.zeros_like(uu), where=uu > 0.0)
    w_perp = w - coef[:, None] * u
    along = np.einsum("md,md->m", w, u + v)
    return along, uu * np.einsum("md,md->m", w_perp, w_perp)


def _rank2_norm(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Frobenius norm of u u^T - v v^T, row by row, without cancellation:
    ||H||^2 = (s+ - s-)^2 + 2 s+ s-, both terms nonnegative (see
    ``_rank2_parts``), so the norm every screening rule scales its radius by
    is never understated by rounding.
    """
    along, wedge = _rank2_parts(u, v)
    return np.sqrt(along ** 2 + 2.0 * wedge)


# Anchors whose squared distances ``build_triplets`` holds at once: it keeps
# an _ANCHOR_BLOCK x n block, never the n x n matrix.
_ANCHOR_BLOCK = 256


def build_triplets(data: Dataset, k: Optional[int] = None) -> TripletSet:
    """Neighborhood triplets: for every anchor, cross its k nearest same-class
    neighbors with its k nearest other-class points (Euclidean distances, ties
    broken by smaller sample index).  ``k=None`` uses all available neighbors.

    Order is deterministic: ascending anchor, then same-neighbor rank, then
    other-neighbor rank.  Distances are formed one block of anchors at a
    time, each entry by the same arithmetic whatever the block.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    x = data.features
    y = data.labels
    n = data.n_samples

    sq = np.einsum("nd,nd->n", x, x)
    anchors, sames, others = [], [], []
    idx_all = np.arange(n)
    for start in range(0, n, _ANCHOR_BLOCK):
        stop = min(start + _ANCHOR_BLOCK, n)
        dist2 = (sq[start:stop, None] + sq[None, :]
                 - 2.0 * np.einsum("bd,nd->bn", x[start:stop], x))
        np.maximum(dist2, 0.0, out=dist2)
        for i in range(start, stop):
            same_pool = idx_all[(y == y[i]) & (idx_all != i)]
            other_pool = idx_all[y != y[i]]
            if same_pool.size == 0 or other_pool.size == 0:
                continue
            ks = same_pool.size if k is None else min(k, same_pool.size)
            ko = other_pool.size if k is None else min(k, other_pool.size)
            row = dist2[i - start]
            same_order = same_pool[np.lexsort((same_pool, row[same_pool]))][:ks]
            other_order = other_pool[np.lexsort((other_pool, row[other_pool]))][:ko]
            anchors.append(np.full(ks * ko, i, dtype=np.int64))
            sames.append(np.repeat(same_order, ko))
            others.append(np.tile(other_order, ks))

    if not anchors:
        raise ValueError("no triplets could be built (need mixed-class data)")
    anchor = np.concatenate(anchors)
    same = np.concatenate(sames)
    other = np.concatenate(others)
    u = x[anchor] - x[other]
    v = x[anchor] - x[same]
    return TripletSet(anchor, same, other, u, v)


class TripletStatus(enum.IntEnum):
    UNKNOWN = 0
    LOWER = 1   # certified in the linear part of the loss (dual weight 1)
    UPPER = 2   # certified in the zero part of the loss (dual weight 0)


class Partition(NamedTuple):
    """Index partition of the triplets by where <H, M> falls on the loss."""

    lower: np.ndarray     # <H, M> <  1 - gamma   (linear part, dual weight 1)
    boundary: np.ndarray  # 1 - gamma <= <H, M> <= 1
    upper: np.ndarray     # <H, M> >  1           (zero part, dual weight 0)


class MetricProblem:
    """Regularized triplet-loss minimization instance.

    Bundles a triplet set with a loss; ``diagonal=True`` restricts the metric
    to a nonnegative diagonal, represented as a d-vector, in which case every
    matrix quantity below becomes its elementwise analogue.
    """

    def __init__(self, triplets: TripletSet, loss: SmoothedHingeLoss,
                 diagonal: bool = False):
        self.triplets = triplets
        self.loss = loss
        self.diagonal = bool(diagonal)
        if self.diagonal:
            u, v = triplets.u, triplets.v
            self.h_diag = (u - v) * (u + v)
            self.h_norms = np.linalg.norm(self.h_diag, axis=1)
        else:
            self.h_diag = None
            self.h_norms = triplets.hnorm

    @property
    def dim(self) -> int:
        return self.triplets.dim

    @property
    def n_triplets(self) -> int:
        return len(self.triplets)

    def zero_metric(self) -> np.ndarray:
        d = self.dim
        return np.zeros(d) if self.diagonal else np.zeros((d, d))

    def project(self, m: np.ndarray) -> np.ndarray:
        return cone_project(np.asarray(m, dtype=float))

    # -- inner products and rank-2 accumulation ---------------------------

    def inner(self, m: np.ndarray, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """<H_t, M> for each triplet (restricted to ``idx`` when given)."""
        ts = self.triplets
        if self.diagonal:
            h = self.h_diag if idx is None else self.h_diag[idx]
            return h @ m
        u = ts.u if idx is None else ts.u[idx]
        v = ts.v if idx is None else ts.v[idx]
        return np.einsum("md,md->m", u @ m, u) - np.einsum("md,md->m", v @ m, v)

    def accumulate(self, weights: np.ndarray,
                   idx: Optional[np.ndarray] = None) -> np.ndarray:
        """sum_t weights_t H_t as a dense symmetric matrix (vector in
        diagonal mode)."""
        ts = self.triplets
        if self.diagonal:
            h = self.h_diag if idx is None else self.h_diag[idx]
            return h.T @ weights
        u = ts.u if idx is None else ts.u[idx]
        v = ts.v if idx is None else ts.v[idx]
        wu = u * weights[:, None]
        wv = v * weights[:, None]
        s = wu.T @ u - wv.T @ v
        return (s + s.T) / 2.0

    def sum_h(self, idx: Optional[np.ndarray] = None) -> np.ndarray:
        count = self.n_triplets if idx is None else len(idx)
        return self.accumulate(np.ones(count), idx)

    # -- primal side -------------------------------------------------------

    def primal_value(self, m: np.ndarray, lam: float) -> float:
        if lam <= 0:
            raise ValueError("lam must be positive")
        x = self.inner(m)
        reg = 0.5 * lam * float(np.vdot(m, m))
        return float(np.sum(self.loss.value(x))) + reg

    def gradient(self, m: np.ndarray, lam: float,
                 idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Gradient of the loss over the triplets (restricted to ``idx``
        when given) plus the regularizer's lam M."""
        if lam <= 0:
            raise ValueError("lam must be positive")
        g = self.loss.grad(self.inner(m, idx))
        return self.accumulate(g, idx) + lam * m

    # -- dual side ----------------------------------------------------------

    def alpha_from_inner(self, inner: np.ndarray) -> np.ndarray:
        return -self.loss.grad(inner)

    def m_of_alpha(self, alpha: np.ndarray, lam: float) -> np.ndarray:
        """Primal candidate induced by a dual vector: (1/lam) [sum alpha H]_+."""
        if lam <= 0:
            raise ValueError("lam must be positive")
        plus, _ = cone_split(self.accumulate(np.asarray(alpha, dtype=float)))
        return plus / lam

    def dual_value(self, alpha: np.ndarray, lam: float) -> float:
        if lam <= 0:
            raise ValueError("lam must be positive")
        alpha = np.asarray(alpha, dtype=float)
        if alpha.min() < -1e-12 or alpha.max() > 1.0 + 1e-12:
            raise ValueError("alpha is not dual feasible (outside [0, 1])")
        alpha = np.clip(alpha, 0.0, 1.0)
        sum_ah_plus, _ = cone_split(self.accumulate(alpha))
        quad = float(np.vdot(sum_ah_plus, sum_ah_plus)) / lam
        return float(-0.5 * self.loss.gamma * alpha @ alpha + alpha.sum() - 0.5 * quad)

    def duality_gap(self, m: np.ndarray, alpha: np.ndarray, lam: float) -> float:
        """P(M) - D(alpha), in the cancellation-free form of ``bounds.gap``."""
        from .bounds import gap  # bounds builds on this module

        return gap(self, m, lam, alpha=alpha).value

    # -- triplet categorization against a solved metric ---------------------

    def categorize(self, m_star: np.ndarray,
                   inner: Optional[np.ndarray] = None) -> Partition:
        x = self.inner(m_star) if inner is None else inner
        g = self.loss.gamma
        lower = np.flatnonzero(x < 1.0 - g)
        upper = np.flatnonzero(x > 1.0)
        boundary = np.flatnonzero((x >= 1.0 - g) & (x <= 1.0))
        return Partition(lower=lower, boundary=boundary, upper=upper)


class Pins:
    """Screening verdicts and the reduced objective they define.

    A LOWER triplet is pinned to the linear piece 1 - gamma/2 - <H, M> of the
    loss (dual weight 1), an UPPER one to its zero piece (dual weight 0).  The
    reduced objective lies below the full one and, when the verdicts are
    safe, has the same minimizer.  ``unknown`` lists the free triplets and
    ``sum_h_lower`` caches S_L = sum of H_t over the LOWER ones.
    """

    def __init__(self, problem: MetricProblem,
                 statuses: Optional[np.ndarray] = None):
        self.problem = problem
        m = problem.n_triplets
        if statuses is None:
            self.statuses = np.zeros(m, dtype=np.int8)
        else:
            self.statuses = np.asarray(statuses, dtype=np.int8).copy()
            if self.statuses.shape != (m,):
                raise ValueError("statuses must have one entry per triplet")
        self.unknown = np.flatnonzero(self.statuses == TripletStatus.UNKNOWN)
        lower_idx = np.flatnonzero(self.statuses == TripletStatus.LOWER)
        self.n_lower = lower_idx.size
        if lower_idx.size:
            self.sum_h_lower = problem.sum_h(lower_idx)
        else:
            self.sum_h_lower = problem.zero_metric()

    def absorb(self, before_lower: np.ndarray):
        """Refresh the caches after screen_all mutated the statuses."""
        new_lower = np.flatnonzero(
            (self.statuses == TripletStatus.LOWER) & ~before_lower)
        if new_lower.size:
            self.sum_h_lower = self.sum_h_lower + self.problem.sum_h(new_lower)
            self.n_lower += new_lower.size
        self.unknown = np.flatnonzero(self.statuses == TripletStatus.UNKNOWN)
