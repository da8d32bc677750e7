"""Triplet construction, loss functions, and the primal/dual metric-learning objectives.

The learned metric is a PSD matrix M (or a nonnegative vector in diagonal
mode).  Each triplet (i, j, l) with y_i == y_j != y_l contributes the rank-2
comparison matrix H = u u^T - v v^T, u = x_i - x_l, v = x_i - x_j, which is
never materialized densely.  The triplets share their pairs of points: u and
v are the rows o_t and s_t of one table of pair vectors z = x_a - x_b, a few
times shorter than the triplet list.  The two kernels that every objective
and screening pass goes through work on that table:

    <H_t, M>      = q[o_t] - q[s_t],       q_p = z_p^T M z_p,
    sum_t w_t H_t = sum_p c_p z_p z_p^T,   c = bincount(o, w) - bincount(s, w),

the second being the gradient identity of large-margin nearest neighbors
(Weinberger & Saul, JMLR 2009).  Per-row geometry (||H_t||, the rows the PSD
and nonneg rules need) gathers u and v from the table.
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
    """Triplets stored by their pairs: index arrays plus one pair table.

    ``pairs`` holds pair vectors z = x_a - x_b, and each triplet t =
    (anchor, same, other) names two of its rows: ``p_other[t]`` for
    u_t = x_i - x_l and ``p_same[t]`` for v_t = x_i - x_j, so that
    H_t = z_o z_o^T - z_s z_s^T.  ``hnorm`` is ||H_t||_F per triplet.

    The constructor takes the rows u and v (m x d each) of m triplets and
    stores them as the 2m-row table [u; v]; ``from_pairs`` takes a table
    and the pair ids, as ``build_triplets`` emits them.  ``u``, ``v`` and
    ``rows`` gather triplet rows from the table.
    """

    def __init__(self, anchor, same, other, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != v.shape:
            raise ValueError("triplet arrays must have equal length")
        ids = np.arange(u.shape[0], dtype=np.int64)
        self._store(anchor, same, other, np.concatenate([u, v]),
                    ids + u.shape[0], ids)

    @classmethod
    def from_pairs(cls, anchor, same, other, pairs, p_same, p_other):
        ts = cls.__new__(cls)
        ts._store(anchor, same, other, pairs, p_same, p_other)
        return ts

    def _store(self, anchor, same, other, pairs, p_same, p_other):
        self.anchor = np.asarray(anchor, dtype=np.int64)
        self.same = np.asarray(same, dtype=np.int64)
        self.other = np.asarray(other, dtype=np.int64)
        self.pairs = np.ascontiguousarray(pairs, dtype=float)
        self.p_same = np.asarray(p_same, dtype=np.int64)
        self.p_other = np.asarray(p_other, dtype=np.int64)
        m = len(self.anchor)
        if not (len(self.same) == len(self.other) == len(self.p_same)
                == len(self.p_other) == m):
            raise ValueError("triplet arrays must have equal length")
        if m and (min(self.p_same.min(), self.p_other.min()) < 0
                  or max(self.p_same.max(), self.p_other.max())
                  >= self.n_pairs):
            raise ValueError("pair ids must index rows of the pair table")
        self.hnorm = _by_row_blocks(
            m, lambda rows: _rank2_norm(*self.rows(rows)))

    def __len__(self) -> int:
        return len(self.anchor)

    @property
    def dim(self) -> int:
        return self.pairs.shape[1]

    @property
    def n_pairs(self) -> int:
        return self.pairs.shape[0]

    def rows(self, idx):
        """(u, v) rows of the triplets ``idx`` (an index array or a slice),
        gathered from the pair table."""
        return self.pairs[self.p_other[idx]], self.pairs[self.p_same[idx]]

    @property
    def u(self) -> np.ndarray:
        """u_t = x_i - x_l for every triplet, gathered (m x d)."""
        return self.pairs[self.p_other]

    @property
    def v(self) -> np.ndarray:
        """v_t = x_i - x_j for every triplet, gathered (m x d)."""
        return self.pairs[self.p_same]


# Triplet rows gathered at once for per-row geometry: a block bounds the
# u/v temporaries, never m x d.
_ROW_BLOCK = 8192


def _by_row_blocks(m: int, per_row) -> np.ndarray:
    """Concatenation of ``per_row(slice)`` over blocks of ``_ROW_BLOCK``
    triplets; each row's value is computed by the same arithmetic whatever
    the block."""
    out = np.empty(m)
    for start in range(0, m, _ROW_BLOCK):
        block = slice(start, min(start + _ROW_BLOCK, m))
        out[block] = per_row(block)
    return out


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
    other-neighbor rank.  The pair table holds, anchor by anchor, its ks
    same-class pairs followed by its ko other-class pairs, which its ks ko
    triplets share.  Distances are formed one block of anchors at a time,
    each entry by the same arithmetic whatever the block.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    x = data.features
    n = data.n_samples
    _, cls = np.unique(data.labels, return_inverse=True)
    classes = range(int(cls.max()) + 1)
    pools = [(np.flatnonzero(cls == c), np.flatnonzero(cls != c))
             for c in classes]
    # (ks, ko): every anchor of a class has the same neighbor counts.
    counts = [(s.size - 1 if k is None else min(k, s.size - 1),
               o.size if k is None else min(k, o.size)) for s, o in pools]
    near = [([], []) for _ in classes]

    sq = np.einsum("nd,nd->n", x, x)
    for start in range(0, n, _ANCHOR_BLOCK):
        stop = min(start + _ANCHOR_BLOCK, n)
        dist2 = (sq[start:stop, None] + sq[None, :]
                 - 2.0 * np.einsum("bd,nd->bn", x[start:stop], x))
        np.maximum(dist2, 0.0, out=dist2)
        # Each anchor sorts first in its own class, and is dropped there.
        dist2[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        for c in classes:
            (same_pool, other_pool), (ks, ko) = pools[c], counts[c]
            rows = np.flatnonzero(cls[start:stop] == c)
            if rows.size == 0 or ks == 0 or ko == 0:
                continue
            block = dist2[rows]
            # A stable sort over an ascending pool breaks ties by index.
            near[c][0].append(same_pool[np.argsort(
                block[:, same_pool], axis=1, kind="stable")[:, 1:ks + 1]])
            near[c][1].append(other_pool[np.argsort(
                block[:, other_pool], axis=1, kind="stable")[:, :ko]])

    built = [c for c in classes if near[c][0]]
    if not built:
        raise ValueError("no triplets could be built (need mixed-class data)")
    n_tri = np.zeros(n, dtype=np.int64)
    n_pair = np.zeros(n, dtype=np.int64)
    for c in built:
        ks, ko = counts[c]
        n_tri[pools[c][0]] = ks * ko
        n_pair[pools[c][0]] = ks + ko
    tri_start = np.cumsum(n_tri) - n_tri
    pair_start = np.cumsum(n_pair) - n_pair
    m = int(n_tri.sum())
    same, other, p_same, p_other = (np.empty(m, dtype=np.int64)
                                    for _ in range(4))
    pair_end = np.empty(int(n_pair.sum()), dtype=np.int64)
    for c in built:
        ks, ko = counts[c]
        members = pools[c][0]
        near_same = np.concatenate(near[c][0])    # members x ks
        near_other = np.concatenate(near[c][1])   # members x ko
        base = pair_start[members][:, None]
        pair_end[base + np.arange(ks)] = near_same
        pair_end[base + ks + np.arange(ko)] = near_other
        slots = tri_start[members][:, None] + np.arange(ks * ko)
        same[slots] = np.repeat(near_same, ko, axis=1)
        other[slots] = np.tile(near_other, (1, ks))
        p_same[slots] = base + np.repeat(np.arange(ks), ko)
        p_other[slots] = base + ks + np.tile(np.arange(ko), ks)
    anchor = np.repeat(np.arange(n, dtype=np.int64), n_tri)
    pairs = x[np.repeat(np.arange(n), n_pair)] - x[pair_end]
    return TripletSet.from_pairs(anchor, same, other, pairs, p_same, p_other)


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
            # diag(H_t) = z_o * z_o - z_s * z_s: the pair kernels run on z * z.
            self._table = triplets.pairs * triplets.pairs
            self.h_norms = _by_row_blocks(
                len(triplets),
                lambda rows: np.linalg.norm(self.diag_rows(rows), axis=1))
        else:
            self._table = triplets.pairs
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
        """<H_t, M> for each triplet (restricted to ``idx`` when given):
        q_p = z_p^T M z_p over the pair table, then q_o - q_s per triplet."""
        ts = self.triplets
        z = self._table
        q = z @ m if self.diagonal else np.einsum("pd,pd->p", z @ m, z)
        if idx is None:
            return q[ts.p_other] - q[ts.p_same]
        return q[ts.p_other[idx]] - q[ts.p_same[idx]]

    def accumulate(self, weights: np.ndarray,
                   idx: Optional[np.ndarray] = None) -> np.ndarray:
        """sum_t weights_t H_t as a dense symmetric matrix (vector in
        diagonal mode): sum_p c_p z_p z_p^T over the pairs with c_p != 0,
        c = bincount(p_other, weights) - bincount(p_same, weights)."""
        ts = self.triplets
        p_other = ts.p_other if idx is None else ts.p_other[idx]
        p_same = ts.p_same if idx is None else ts.p_same[idx]
        c = (np.bincount(p_other, weights, minlength=ts.n_pairs)
             - np.bincount(p_same, weights, minlength=ts.n_pairs))
        live = np.flatnonzero(c)
        z = self._table[live]
        if self.diagonal:
            return z.T @ c[live]
        s = (z * c[live, None]).T @ z
        return (s + s.T) / 2.0

    def diag_rows(self, idx) -> np.ndarray:
        """Rows (u - v) * (u + v) = diag(H_t) of the triplets ``idx``."""
        u, v = self.triplets.rows(idx)
        return (u - v) * (u + v)

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
