"""Sphere regions certified to contain the optimal metric.

Six constructions are provided, each returning a ``Sphere``.  Range
screening does not read them: ``rules.lambda_ranges_all`` derives its lambda
intervals from the relaxed path bound in closed form.

Every radius that comes from a duality gap takes it from ``gap``, which sums
nonnegative Fenchel-Young terms instead of subtracting the dual value from
the primal one, so rounding can widen a ball but never shrink it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .linalg import cone_split
from .problem import MetricProblem, Pins


@dataclass(frozen=True)
class Sphere:
    """Ball ||X - center||_F <= radius guaranteed to contain the optimum."""

    center: np.ndarray
    radius: float
    radius_clamped: bool = False         # squared radius rounded up to 0

    @property
    def diagonal(self) -> bool:
        return self.center.ndim == 1


def _require_positive(lam: float, name: str = "lam"):
    if lam <= 0:
        raise ValueError(f"{name} must be positive")


class DualityGap(NamedTuple):
    """Duality gap of the (reduced) objective at a metric M, with what it
    was computed from.  Per-row arrays cover the free rows ``rows`` (every
    triplet when None)."""

    value: float
    rows: Optional[np.ndarray]
    x: np.ndarray            # <H_t, M>
    alpha: np.ndarray        # dual weights
    loss_sum: float          # loss part of the objective at M, pins included
    s: np.ndarray            # S = S_L + sum over the free rows of alpha_t H_t


def _free_rows(problem: MetricProblem, statuses):
    """(Pins or None, free rows or None for every triplet)."""
    if statuses is None:
        return None, None
    pins = statuses if isinstance(statuses, Pins) else Pins(problem, statuses)
    if pins.unknown.size == problem.n_triplets:
        return pins, None
    return pins, pins.unknown


def _dual_sum(problem: MetricProblem, a: np.ndarray, pins, rows) -> np.ndarray:
    """S = S_L + sum over the free rows of a_t H_t."""
    s = problem.zero_metric() if pins is None else pins.sum_h_lower
    support = np.flatnonzero(a > 0.0)
    if support.size == a.size:
        return s + problem.accumulate(a, rows)
    if support.size:
        return s + problem.accumulate(
            a[support], support if rows is None else rows[support])
    return s


def gap(problem: MetricProblem, m: np.ndarray, lam: float,
        statuses: Union[None, np.ndarray, Pins] = None,
        alpha: Optional[np.ndarray] = None,
        inner: Optional[np.ndarray] = None) -> DualityGap:
    """Duality gap at metric ``m`` in Fenchel-Young form,

        sum_t [l(x_t) + l*(-a_t) + a_t x_t] + (lam/2) ||M - S+/lam||^2
        - <S-, M>,    x_t = <H_t, M>,  S = sum_t a_t H_t,

    which equals P(M) - D(a) without the cancellation of that difference.

    With ``statuses`` (an array of verdicts or a ``Pins``) it is the gap of
    the reduced objective: LOWER rows are pinned to the linear piece with
    a_t = 1 and UPPER rows to zero with a_t = 0, so their terms vanish and
    only the unknown rows are evaluated.  Its ball still contains the
    optimum whenever the verdicts are safe, and is never wider than the full
    one.  ``alpha`` (one weight per free row) defaults to the weights read
    from the loss at M, for which every per-row term is exactly 0; an
    explicit ``alpha`` adds those terms.  ``inner`` may supply x on the free
    rows.  Each term is clamped at 0.
    """
    _require_positive(lam)
    m = np.asarray(m, dtype=float)
    loss = problem.loss
    pins, rows = _free_rows(problem, statuses)
    x = problem.inner(m, rows) if inner is None else inner
    values = loss.value(x)
    if alpha is None:
        a = problem.alpha_from_inner(x)
        fenchel = 0.0
    else:
        a = np.clip(np.asarray(alpha, dtype=float), 0.0, 1.0)
        fenchel = float(np.sum(np.maximum(
            values + loss.conjugate(a) + a * x, 0.0)))
    s = _dual_sum(problem, a, pins, rows)
    s_plus, s_minus = cone_split(s)
    diff = m - s_plus / lam
    value = (fenchel + 0.5 * lam * float(np.vdot(diff, diff))
             + max(0.0, -float(np.vdot(s_minus, m))))
    loss_sum = float(np.sum(values))
    if pins is not None and pins.n_lower:
        loss_sum += (pins.n_lower * (1.0 - 0.5 * loss.gamma)
                     - float(np.vdot(pins.sum_h_lower, m)))
    return DualityGap(value=value, rows=rows, x=x, alpha=a,
                      loss_sum=loss_sum, s=s)


def gradient_bound(m: np.ndarray, grad: np.ndarray, lam: float) -> Sphere:
    """Sphere from any feasible point and a (sub)gradient of the objective
    there: center M - grad/(2 lam), radius ||grad||_F / (2 lam)."""
    _require_positive(lam)
    m = np.asarray(m, dtype=float)
    grad = np.asarray(grad, dtype=float)
    center = m - grad / (2.0 * lam)
    radius = float(np.linalg.norm(grad)) / (2.0 * lam)
    return Sphere(center=center, radius=radius)


def projected_gradient_bound(sphere: Sphere) -> Sphere:
    """Project a gradient-bound center onto the cone; the lost squared
    distance comes off the squared radius.  A numerically negative squared
    radius is clamped to 0 and flagged."""
    plus, minus = cone_split(sphere.center)
    r2 = sphere.radius ** 2 - float(np.vdot(minus, minus))
    clamped = r2 < 0.0
    return Sphere(center=plus, radius=math.sqrt(max(r2, 0.0)),
                  radius_clamped=clamped)


def gap_bound(problem: MetricProblem, m: np.ndarray, alpha: np.ndarray,
              lam: float, inner: Optional[np.ndarray] = None) -> Sphere:
    """Sphere centered at the primal reference with squared radius
    2 * (duality gap) / lam."""
    _require_positive(lam)
    m = np.asarray(m, dtype=float)
    g = gap(problem, m, lam, alpha=alpha, inner=inner)
    return Sphere(center=m, radius=math.sqrt(2.0 * g.value / lam))


def dual_gap_bound(problem: MetricProblem, alpha: np.ndarray, lam: float,
                   statuses: Union[None, np.ndarray, Pins] = None) -> Sphere:
    """Sphere centered at the dual-induced metric (1/lam)[S]_+ with squared
    radius gap/lam; sqrt(2) tighter than the gap bound when the same dual
    vector also supplies the primal reference.  With ``statuses``, S and the
    gap are those of the reduced objective and ``alpha`` covers the unknown
    rows (see ``gap``)."""
    _require_positive(lam)
    pins, rows = _free_rows(problem, statuses)
    alpha = np.clip(np.asarray(alpha, dtype=float), 0.0, 1.0)
    s_plus, _ = cone_split(_dual_sum(problem, alpha, pins, rows))
    center = s_plus / lam
    g = gap(problem, center, lam, pins, alpha=alpha)
    return Sphere(center=center, radius=math.sqrt(g.value / lam))


def path_bound(m_opt: np.ndarray, lam0: float, lam1: float) -> Sphere:
    """Sphere for the optimum at lam1 built from the exact optimum at lam0.

    Requires a theoretically exact reference, so this is a test/analysis
    device; ``relaxed_path_bound`` is the practical variant.
    """
    _require_positive(lam0, "lam0")
    _require_positive(lam1, "lam1")
    m_opt = np.asarray(m_opt, dtype=float)
    center = (lam0 + lam1) / (2.0 * lam1) * m_opt
    norm = float(np.linalg.norm(m_opt))
    radius = abs(lam0 - lam1) / (2.0 * lam1) * norm
    return Sphere(center=center, radius=radius)


def relaxed_path_bound(m0: np.ndarray, eps: float, lam0: float,
                       lam1: float) -> Sphere:
    """Path sphere tolerant of an approximate reference: given
    ||M0_opt - M0||_F <= eps, blurs the path-bound center and radius by eps.

    With lam1 == lam0 this reduces to a gap-style ball of radius eps around
    the reference.
    """
    _require_positive(lam0, "lam0")
    _require_positive(lam1, "lam1")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    m0 = np.asarray(m0, dtype=float)
    norm = float(np.linalg.norm(m0))
    center = (lam0 + lam1) / (2.0 * lam1) * m0
    dl = abs(lam0 - lam1)
    radius = dl / (2.0 * lam1) * norm + (dl + lam0 + lam1) / (2.0 * lam1) * eps
    return Sphere(center=center, radius=radius)
