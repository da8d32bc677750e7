"""Screening rules: certify triplets into the linear-loss or zero-loss part.

Given a sphere known to contain the optimal metric, a triplet can be fixed
when the extreme values of <X, H> over the sphere (optionally intersected
with the PSD cone or a supporting half-space of it) clear the loss
thresholds:

    min <X, H> over the region > 1          =>  zero part   (status UPPER)
    max <X, H> over the region < 1 - gamma  =>  linear part (status LOWER)

Three rule families trade tightness against cost: the plain sphere rule
(closed form), the linear rule (sphere + one supporting half-space, closed
form), and the PSD rule (sphere + full semidefinite constraint, certified by
dual ascent on a semidefinite least-squares subproblem).  Diagonal-mode
metrics use the exact nonnegative-orthant rule instead.

Every degenerate or undecided evaluation resolves to UNKNOWN, never to an
unsafe verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .bounds import Sphere
from .linalg import cone_split, min_eigpair
from .problem import MetricProblem, SmoothedHingeLoss, Triplet, TripletStatus

# Relative slack demanded beyond a certification threshold before a verdict
# is issued by the iterative PSD rule (its dual values carry eigensolver
# noise; the closed-form rules compare exactly).
_SDLS_GUARD = 1e-12


@dataclass(frozen=True)
class HalfSpace:
    """Half-space {X : <normal, X> >= 0} containing the PSD cone.

    ``normal is None`` marks the vacuous half-space (whole space), used when
    the generating iterate was already PSD.
    """

    normal: Optional[np.ndarray]

    @property
    def vacuous(self) -> bool:
        return self.normal is None


def halfspace_from_iterate(a: np.ndarray) -> HalfSpace:
    """Supporting half-space of the PSD cone at the projection of ``a``.

    With a = M - eta * grad from a projected-gradient step, the projection is
    computed anyway, so the half-space normal -[a]_- comes for free.
    """
    a = np.asarray(a, dtype=float)
    _, minus = cone_split(a)
    scale = max(1.0, float(np.linalg.norm(a)))
    if float(np.linalg.norm(minus)) <= 1e-12 * scale:
        return HalfSpace(normal=None)
    return HalfSpace(normal=-minus)


@dataclass(frozen=True)
class LambdaRange:
    """Open interval of regularization values over which a rule is
    pre-certified to fire for one triplet."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return not (self.lo < self.hi)

    def covers(self, lam: float) -> bool:
        return self.lo < lam < self.hi


EMPTY_RANGE = LambdaRange(lo=math.inf, hi=-math.inf)


# ---------------------------------------------------------------------------
# sphere rule
# ---------------------------------------------------------------------------

def _triplet_geometry(sphere: Sphere, t: Triplet) -> Tuple[float, float]:
    """(<H, Q>, triplet norm) in the layout matching the sphere."""
    if sphere.diagonal:
        h = t.diag()
        return float(h @ sphere.center), float(np.linalg.norm(h))
    return t.inner(sphere.center), t.hnorm


def sphere_rule(sphere: Sphere, t: Triplet,
                loss: SmoothedHingeLoss) -> TripletStatus:
    """Closed-form rule using the ball alone."""
    qh, hn = _triplet_geometry(sphere, t)
    r = sphere.radius
    if qh - r * hn > 1.0:
        return TripletStatus.UPPER
    if qh + r * hn < 1.0 - loss.gamma:
        return TripletStatus.LOWER
    return TripletStatus.UNKNOWN


# ---------------------------------------------------------------------------
# linear rule (ball intersected with one supporting half-space of the cone)
# ---------------------------------------------------------------------------

def _p4_min(qh: float, ph: float, hn: float, pq: float, pp: float,
            r: float) -> Optional[float]:
    """Minimum of <X, H> over the ball intersected with {<P, X> >= 0}.

    Closed-form by KKT cases; returns None when the configuration is
    degenerate in a way that cannot be resolved safely (empty-looking
    intersection), which the caller maps to UNKNOWN.
    """
    if hn == 0.0:
        return 0.0
    disc = pp * hn ** 2 - ph ** 2
    sqpp = math.sqrt(pp)
    if disc <= 1e-14 * pp * hn ** 2:
        # H is (numerically) proportional to P: the objective is a * <P, X>.
        a = ph / pp
        if pq + r * sqpp < 0.0:
            return None
        if a >= 0.0:
            return a * max(pq - r * sqpp, 0.0)
        return a * (pq + r * sqpp)
    if pq - r * ph / hn >= 0.0:
        # The unconstrained ball minimizer already satisfies the half-space.
        return qh - r * hn
    den = r ** 2 * pp - pq ** 2
    if den <= 0.0:
        # Ball does not cross the hyperplane.  On the feasible side the
        # half-space is inactive; on the other side nothing can be certified.
        return qh - r * hn if pq >= 0.0 else None
    alpha = math.sqrt(disc / den)
    beta = (ph - alpha * pq) / pp
    return qh + (beta * ph - hn ** 2) / alpha


def linear_rule(sphere: Sphere, halfspace: HalfSpace, t: Triplet,
                loss: SmoothedHingeLoss) -> TripletStatus:
    """Sphere rule sharpened by one supporting half-space of the PSD cone."""
    if halfspace.vacuous or sphere.diagonal:
        return sphere_rule(sphere, t, loss)
    p = halfspace.normal
    qh, hn = _triplet_geometry(sphere, t)
    if hn == 0.0:
        return sphere_rule(sphere, t, loss)
    ph = t.inner(p)
    pq = float(np.vdot(p, sphere.center))
    pp = float(np.vdot(p, p))
    if pp == 0.0:
        return sphere_rule(sphere, t, loss)
    r = sphere.radius

    upper = False
    lower = False
    mn = _p4_min(qh, ph, hn, pq, pp, r)
    if mn is not None and mn > 1.0:
        upper = True
    neg = _p4_min(-qh, -ph, hn, pq, pp, r)
    if neg is not None and -neg < 1.0 - loss.gamma:
        lower = True
    if upper and lower:
        return TripletStatus.UNKNOWN
    if upper:
        return TripletStatus.UPPER
    if lower:
        return TripletStatus.LOWER
    return TripletStatus.UNKNOWN


# ---------------------------------------------------------------------------
# PSD rule (ball intersected with the semidefinite cone, via SDLS dual ascent)
# ---------------------------------------------------------------------------

def _sdls_certifies(q: np.ndarray, q_sq: float, q_is_psd: bool, r: float,
                    t: Triplet, c: float, phi0: float, budget: int) -> bool:
    """Ascend the 1-d dual of  min ||X - Q||^2  s.t. <X, H> = c, X >= 0.

    Returns True as soon as the dual value exceeds r^2 (weak duality then
    certifies that the hyperplane misses the ball/cone intersection, so the
    whole intersection lies strictly on the reference side of c).

    ``phi0`` is c - <[Q]_+, H> and fixes the ascent direction.  The dual is
    concave in the scalar y; its derivative is 2 * (c - <[Q + yH]_+, H>), so
    a safeguarded secant iteration on that derivative, with doubling
    expansion until a sign change brackets the root, is used.  Every
    evaluation needs one eigen-solve; when Q is PSD the iterate Q + yH has at
    most one negative eigenvalue, so a minimum-eigenpair solve updates the
    projection instead of a full decomposition.
    """
    u, v = t.u, t.v
    hn2 = t.hnorm ** 2
    if hn2 == 0.0:
        return False  # callers resolve H == 0 through the sphere rule
    qh = t.inner(q)
    h_dense = np.outer(u, u) - np.outer(v, v)
    guard = _SDLS_GUARD * max(1.0, r * r)

    def evaluate(y: float) -> Tuple[float, float]:
        a = q + y * h_dense
        a_sq = q_sq + 2.0 * y * qh + y * y * hn2
        ah = qh + y * hn2
        if q_is_psd:
            lmin, vec = min_eigpair(a)
            if lmin < 0.0:
                a_sq_plus = a_sq - lmin * lmin
                ah_plus = ah - lmin * ((u @ vec) ** 2 - (v @ vec) ** 2)
            else:
                a_sq_plus, ah_plus = a_sq, ah
        else:
            w, vecs = np.linalg.eigh(a)
            neg = w < 0.0
            a_sq_plus = a_sq - float(np.sum(w[neg] ** 2))
            quad = (u @ vecs[:, neg]) ** 2 - (v @ vecs[:, neg]) ** 2
            ah_plus = ah - float(w[neg] @ quad)
        dual = -a_sq_plus + 2.0 * c * y + q_sq
        return dual, c - ah_plus

    direction = 1.0 if phi0 > 0 else -1.0
    y_lo = y_hi = None      # bracket endpoints with phi > 0 / phi < 0
    phi_lo = phi_hi = None
    y, phi = 0.0, phi0
    step = abs(phi0) / hn2
    evals = 0
    while evals < budget:
        if phi > 0:
            y_lo, phi_lo = y, phi
        elif phi < 0:
            y_hi, phi_hi = y, phi
        else:
            return False  # at the dual optimum without certification

        if y_lo is not None and y_hi is not None:
            # Secant step on the derivative, clipped into the bracket.
            denom = phi_lo - phi_hi
            y_next = y_lo + phi_lo * (y_hi - y_lo) / denom if denom != 0 else None
            lo, hi = min(y_lo, y_hi), max(y_lo, y_hi)
            if y_next is None or not (lo < y_next < hi):
                y_next = 0.5 * (lo + hi)
            if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
                return False
        else:
            y_next = y + direction * step
            step *= 2.0

        dual, phi = evaluate(y_next)
        evals += 1
        y = y_next
        if dual > r * r + guard:
            return True
        if abs(phi) <= 1e-12 * max(1.0, abs(c)) and dual <= r * r:
            return False
    return False


def psd_rule(sphere: Sphere, t: Triplet, loss: SmoothedHingeLoss,
             budget: int = 30) -> TripletStatus:
    """Rule honoring the full semidefinite constraint.

    A feasible point of the ball/cone intersection is needed to orient the
    certificate; the projection of the center serves (for any valid sphere
    it stays inside the ball).  If that point does not clear the threshold,
    nothing can be certified and the answer is immediately UNKNOWN.
    """
    if sphere.diagonal:
        return nonneg_rule(sphere, t, loss)
    verdict = sphere_rule(sphere, t, loss)
    if verdict != TripletStatus.UNKNOWN:
        return verdict  # the PSD-constrained extremes only tighten these
    if t.hnorm == 0.0:
        return TripletStatus.UNKNOWN  # sphere rule above already decided H=0

    q_plus, q_minus = cone_split(sphere.center)
    r = sphere.radius
    if float(np.linalg.norm(q_minus)) > r + 1e-12 * max(1.0, r):
        return TripletStatus.UNKNOWN  # ball misses the cone: nothing safe to say
    q_is_psd = float(np.linalg.norm(q_minus)) <= 1e-12 * max(
        1.0, float(np.linalg.norm(sphere.center)))
    q = q_plus if q_is_psd else sphere.center
    q_sq = float(np.vdot(q, q))
    x0h = t.inner(q_plus)

    if x0h > 1.0:
        if _sdls_certifies(q, q_sq, q_is_psd, r, t, c=1.0,
                           phi0=1.0 - x0h, budget=budget):
            return TripletStatus.UPPER
    elif x0h < 1.0 - loss.gamma:
        c = 1.0 - loss.gamma
        if _sdls_certifies(q, q_sq, q_is_psd, r, t, c=c,
                           phi0=c - x0h, budget=budget):
            return TripletStatus.LOWER
    return TripletStatus.UNKNOWN


# ---------------------------------------------------------------------------
# diagonal-mode rule (ball intersected with the nonnegative orthant, exact)
# ---------------------------------------------------------------------------

def _orthant_min(h: np.ndarray, q: np.ndarray, r: float) -> Optional[float]:
    """Exact minimum of h.x over ||x - q|| <= r, x >= 0.

    KKT interval enumeration over the breakpoints h_k / (2 q_k); None when
    the intersection is (numerically) empty.
    """
    dist_out = float(np.linalg.norm(np.minimum(q, 0.0)))
    if dist_out > r * (1.0 + 1e-12) + 1e-15:
        return None
    if r == 0.0:
        return float(h @ np.maximum(q, 0.0))

    if np.all(h >= 0.0):
        # Objective minimized on the face {x_k = 0 wherever h_k > 0}.
        face = np.where(h > 0.0, 0.0, np.maximum(q, 0.0))
        if float(np.linalg.norm(face - q)) <= r:
            return 0.0

    pos = (np.abs(q) > 0.0)
    bps = h[pos] / (2.0 * q[pos])
    bps = np.unique(bps[bps > 0.0])
    edges = np.concatenate([[0.0], bps, [np.inf]])
    r2 = r * r
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        mid = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        if mid <= 0.0:
            mid = 0.5 * hi if not math.isinf(hi) else 1.0
        active = h - 2.0 * mid * q <= 0.0
        s_h = float(np.sum(h[active] ** 2)) / 4.0
        s_q = float(np.sum(q[~active] ** 2))
        if r2 <= s_q or s_h == 0.0:
            continue
        alpha = math.sqrt(s_h / (r2 - s_q))
        if lo - 1e-12 * max(1.0, lo) <= alpha <= hi * (1.0 + 1e-12):
            x_act = q[active] - h[active] / (2.0 * alpha)
            return float(h[active] @ x_act)
    return None


def nonneg_rule(sphere: Sphere, t: Triplet,
                loss: SmoothedHingeLoss) -> TripletStatus:
    """Exact rule for diagonal metrics, where the cone is the orthant."""
    if not sphere.diagonal:
        raise ValueError("nonneg_rule requires a diagonal-mode sphere")
    h = t.diag()
    q = sphere.center
    r = sphere.radius

    upper = False
    lower = False
    mn = _orthant_min(h, q, r)
    if mn is not None and mn > 1.0:
        upper = True
    neg = _orthant_min(-h, q, r)
    if neg is not None and -neg < 1.0 - loss.gamma:
        lower = True
    if upper and lower:
        return TripletStatus.UNKNOWN
    if upper:
        return TripletStatus.UPPER
    if lower:
        return TripletStatus.LOWER
    return TripletStatus.UNKNOWN


# ---------------------------------------------------------------------------
# lambda ranges (pre-certified regularization intervals, relaxed path sphere)
# ---------------------------------------------------------------------------

def _upper_range(qh, hn, norm0, eps, lam0):
    den = qh - 2.0 + hn * norm0
    if den <= 0.0:
        return EMPTY_RANGE
    lo = lam0 * (norm0 * hn - qh + 2.0 * eps * hn) / den
    hi = lam0 * (norm0 * hn + qh) / (hn * norm0 - qh + 2.0 + 2.0 * eps * hn)
    return LambdaRange(lo=lo, hi=hi) if lo < hi else EMPTY_RANGE


def _lower_range(qh, hn, norm0, eps, lam0, gamma):
    margin = 1.0 - gamma
    if not qh + eps * hn < margin:
        return EMPTY_RANGE
    lo = lam0 * (qh + norm0 * hn + 2.0 * eps * hn) / (norm0 * hn - qh + 2.0 * margin)
    dr = 2.0 * margin - qh - norm0 * hn - 2.0 * eps * hn
    hi = math.inf if dr >= 0.0 else lam0 * (norm0 * hn - qh) / (-dr)
    return LambdaRange(lo=lo, hi=hi) if lo < hi else EMPTY_RANGE


def lambda_range(m0: np.ndarray, eps: float, lam0: float, t: Triplet,
                 loss: SmoothedHingeLoss, side: str) -> LambdaRange:
    """Regularization interval over which the relaxed-path sphere rule is
    guaranteed to fire for this triplet, given ||M0_opt - M0||_F <= eps at
    lam0.

    ``side="upper"`` pre-certifies the zero part.  ``side="lower"`` is the
    mirrored derivation for the linear part (obtained from the max-side rule
    by the same algebra; the open end of its interval can be infinite).
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if lam0 <= 0:
        raise ValueError("lam0 must be positive")
    m0 = np.asarray(m0, dtype=float)
    if m0.ndim == 1:
        h = t.diag()
        qh, hn = float(h @ m0), float(np.linalg.norm(h))
    else:
        qh, hn = t.inner(m0), t.hnorm
    norm0 = float(np.linalg.norm(m0))
    if side == "upper":
        return _upper_range(qh, hn, norm0, eps, lam0)
    if side == "lower":
        return _lower_range(qh, hn, norm0, eps, lam0, loss.gamma)
    raise ValueError(f"unknown side {side!r}")


def lambda_ranges_all(problem: MetricProblem, m0: np.ndarray, eps: float,
                      lam0: float, idx: Optional[np.ndarray] = None,
                      inner0: Optional[np.ndarray] = None):
    """Vectorized ranges for both sides: (lo_up, hi_up, lo_low, hi_low)."""
    qh = problem.inner(m0, idx) if inner0 is None else inner0
    hn = problem.h_norms if idx is None else problem.h_norms[idx]
    norm0 = float(np.linalg.norm(m0))
    gamma = problem.loss.gamma

    with np.errstate(divide="ignore", invalid="ignore"):
        den_up = qh - 2.0 + hn * norm0
        lo_up = lam0 * (norm0 * hn - qh + 2.0 * eps * hn) / den_up
        hi_up = lam0 * (norm0 * hn + qh) / (hn * norm0 - qh + 2.0 + 2.0 * eps * hn)
        bad_up = (den_up <= 0.0) | ~(lo_up < hi_up)
        lo_up = np.where(bad_up, np.inf, lo_up)
        hi_up = np.where(bad_up, -np.inf, hi_up)

        margin = 1.0 - gamma
        fires0 = qh + eps * hn < margin
        lo_low = lam0 * (qh + norm0 * hn + 2.0 * eps * hn) / (norm0 * hn - qh + 2.0 * margin)
        dr = 2.0 * margin - qh - norm0 * hn - 2.0 * eps * hn
        hi_low = np.where(dr >= 0.0, np.inf,
                          lam0 * (norm0 * hn - qh) / np.where(dr < 0, -dr, 1.0))
        bad_low = ~fires0 | ~(lo_low < hi_low)
        lo_low = np.where(bad_low, np.inf, lo_low)
        hi_low = np.where(bad_low, -np.inf, hi_low)
    return lo_up, hi_up, lo_low, hi_low


# ---------------------------------------------------------------------------
# batch screening
# ---------------------------------------------------------------------------

@dataclass
class ScreenCounts:
    new_lower: int
    new_upper: int
    remaining: int


def _sphere_masks(problem, sphere, idx, qh=None):
    if qh is None:
        qh = problem.inner(sphere.center, idx)
    hn = problem.h_norms[idx]
    r = sphere.radius
    up = qh - r * hn > 1.0
    low = qh + r * hn < 1.0 - problem.loss.gamma
    return low, up, qh, hn


def _linear_masks(problem, sphere, halfspace, idx, qh=None):
    low, up, qh, hn = _sphere_masks(problem, sphere, idx, qh)
    if halfspace is None or halfspace.vacuous or sphere.diagonal:
        return low, up
    p = halfspace.normal
    pq = float(np.vdot(p, sphere.center))
    pp = float(np.vdot(p, p))
    if pp == 0.0:
        return low, up
    ph = problem.inner(p, idx)
    r = sphere.radius
    gamma = problem.loss.gamma

    hn2 = hn ** 2
    ok = hn > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.maximum(pp * hn2 - ph ** 2, 0.0)
        prop = disc <= 1e-14 * pp * hn2
        den = r * r * pp - pq * pq
        sq_pp = math.sqrt(pp)

        def side_min(qh_s, ph_s):
            """Vectorized _p4_min; NaN marks 'cannot certify'."""
            val = np.full(qh_s.shape, np.nan)
            # proportional case
            a = ph_s / pp
            if pq + r * sq_pp >= 0.0:
                prop_val = np.where(a >= 0.0, a * max(pq - r * sq_pp, 0.0),
                                    a * (pq + r * sq_pp))
                val = np.where(prop, prop_val, val)
            # ball minimizer feasible
            feas = ~prop & ok & (pq - r * ph_s / np.where(ok, hn, 1.0) >= 0.0)
            val = np.where(feas, qh_s - r * hn, val)
            # active half-space
            rest = ~prop & ok & ~feas
            if den > 0.0:
                alpha = np.sqrt(disc / den)
                beta = (ph_s - alpha * pq) / pp
                with np.errstate(divide="ignore", invalid="ignore"):
                    act = qh_s + (beta * ph_s - hn2) / np.where(alpha > 0, alpha, 1.0)
                val = np.where(rest & (alpha > 0), act, val)
            elif pq >= 0.0:
                val = np.where(rest, qh_s - r * hn, val)
            return val

        mn = side_min(qh, ph)
        mx = -side_min(-qh, -ph)
    # NaN marks a degenerate evaluation: no certificate from this rule.
    up_lin = ~np.isnan(mn) & (mn > 1.0)
    low_lin = ~np.isnan(mx) & (mx < 1.0 - gamma)
    # Zero-norm triplets carry H == 0 and are decided by the sphere rule.
    up_lin = np.where(ok, up_lin, up)
    low_lin = np.where(ok, low_lin, low)
    both = up_lin & low_lin
    return low_lin & ~both, up_lin & ~both


def _psd_masks(problem, sphere, idx, budget, qh=None):
    """Sphere verdicts tightened by batched SDLS dual ascent."""
    low, up, qh, hn = _sphere_masks(problem, sphere, idx, qh)
    if sphere.diagonal:
        return low, up
    q_plus, q_minus = cone_split(sphere.center)
    r = sphere.radius
    minus_norm = float(np.linalg.norm(q_minus))
    if minus_norm > r + 1e-12 * max(1.0, r):
        return low, up
    q_is_psd = minus_norm <= 1e-12 * max(1.0, float(np.linalg.norm(sphere.center)))
    q = q_plus if q_is_psd else sphere.center
    x0h = qh if q_is_psd else problem.inner(q_plus, idx)

    gamma = problem.loss.gamma
    undecided = ~(low | up) & (hn > 0.0)
    cand_up = np.flatnonzero(undecided & (x0h > 1.0))
    cand_low = np.flatnonzero(undecided & (x0h < 1.0 - gamma))
    if cand_up.size:
        fired = _sdls_batch(problem, q, r, idx[cand_up], 1.0,
                            x0h[cand_up], budget)
        up[cand_up[fired]] = True
    if cand_low.size:
        fired = _sdls_batch(problem, q, r, idx[cand_low], 1.0 - gamma,
                            x0h[cand_low], budget)
        low[cand_low[fired]] = True
    return low, up


def _sdls_batch(problem: MetricProblem, q: np.ndarray, r: float,
                rows: np.ndarray, c: float, x0h: np.ndarray,
                budget: int, chunk: int = 4096) -> np.ndarray:
    """Vectorized SDLS dual ascent over many triplets; True where certified."""
    fired = np.zeros(rows.size, dtype=bool)
    for start in range(0, rows.size, chunk):
        sel = slice(start, start + chunk)
        fired[sel] = _sdls_chunk(problem, q, r, rows[sel], c, x0h[sel], budget)
    return fired


def _sdls_chunk(problem, q, r, rows, c, x0h, budget):
    ts = problem.triplets
    u = ts.u[rows]
    v = ts.v[rows]
    hd = u[:, :, None] * u[:, None, :] - v[:, :, None] * v[:, None, :]
    hn2 = ts.hnorm[rows] ** 2
    qh = problem.inner(q, rows)
    q_sq = float(np.vdot(q, q))
    n = rows.size
    r2_guard = r * r + _SDLS_GUARD * max(1.0, r * r)

    def evaluate(y, active):
        a = q[None, :, :] + y[active, None, None] * hd[active]
        w, vecs = np.linalg.eigh(a)
        wneg = np.minimum(w, 0.0)
        a_sq = q_sq + 2.0 * y[active] * qh[active] + y[active] ** 2 * hn2[active]
        a_sq_plus = a_sq - np.sum(wneg ** 2, axis=1)
        uq = np.einsum("kd,kde->ke", u[active], vecs)
        vq = np.einsum("kd,kde->ke", v[active], vecs)
        ah = qh[active] + y[active] * hn2[active]
        ah_plus = ah - np.einsum("ke,ke->k", wneg, uq ** 2 - vq ** 2)
        dual = -a_sq_plus + 2.0 * c * y[active] + q_sq
        return dual, c - ah_plus

    y = np.zeros(n)
    phi = c - x0h
    direction = np.sign(phi)
    step = np.abs(phi) / hn2
    y_lo = np.full(n, np.nan)
    phi_lo = np.full(n, np.nan)
    y_hi = np.full(n, np.nan)
    phi_hi = np.full(n, np.nan)
    fired = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    phi_tol = 1e-12 * max(1.0, abs(c))

    for _ in range(budget):
        pos = phi > 0
        y_lo = np.where(active & pos, y, y_lo)
        phi_lo = np.where(active & pos, phi, phi_lo)
        y_hi = np.where(active & ~pos, y, y_hi)
        phi_hi = np.where(active & ~pos, phi, phi_hi)

        have = ~np.isnan(y_lo) & ~np.isnan(y_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = phi_lo - phi_hi
            secant = y_lo + phi_lo * (y_hi - y_lo) / denom
        lo = np.minimum(y_lo, y_hi)
        hi = np.maximum(y_lo, y_hi)
        good = have & np.isfinite(secant) & (secant > lo) & (secant < hi)
        bisect = 0.5 * (lo + hi)
        y_next = np.where(have, np.where(good, secant, bisect),
                          y + direction * step)
        step = np.where(have, step, step * 2.0)

        shrunk = have & (hi - lo <= 1e-15 * np.maximum(1.0, np.abs(hi)))
        active &= ~shrunk
        if not active.any():
            break

        y = np.where(active, y_next, y)
        dual, phi_new = evaluate(y, active)
        phi = phi.copy()
        phi[active] = phi_new

        idx_act = np.flatnonzero(active)
        newly = dual > r2_guard
        fired[idx_act[newly]] = True
        done = newly | ((np.abs(phi_new) <= phi_tol) & (dual <= r * r))
        active[idx_act[done]] = False
        if not active.any():
            break
    return fired


def _nonneg_masks(problem, sphere, idx, qh=None):
    if problem.h_diag is None:
        raise ValueError("nonneg rule requires a diagonal-mode problem")
    low, up, qh, hn = _sphere_masks(problem, sphere, idx, qh)
    gamma = problem.loss.gamma
    q = sphere.center
    r = sphere.radius
    undecided = np.flatnonzero(~(low | up))
    for k in undecided:
        h = problem.h_diag[idx[k]]
        mn = _orthant_min(h, q, r)
        if mn is not None and mn > 1.0:
            up[k] = True
            continue
        neg = _orthant_min(-h, q, r)
        if neg is not None and -neg < 1.0 - gamma:
            low[k] = True
    return low, up


def screen_all(problem: MetricProblem,
               spheres: Sequence[Sphere] | Sphere,
               statuses: np.ndarray,
               rule: str = "sphere",
               halfspace: Optional[HalfSpace] = None,
               budget: int = 30,
               inner_cache: Optional[np.ndarray] = None) -> ScreenCounts:
    """Apply a rule family over every still-unknown triplet.

    Already-screened entries are never re-evaluated or revoked.  When
    several spheres are given the verdicts are OR-ed (each applied to the
    triplets the previous ones left unknown).  ``inner_cache``, when given,
    must hold <H_t, center> of the *first* sphere for all triplets.

    ``statuses`` is updated in place; the returned counts cover this call.
    """
    if isinstance(spheres, Sphere):
        spheres = [spheres]
    new_lower = 0
    new_upper = 0
    for si, sphere in enumerate(spheres):
        idx = np.flatnonzero(statuses == TripletStatus.UNKNOWN)
        if idx.size == 0:
            break
        qh = None
        if si == 0 and inner_cache is not None:
            qh = inner_cache[idx]
        if rule == "sphere":
            low, up = _sphere_masks(problem, sphere, idx, qh)[:2]
        elif rule == "linear":
            low, up = _linear_masks(problem, sphere, halfspace, idx, qh)
        elif rule == "psd":
            low, up = _psd_masks(problem, sphere, idx, budget, qh)
        elif rule == "nonneg":
            low, up = _nonneg_masks(problem, sphere, idx, qh)
        else:
            raise ValueError(f"unknown rule {rule!r}")
        both = low & up
        low &= ~both
        up &= ~both
        statuses[idx[low]] = TripletStatus.LOWER
        statuses[idx[up]] = TripletStatus.UPPER
        new_lower += int(low.sum())
        new_upper += int(up.sum())
    remaining = int(np.count_nonzero(statuses == TripletStatus.UNKNOWN))
    return ScreenCounts(new_lower=new_lower, new_upper=new_upper,
                        remaining=remaining)
