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
metrics use the exact nonnegative-orthant rule instead, certified by the
best of closed-form Lagrange dual values (lower bounds by weak duality).

The PSD rule's ascent costs one eigendecomposition per row and step.  When
the sphere's center Q is PSD, its first step is settled in closed form from
one eigendecomposition of Q: that step lands on the point of the hyperplane
nearest Q, and when that point lies in the cone (a rank-2 secular
determinant in Q's eigenbasis, O(d) per row) the semidefinite problem is no
harder than the sphere rule, which already left the row open, so the row
cannot be certified and skips the ascent.  The shortcut only withholds
certificates; ``_first_step_in_cone`` derives why it withholds none that
the ascent would issue.

Each rule family has one batch kernel, evaluated over many triplets at once
and reached through ``screen_all``; a single triplet is a one-row call.
``lambda_ranges_all`` likewise gives the regularization intervals over which
the relaxed-path sphere rule is pre-certified to fire.

Every degenerate or undecided evaluation resolves to UNKNOWN, never to an
unsafe verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import Sphere
from .linalg import EigDecomp, cone_split, eig_sym, split_eig
from .problem import MetricProblem, TripletStatus, _rank2_parts

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


# ---------------------------------------------------------------------------
# diagonal-mode rule (ball intersected with the nonnegative orthant, exact)
# ---------------------------------------------------------------------------

def _orthant_min(h: np.ndarray, q: np.ndarray, r: float) -> np.ndarray:
    """Minimum of h_t.x over ||x - q|| <= r, x >= 0 for each row h_t of
    ``h``; NaN marks 'cannot certify'.

    Every multiplier a >= 0 of the ball constraint gives a lower bound
    (weak duality): phi(a) = h.x(a) + a (||x(a) - q||^2 - r^2) with
    x(a) = [q - h / (2a)]_+, and phi(0) = 0 where h >= 0.  Between two
    sorted breakpoints h_k / (2 q_k) the positive coordinates of x(a) are
    fixed, so phi's stationary point there is a = sqrt(s_h / (r^2 - s_q))
    in closed form.  The maximum of the concave phi is one of these d + 1
    roots or a = 0, so the best candidate is the exact minimum, and a root
    that falls outside its interval only yields a lower bound.  NaN where
    the intersection is (numerically) empty or no candidate exists.
    """
    dist_out = float(np.linalg.norm(np.minimum(q, 0.0)))
    if dist_out > r * (1.0 + 1e-12) + 1e-15:
        return np.full(h.shape[0], np.nan)
    if r == 0.0:
        return h @ np.maximum(q, 0.0)

    bps = np.divide(h, 2.0 * q, out=np.zeros_like(h), where=q != 0.0)
    edges = np.pad(np.sort(np.maximum(bps, 0.0), axis=1), ((0, 0), (1, 1)),
                   constant_values=(0.0, np.inf))
    best = np.where(np.all(h >= 0.0, axis=1), 0.0, -np.inf)
    r2 = r * r
    h2 = h * h
    q2 = q * q
    for k in range(edges.shape[1] - 1):
        lo, hi = edges[:, k], edges[:, k + 1]
        mid = np.where(np.isinf(hi), lo + 1.0, 0.5 * (lo + hi))
        active = h - 2.0 * mid[:, None] * q <= 0.0
        s_h = np.sum(h2, axis=1, where=active) / 4.0
        s_q = np.sum(np.where(active, 0.0, q2), axis=1)
        ok = (r2 > s_q) & (s_h > 0.0)
        a = np.sqrt(np.where(ok, s_h, 1.0) / np.where(ok, r2 - s_q, 1.0))
        x = np.maximum(q - h / (2.0 * a[:, None]), 0.0)
        phi = (np.einsum("kd,kd->k", h, x)
               + a * (np.sum((x - q) ** 2, axis=1) - r2))
        best = np.where(ok & (phi > best), phi, best)
    return np.where(np.isinf(best), np.nan, best)


# ---------------------------------------------------------------------------
# lambda ranges (pre-certified regularization intervals, relaxed path sphere)
# ---------------------------------------------------------------------------

def lambda_ranges_all(problem: MetricProblem, m0: np.ndarray, eps: float,
                      lam0: float, idx: Optional[np.ndarray] = None,
                      inner0: Optional[np.ndarray] = None):
    """Regularization intervals over which the relaxed-path sphere rule is
    guaranteed to fire, per triplet, given ||M0_opt - M0||_F <= eps at lam0.

    Returns (lo_up, hi_up, lo_low, hi_low): the zero part (UPPER) is
    pre-certified for lo_up < lam < hi_up and the linear part (LOWER) for
    lo_low < lam < hi_low, the mirrored derivation whose open end can be
    infinite.  An empty interval reads (inf, -inf).
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if lam0 <= 0:
        raise ValueError("lam0 must be positive")
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


def _halfspace_min(qh, ph, hn, pq, pp, r):
    """Minimum of <X, H> over the ball ||X - Q|| <= r intersected with the
    half-space {<P, X> >= 0}, row by row, in closed form by KKT cases.

    ``qh``, ``ph`` and ``hn`` hold <Q, H>, <P, H> and ||H|| per row, ``pq``
    is <P, Q> and ``pp`` is ||P||^2 > 0.  NaN marks 'cannot certify': a
    configuration that looks like an empty intersection.  Rows with
    ``hn == 0`` are left to the caller.
    """
    hn2 = hn ** 2
    ok = hn > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.maximum(pp * hn2 - ph ** 2, 0.0)
        prop = disc <= 1e-14 * pp * hn2
        den = r * r * pp - pq * pq
        sq_pp = math.sqrt(pp)
        val = np.full(qh.shape, np.nan)
        # H (numerically) proportional to P: the objective is a * <P, X>.
        a = ph / pp
        if pq + r * sq_pp >= 0.0:
            prop_val = np.where(a >= 0.0, a * max(pq - r * sq_pp, 0.0),
                                a * (pq + r * sq_pp))
            val = np.where(prop, prop_val, val)
        # The unconstrained ball minimizer already satisfies the half-space.
        feas = ~prop & ok & (pq - r * ph / np.where(ok, hn, 1.0) >= 0.0)
        val = np.where(feas, qh - r * hn, val)
        # Active half-space.  When the ball does not cross the hyperplane,
        # the half-space is inactive on its feasible side and nothing can be
        # certified on the other.
        rest = ~prop & ok & ~feas
        if den > 0.0:
            alpha = np.sqrt(disc / den)
            beta = (ph - alpha * pq) / pp
            act = qh + (beta * ph - hn2) / np.where(alpha > 0, alpha, 1.0)
            val = np.where(rest & (alpha > 0), act, val)
        elif pq >= 0.0:
            val = np.where(rest, qh - r * hn, val)
    return val


def _linear_masks(problem, sphere, halfspace, idx, qh=None):
    """Sphere verdicts sharpened by one supporting half-space of the cone."""
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
    mn = _halfspace_min(qh, ph, hn, pq, pp, r)
    mx = -_halfspace_min(-qh, -ph, hn, pq, pp, r)
    # NaN marks a degenerate evaluation: no certificate from this rule.
    up_lin = ~np.isnan(mn) & (mn > 1.0)
    low_lin = ~np.isnan(mx) & (mx < 1.0 - problem.loss.gamma)
    # Zero-norm triplets carry H == 0 and are decided by the sphere rule.
    ok = hn > 0.0
    up_lin = np.where(ok, up_lin, up)
    low_lin = np.where(ok, low_lin, low)
    both = up_lin & low_lin
    return low_lin & ~both, up_lin & ~both


def _psd_masks(problem, sphere, idx, budget, qh=None):
    """Sphere verdicts tightened by batched SDLS dual ascent.

    A feasible point of the ball/cone intersection orients each
    certificate: the projection of the center, which stays inside any valid
    ball.  A side is tried only where that point clears its threshold.  The
    ascent measures distances from the center itself.  One
    eigendecomposition of the center gives the projection and, when the
    center is PSD (so the feasible point is the center), the closed form of
    the ascent's first step (``_first_step_in_cone``), which settles without
    an eigendecomposition every row that step shows cannot be certified.
    """
    low, up, qh, hn = _sphere_masks(problem, sphere, idx, qh)
    if sphere.diagonal:
        return low, up
    eig = eig_sym(sphere.center)
    q_plus, q_minus = split_eig(eig)
    r = sphere.radius
    minus_norm = float(np.linalg.norm(q_minus))
    if minus_norm > r + 1e-12 * max(1.0, r):
        return low, up
    q_is_psd = minus_norm <= 1e-12 * max(1.0, float(np.linalg.norm(sphere.center)))
    if q_is_psd:
        x0h = qh
    else:
        x0h = problem.inner(q_plus, idx)
        eig = None

    gamma = problem.loss.gamma
    undecided = ~(low | up) & (hn > 0.0)
    for c, side, cand in ((1.0, up, undecided & (x0h > 1.0)),
                          (1.0 - gamma, low, undecided & (x0h < 1.0 - gamma))):
        cand = np.flatnonzero(cand)
        if cand.size:
            fired = _sdls_batch(problem, sphere.center, r, idx[cand], c,
                                qh[cand], x0h[cand], budget, eig)
            side[cand[fired]] = True
    return low, up


def _sdls_batch(problem: MetricProblem, q: np.ndarray, r: float,
                rows: np.ndarray, c: float, qh: np.ndarray, x0h: np.ndarray,
                budget: int, eig: Optional[EigDecomp] = None,
                chunk: int = 4096) -> np.ndarray:
    """Vectorized SDLS dual ascent over many triplets; True where certified.

    ``qh`` holds <Q, H> per row.  ``eig``, the eigendecomposition of a PSD
    center Q (then ``x0h == qh``), lets rows whose first ascent step is
    settled in closed form skip the ascent.
    """
    fired = np.zeros(rows.size, dtype=bool)
    for start in range(0, rows.size, chunk):
        sel = np.arange(start, min(start + chunk, rows.size))
        if eig is not None:
            sel = sel[~_first_step_in_cone(problem, eig, rows[sel], c,
                                           qh[sel], r)]
        if sel.size:
            fired[sel] = _sdls_chunk(problem, q, r, rows[sel], c, qh[sel],
                                     x0h[sel], budget)
    return fired


def _cone_tolerance(u, v, r):
    """The eigenvalue tolerance tau of ``_first_step_in_cone`` for the rows
    H = u u^T - v v^T: tau^2 (d - 1 + kappa^2) = _SDLS_GUARD * max(1, r^2),
    with kappa the ratio of the larger to the smaller nonzero eigenvalue
    magnitude of H.  Zero where H has rank below 2 (no such tolerance
    exists)."""
    along, wedge = _rank2_parts(u, v)
    s_max = 0.5 * (np.abs(along) + np.sqrt(along ** 2 + 4.0 * wedge))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wedge > 0.0, wedge / s_max ** 2, 0.0)  # 1 / kappa
    slack = _SDLS_GUARD * max(1.0, r * r)
    d = u.shape[1]
    return math.sqrt(slack) * ratio / np.sqrt((d - 1) * ratio ** 2 + 1.0)


def _first_step_in_cone(problem, eig, rows, c, qh, r):
    """True where the ascent's first step shows that a row of a PSD center
    Q = V diag(lam) V^T cannot be certified.

    The step is y0 = (c - <Q, H>) / ||H||^2, and X0 = Q + y0 H is the point
    of the hyperplane <X, H> = c closest to Q, at the sphere distance
    delta = |c - <Q, H>| / ||H||, which is <= r because the sphere rule left
    the row open.  In the eigenbasis, with t = |y0|, X0 = diag(lam)
    + t p p^T - t w w^T, (p, w) = (V^T u, V^T v) for y0 > 0 and
    (V^T v, V^T u) otherwise.  For B = diag(lam) + tau I + t p p^T > 0,
    B - t w w^T >= 0 iff 1 - t w^T B^-1 w >= 0, and by the determinant lemma
    that is f = det(X0 + tau I) / det(diag(lam) + tau I)
    = (1 + t a)(1 - t b) + t^2 m^2 >= 0, with a, b and m the sums of p^2,
    w^2 and p w over lam + tau: O(d) per row after the O(d^2) basis change.

    So f >= 0 iff X0 has no eigenvalue below -tau.  Then X0 + tau P is
    feasible for the SDLS problem, where P = I + (a' - 1) e+ e+^T
    + (b' - 1) e- e-^T, e+ and e- are the unit eigenvectors of H's nonzero
    eigenvalues s+ and -s-, a', b' >= 1 with a' s+ = b' s- (so P >= I and
    <P, H> = 0), and ||P||^2 = d - 1 + kappa^2.  The SDLS optimum, which
    bounds every dual value (weak duality), is therefore at most
    ||y0 H + tau P||^2 = delta^2 + tau^2 ||P||^2 <= r^2 + G, where
    G = _SDLS_GUARD * max(1, r^2) by the choice of tau
    (``_cone_tolerance``).  The ascent certifies only a dual value above
    r^2 + G, so in exact arithmetic it would not certify such a row either;
    settling it here only withholds certificates and never issues one.
    Rows with tau == 0 or lam + tau not positive are left to the ascent.
    """
    ts = problem.triplets
    u, v = ts.rows(rows)
    y0 = (c - qh) / ts.hnorm[rows] ** 2
    tau = _cone_tolerance(u, v, r)
    lam = eig.values
    u_rot = u @ eig.vectors
    v_rot = v @ eig.vectors
    pos = (y0 > 0.0)[:, None]
    p = np.where(pos, u_rot, v_rot)
    w = np.where(pos, v_rot, u_rot)
    t = np.abs(y0)
    ok = (tau > 0.0) & (lam.min() + tau > 0.0)
    shifted = lam[None, :] + tau[:, None]
    inv = np.divide(1.0, shifted, out=np.zeros_like(shifted),
                    where=ok[:, None])
    a = np.einsum("kd,kd->k", p * p, inv)
    b = np.einsum("kd,kd->k", w * w, inv)
    pw = np.einsum("kd,kd->k", p * w, inv)
    f = (1.0 + t * a) * (1.0 - t * b) + (t * pw) ** 2
    return ok & (f >= 0.0)


def _sdls_chunk(problem, q, r, rows, c, qh, x0h, budget):
    """Ascend the 1-d dual of  min ||X - Q||^2  s.t. <X, H> = c, X >= 0.

    A row is certified once its dual value exceeds r^2: weak duality then
    shows the hyperplane misses the ball/cone intersection, which therefore
    lies strictly on the side of c that the feasible point ``x0h`` is on.
    The dual is concave in the scalar y with derivative
    2 * (c - <[Q + yH]_+, H>); a safeguarded secant iteration on that
    derivative, with doubling expansion until a sign change brackets the
    root, costs one eigendecomposition per row and step.  ``qh`` holds
    <Q, H> per row.  The first step goes to y0 = (c - x0h) / ||H||^2; for a
    PSD center (x0h == <Q, H>) that is the step ``_first_step_in_cone``
    evaluates in closed form, and the rows it settles never reach here.
    """
    ts = problem.triplets
    u, v = ts.rows(rows)
    hd = u[:, :, None] * u[:, None, :] - v[:, :, None] * v[:, None, :]
    hn2 = ts.hnorm[rows] ** 2
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
    """Sphere verdicts tightened by the exact orthant minimum of <X, H>,
    then by that of -<X, H> on the open rows that did not fire UPPER."""
    if not problem.diagonal:
        raise ValueError("nonneg rule requires a diagonal-mode problem")
    low, up, qh, hn = _sphere_masks(problem, sphere, idx, qh)
    q = sphere.center
    r = sphere.radius
    # NaN (cannot certify) fails both comparisons.
    rows = np.flatnonzero(~(low | up))
    h = problem.diag_rows(idx[rows])
    up[rows] = _orthant_min(h, q, r) > 1.0
    keep = ~up[rows]
    rows, h = rows[keep], h[keep]
    low[rows] = -_orthant_min(-h, q, r) < 1.0 - problem.loss.gamma
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
