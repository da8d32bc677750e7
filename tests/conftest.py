"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own fast paths: dense
materialization of the rank-2 comparison matrices, scipy's SLSQP for the
constrained rule subproblems, finite differences for gradients, and duality
certified high-accuracy solves for reference partitions.
"""

import numpy as np
import pytest

from tripscreen import (MetricProblem, SmoothedHingeLoss, SolveConfig,
                        TripletSet, TripletStatus, build_triplets,
                        gaussian_blobs, lambda_ranges_all, relaxed_path_bound,
                        screen_all, solve)


def dense_h(u, v) -> np.ndarray:
    """Dense comparison matrix u u^T - v v^T (test-only)."""
    return np.outer(u, u) - np.outer(v, v)


def one_triplet(u, v, loss, diagonal=False):
    """Problem over the single triplet with factors u = x_i - x_l and
    v = x_i - x_j."""
    ts = TripletSet([0], [1], [2], np.asarray(u, dtype=float)[None],
                    np.asarray(v, dtype=float)[None])
    return MetricProblem(ts, loss, diagonal=diagonal)


def verdicts(problem, sphere, rule="sphere", **kwargs):
    """Statuses that ``screen_all`` gives every triplet of a fresh problem."""
    statuses = np.zeros(problem.n_triplets, dtype=np.int8)
    screen_all(problem, sphere, statuses, rule=rule, **kwargs)
    return statuses


def check_lambda_ranges(problem, m0, eps, lam0):
    """Check the intervals of ``lambda_ranges_all`` against the verdicts of
    the relaxed-path sphere rule, triplet by triplet.

    Each side of each triplet is probed on a 50-point lambda grid spanning
    its interval (or lam0 / 8 .. 8 lam0 when it is empty), skipping points
    within 1e-9 relative of an endpoint.  Returns the number of grid
    evaluations and of nonempty intervals.
    """
    lo_up, hi_up, lo_low, hi_low = lambda_ranges_all(problem, m0, eps, lam0)
    tested = 0
    nonempty = 0
    for t in range(problem.n_triplets):
        for lo, hi, status in ((lo_up[t], hi_up[t], TripletStatus.UPPER),
                               (lo_low[t], hi_low[t], TripletStatus.LOWER)):
            empty = not lo < hi
            if empty:
                grid = np.geomspace(lam0 / 8, lam0 * 8, 50)
            else:
                nonempty += 1
                top = hi if np.isfinite(hi) else 100 * max(lo, lam0)
                grid = np.geomspace(max(lo, 1e-9) / 2, 2 * top, 50)
            for lam in grid:
                if not empty:
                    if abs(lam - lo) <= 1e-9 * max(1.0, lo):
                        continue
                    if np.isfinite(hi) and abs(lam - hi) <= 1e-9 * max(1.0, hi):
                        continue
                sphere = relaxed_path_bound(m0, eps, lam0, lam)
                fired = verdicts(problem, sphere)[t] == status
                assert fired == (lo < lam < hi), (t, status, lam, lo, hi)
                tested += 1
    return tested, nonempty


def random_instance(seed, n_lo=20, n_hi=60, d_lo=2, d_hi=5, classes=(2, 3),
                    k=3, gamma=0.05, diagonal=False):
    """Small random metric-learning instance with a fixed seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    d = int(rng.integers(d_lo, d_hi + 1))
    n_classes = int(rng.choice(classes))
    sep = float(rng.uniform(1.0, 3.0))
    data = gaussian_blobs(n, d, n_classes, separation=sep, seed=seed + 10_000)
    triplets = build_triplets(data, k=k)
    return MetricProblem(triplets, SmoothedHingeLoss(gamma), diagonal=diagonal)


def solve_oracle(problem, lam, tol=1e-12, max_iter=400_000, m0=None):
    """High-accuracy solve whose duality gap certifies the result, started
    from ``m0`` when given (the gap certifies it wherever it starts)."""
    res = solve(problem, lam, SolveConfig(gap_tol=min(tol, 1e-13),
                                          max_iter=max_iter), m0=m0)
    assert res.gap <= tol, f"oracle solve stuck at gap {res.gap:.3e}"
    return res


def reference_at(problem, lam, gap_level, m0=None):
    """Iterate until the duality gap first crosses ``gap_level``."""
    cfg = SolveConfig(gap_tol=gap_level, max_iter=400_000, screen_every=1)
    res = solve(problem, lam, cfg, m0=m0)
    assert res.converged
    return res


def kkt_reference(problem, lam, tol=1e-12):
    """Numerically KKT-consistent optimal pair (M0, alpha0).

    The dual weights are read off the converged metric and the metric is
    regenerated from them, so the pair satisfies the stationarity identity
    lam * M0 = [sum alpha0 H]_+ at floating-point level.
    """
    res = solve_oracle(problem, lam, tol=tol)
    alpha0 = problem.alpha_from_inner(problem.inner(res.metric))
    m0 = problem.m_of_alpha(alpha0, lam)
    return m0, alpha0


def numeric_p4_min(q, r, p, h):
    """Numerical solution of the ball/half-space linear minimization via its
    one-dimensional Lagrangian dual.

    Dualizing the half-space constraint leaves a ball-constrained linear
    problem with closed minimum, so the dual g(beta) = <Q, H - beta P>
    - r ||H - beta P|| is concave in the scalar beta >= 0 and strong duality
    holds whenever the feasible set has interior.
    """
    from scipy.optimize import minimize_scalar

    def g(beta):
        m = h - beta * p
        return float(np.vdot(q, m)) - r * float(np.linalg.norm(m))

    hi = 50.0 * (np.linalg.norm(h) / max(np.linalg.norm(p), 1e-12) + 1.0)
    res = minimize_scalar(lambda b: -g(b), bounds=(0.0, hi), method="bounded",
                          options={"xatol": 1e-12})
    return max(g(float(res.x)), g(0.0))


def numeric_p3_min(q, r, h):
    """Numerical solution of the ball/orthant linear minimization."""
    from scipy.optimize import NonlinearConstraint, minimize

    d = q.shape[0]
    con = NonlinearConstraint(lambda x: np.sum((x - q) ** 2), -np.inf, r ** 2,
                              jac=lambda x: 2.0 * (x - q))
    x0 = np.maximum(q, 0.0)
    over = np.linalg.norm(x0 - q)
    if over > r:  # pull the start inside the ball
        x0 = np.maximum(q + (x0 - q) * (0.95 * r / over), 0.0)
    res = minimize(lambda x: h @ x, x0, jac=lambda x: h,
                   hess=lambda x: np.zeros((d, d)),
                   bounds=[(0.0, None)] * d, constraints=[con],
                   method="trust-constr",
                   options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 3000})
    return float(res.fun)


def grid_p2_extremes(q, r, h, n_grid=160):
    """Dense-grid extremes of <X, H> over ball & PSD cone for d == 2.

    Returns (min, max, resolution_band); the band is an upper bound on the
    discretization error of either extreme.
    """
    a = np.linspace(max(0.0, q[0, 0] - r), q[0, 0] + r, n_grid)
    c = np.linspace(max(0.0, q[1, 1] - r), q[1, 1] + r, n_grid)
    b = np.linspace(q[0, 1] - r, q[0, 1] + r, n_grid)
    aa, bb, cc = np.meshgrid(a, b, c, indexing="ij")
    ball = ((aa - q[0, 0]) ** 2 + 2 * (bb - q[0, 1]) ** 2
            + (cc - q[1, 1]) ** 2) <= r ** 2
    psd = (aa >= 0) & (cc >= 0) & (bb ** 2 <= aa * cc)
    feas = ball & psd
    assert feas.any(), "grid found no feasible point"
    vals = aa * h[0, 0] + 2 * bb * h[0, 1] + cc * h[1, 1]
    vals = vals[feas]
    steps = np.array([a[1] - a[0], b[1] - b[0], c[1] - c[0]])
    band = float((abs(h[0, 0]) + 2 * abs(h[0, 1]) + abs(h[1, 1])) * steps.max() * 2)
    return float(vals.min()), float(vals.max()), band


def grid_p2_cone_distance(q, h, c, n_grid=201, rounds=12):
    """Distance from q to {X >= 0 : <X, H> = c} for d == 2, by grids on the
    hyperplane, each centred on the best point of the last; None when no
    grid point is PSD.

    Grid points are feasible, so the result never understates the
    distance.  Coordinates (X00, sqrt(2) X01, X11) make the Frobenius
    metric Euclidean.
    """
    def coords(x):
        return np.array([x[0, 0], np.sqrt(2.0) * x[0, 1], x[1, 1]])

    hv = coords(h)
    hv_norm = float(np.linalg.norm(hv))
    foot = coords(q) + (c - coords(q) @ hv) / hv_norm ** 2 * hv
    delta2 = float(np.sum((foot - coords(q)) ** 2))
    # orthonormal basis of the hyperplane's directions
    basis = np.linalg.svd(hv[None, :])[2][1:]
    centre = np.zeros(2)
    half = 8.0 * (np.linalg.norm(q) + abs(c) / hv_norm + 1.0)
    found = False
    for _ in range(rounds):
        s1, s2 = np.meshgrid(centre[0] + np.linspace(-half, half, n_grid),
                             centre[1] + np.linspace(-half, half, n_grid),
                             indexing="ij")
        pts = foot + s1[..., None] * basis[0] + s2[..., None] * basis[1]
        x00, x01, x11 = pts[..., 0], pts[..., 1] / np.sqrt(2.0), pts[..., 2]
        psd = (x00 >= 0) & (x11 >= 0) & (x01 ** 2 <= x00 * x11)
        if not psd.any():
            if found:
                break
            half *= 4.0
            continue
        found = True
        s_sq = np.where(psd, s1 ** 2 + s2 ** 2, np.inf)
        best = np.unravel_index(np.argmin(s_sq), s_sq.shape)
        centre = np.array([s1[best], s2[best]])
        step = 2.0 * half / (n_grid - 1)
        # strong convexity: the minimizer s* lies within sqrt(|s_b|^2 -
        # |s*|^2) of the best grid point s_b, which is at most
        # sqrt(4 |s_b| step + 2 step^2) when a feasible grid point lies
        # within a diagonal step of s*
        reach = np.sqrt(4.0 * np.sqrt(s_sq[best]) * step + 2.0 * step ** 2)
        half = max(reach, 3.0 * step)
    if not found:
        return None
    return float(np.sqrt(delta2 + centre @ centre))


def finite_diff_gradient(problem, m, lam, h=1e-6):
    """Central finite differences of the primal objective on symmetric
    (or diagonal-mode) perturbations."""
    if m.ndim == 1:
        g = np.zeros_like(m)
        for k in range(m.shape[0]):
            e = np.zeros_like(m)
            e[k] = h
            g[k] = (problem.primal_value(m + e, lam)
                    - problem.primal_value(m - e, lam)) / (2 * h)
        return g
    d = m.shape[0]
    g = np.zeros_like(m)
    for i in range(d):
        for j in range(i, d):
            e = np.zeros_like(m)
            e[i, j] = h
            e[j, i] = h
            diff = (problem.primal_value(m + e, lam)
                    - problem.primal_value(m - e, lam)) / (2 * h)
            # diff equals <grad, E>/h = 2 grad_ij off-diagonal, grad_ii on it.
            if i == j:
                g[i, i] = diff
            else:
                g[i, j] = g[j, i] = diff / 2.0
    return g


@pytest.fixture(scope="session")
def small_problem():
    return random_instance(seed=7, n_lo=36, n_hi=36, d_lo=4, d_hi=4)
