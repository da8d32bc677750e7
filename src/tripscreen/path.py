"""Regularization path driver: geometric lambda schedule with warm starts,
path screening from the previous solution, and pre-certified lambda ranges."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .bounds import projected_gradient_bound, gradient_bound, relaxed_path_bound
from .linalg import cone_split
from .problem import MetricProblem
from .rules import TripletStatus, halfspace_from_iterate, lambda_ranges_all, screen_all
from .solver import SolveConfig, SolveResult, solve


@dataclass
class PathConfig:
    decay: float = 0.9
    stop_threshold: float = 0.01
    solve: SolveConfig = field(default_factory=SolveConfig)
    use_range_screening: bool = False
    max_steps: int = 1000

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        if self.stop_threshold <= 0:
            raise ValueError("stop_threshold must be positive")


@dataclass
class PathRecord:
    lam: float
    result: SolveResult
    loss_term: float
    path_lower: int      # screened before the solve (path + range screening)
    path_upper: int
    range_hits: int
    rate_total: float
    rate_screenable: float
    wall_time_solve: float
    wall_time_screen: float


@dataclass
class PathResult:
    records: List[PathRecord]
    lambda_max: float

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([r.lam for r in self.records])


def lambda_max(problem: MetricProblem) -> float:
    """Smallest regularization above which the all-ones dual weights are
    optimal, so no triplet sits in the zero part.

    With every weight at 1 the induced metric is (1/lam) [sum H]_+; the
    all-ones vector stays optimal exactly while every <H_t, metric> is at
    most 1 - gamma, which yields max_t <H_t, [sum H]_+> / (1 - gamma).
    Degenerate data whose accumulated comparison matrix has no positive part
    gets a sentinel of 1.0 (the zero metric is then optimal for every lam,
    with all triplets on the linear side).
    """
    gamma = problem.loss.gamma
    if gamma >= 1.0:
        raise ValueError("lambda_max needs gamma < 1")
    s = problem.sum_h()
    s_plus, _ = cone_split(s)
    if float(np.vdot(s_plus, s_plus)) == 0.0:
        return 1.0
    vals = problem.inner(s_plus)
    return float(vals.max()) / (1.0 - gamma)


def loss_term(problem: MetricProblem, m: np.ndarray) -> float:
    """Loss part of the objective (regularizer excluded)."""
    return float(np.sum(problem.loss.value(problem.inner(m))))


class _RangeStore:
    """Pre-certified lambda intervals, one pair of interval arrays per side.

    Intervals are kept per triplet together with the reference they came
    from; a consulted interval that does not cover the current lambda is
    stale and will be overwritten by the next computation.
    """

    def __init__(self, m_triplets: int):
        self.lo_up = np.full(m_triplets, np.inf)
        self.hi_up = np.full(m_triplets, -np.inf)
        self.lo_low = np.full(m_triplets, np.inf)
        self.hi_low = np.full(m_triplets, -np.inf)

    def hits(self, lam: float):
        up = (self.lo_up < lam) & (lam < self.hi_up)
        low = (self.lo_low < lam) & (lam < self.hi_low)
        return low, up

    def update(self, problem, idx, m0, eps, lam0, inner0):
        lo_u, hi_u, lo_l, hi_l = lambda_ranges_all(
            problem, m0, eps, lam0, idx=idx, inner0=inner0)
        self.lo_up[idx] = lo_u
        self.hi_up[idx] = hi_u
        self.lo_low[idx] = lo_l
        self.hi_low[idx] = hi_l


def run_path(problem: MetricProblem, config: PathConfig,
             lam_start: Optional[float] = None) -> PathResult:
    """Solve along lam_t = decay * lam_{t-1} from lambda_max, warm-starting
    each step and screening with the relaxed path sphere built from the
    previous solution before handing over to the solver."""
    m_triplets = problem.n_triplets
    lam0 = lambda_max(problem) if lam_start is None else lam_start
    records: List[PathRecord] = []
    sc = config.solve

    # The closed-form optimum at lambda_max seeds the path.
    m_prev = problem.m_of_alpha(np.ones(m_triplets), lam0)
    lam_prev = lam0
    prev_loss = None
    eps_prev = 0.0
    ranges = _RangeStore(m_triplets) if config.use_range_screening else None

    lam = lam0
    first = True
    for _ in range(config.max_steps):
        t_screen = time.perf_counter()
        statuses = np.zeros(m_triplets, dtype=np.int8)
        range_hits = 0
        inner_prev = None
        if not first:
            if ranges is not None:
                low_hit, up_hit = ranges.hits(lam)
                statuses[low_hit] = TripletStatus.LOWER
                statuses[up_hit] = TripletStatus.UPPER
                range_hits = int(low_hit.sum() + up_hit.sum())
            if sc.bound != "none":
                sphere = relaxed_path_bound(m_prev, eps_prev, lam_prev, lam)
                unknown = np.flatnonzero(statuses == TripletStatus.UNKNOWN)
                inner_prev = problem.inner(m_prev, unknown)
                spheres = [sphere]
                halfspace = None
                # The path sphere's center is a scalar multiple of the
                # previous solution, so cached inner products rescale.
                scale = (lam_prev + lam) / (2.0 * lam)
                full_cache = np.empty(m_triplets)
                full_cache[unknown] = inner_prev * scale
                with_pgb = sc.bound == "relaxed-path+projected-gradient"
                if with_pgb or sc.rule == "linear":
                    grad_prev = problem.gradient(m_prev, lam)
                if with_pgb:
                    spheres.append(projected_gradient_bound(
                        gradient_bound(m_prev, grad_prev, lam)))
                if sc.rule == "linear":
                    halfspace = halfspace_from_iterate(
                        m_prev - (1.0 / lam) * grad_prev)
                screen_all(problem, spheres, statuses, rule=sc.rule,
                           halfspace=halfspace, inner_cache=full_cache)
                if ranges is not None:
                    # Fresh intervals from the newest reference for the
                    # triplets just evaluated; range-hit ones keep theirs.
                    ranges.update(problem, unknown, m_prev, eps_prev,
                                  lam_prev, inner0=inner_prev)
        path_lower = int(np.count_nonzero(statuses == TripletStatus.LOWER))
        path_upper = int(np.count_nonzero(statuses == TripletStatus.UPPER))
        t_screen = time.perf_counter() - t_screen

        result = solve(problem, lam, sc, m0=m_prev, statuses=statuses)
        rec = _record(problem, lam, result, path_lower, path_upper,
                      range_hits, t_screen)
        records.append(rec)

        cur_loss = rec.loss_term
        if prev_loss is not None:
            dlam = lam_prev - lam
            if prev_loss <= 0:
                break
            ratio = (prev_loss - cur_loss) / prev_loss * (lam_prev / dlam)
            if ratio < config.stop_threshold:
                break
        m_prev = result.metric
        eps_prev = math.sqrt(2.0 * max(result.gap, 0.0) / lam)
        lam_prev = lam
        prev_loss = cur_loss
        lam = config.decay * lam
        first = False

    return PathResult(records=records, lambda_max=lam0)


def _record(problem, lam, result, path_lower, path_upper, range_hits,
            t_screen) -> PathRecord:
    m_total = problem.n_triplets
    screened = result.n_lower + result.n_upper
    screenable = m_total - result.n_boundary
    rate_total = screened / m_total
    rate_screenable = min(1.0, screened / screenable) if screenable else 1.0
    return PathRecord(
        lam=lam, result=result, loss_term=result.loss_sum,
        path_lower=path_lower, path_upper=path_upper, range_hits=range_hits,
        rate_total=rate_total, rate_screenable=rate_screenable,
        wall_time_solve=result.wall_time,
        wall_time_screen=t_screen + result.screen_time)
