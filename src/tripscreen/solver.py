"""Projected gradient solver with spectral steps, dynamic screening, and an
active-set mode.

The optimizer minimizes the reduced objective over the metric cone: the
regularized triplet loss with every screened triplet pinned to its certified
piece of the loss (linear for LOWER, zero for UPPER).  Safe verdicts leave
the minimizer unchanged.  Every ``screen_every`` iterations (3 by default) a
checkpoint computes the duality gap of that reduced objective with
``bounds.gap``, over the unknown triplets only, so a checkpoint gets cheaper
as screening proceeds.  The checkpoint then rebuilds the configured sphere
from the current iterate, re-screens the unknown triplets, and tests
termination.  It also supplies that iteration's gradient, lam M - S, so a
checkpoint costs one pass over the unknown triplets, not two.

``gap`` in a ``SolveResult`` refers to the reduced objective.  A solve ends
converged once the gap reaches ``gap_tol``; it ends unconverged at
``max_iter``, or flagged ``stalled`` once its best gap has not fallen for
``STALL_CHECKPOINTS`` checkpoints in a row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds as sb
from .problem import MetricProblem, Pins, TripletStatus
from .rules import halfspace_from_iterate, screen_all

BOUND_CHOICES = ("none", "gradient", "projected-gradient", "dual-gap",
                 "relaxed-path", "relaxed-path+projected-gradient")
RULE_CHOICES = ("sphere", "linear", "psd", "nonneg")
# A solve whose best gap has not fallen over this many checkpoints in a row
# has met the rounding floor of its gap (or makes no progress) and stops.
# Spectral steps are not monotone: at the default cadence of 3, converging
# solves of the test suite went up to 43 checkpoints without a new best gap,
# those of the benchmark workloads up to 4.
STALL_CHECKPOINTS = 1000
# Triplets within this distance above the zero-loss threshold stay in the
# working set so that spectral-step overshoot cannot strand the iterate
# in a region where the stale working set provides no loss gradient.
ACTIVE_MARGIN = 0.5


@dataclass
class SolveConfig:
    gap_tol: float = 1e-6
    max_iter: int = 20000
    screen_every: int = 3
    bound: str = "none"
    rule: str = "sphere"
    active_set: bool = False

    def __post_init__(self):
        if self.gap_tol <= 0:
            raise ValueError("gap_tol must be positive")
        if self.screen_every < 1:
            raise ValueError("screen_every must be >= 1")
        if self.bound not in BOUND_CHOICES:
            raise ValueError(f"bound must be one of {BOUND_CHOICES}")
        if self.rule not in RULE_CHOICES:
            raise ValueError(f"rule must be one of {RULE_CHOICES}")


@dataclass
class SolveResult:
    """Outcome of one solve.

    ``gap`` belongs to the reduced objective at the returned metric: the
    screened triplets pinned to their certified piece of the loss (see
    ``bounds.gap``).  Its gap ball contains the optimum of the full problem
    whenever the verdicts are safe.  ``loss_sum`` is the loss part of the
    reduced primal, which equals the full loss wherever the verdicts hold at
    the metric, and ``n_boundary`` counts the unknown triplets on the
    quadratic piece of the loss there.  ``stalled`` flags a solve that gave
    up because its best gap stopped falling (rounding sets a floor under any
    gap); it then has ``converged`` False.
    """

    metric: np.ndarray
    gap: float
    iterations: int
    statuses: np.ndarray
    wall_time: float
    screen_time: float
    converged: bool
    loss_sum: float
    n_boundary: int
    stalled: bool = False

    @property
    def n_lower(self) -> int:
        return int(np.count_nonzero(self.statuses == TripletStatus.LOWER))

    @property
    def n_upper(self) -> int:
        return int(np.count_nonzero(self.statuses == TripletStatus.UPPER))


def bb_step(dm: np.ndarray, dg: np.ndarray, fallback: float) -> float:
    """Averaged spectral step (1/2)|<dM,dG>/<dG,dG> + <dM,dM>/<dM,dG>|,
    falling back to the previous step when either ratio is undefined."""
    cross = float(np.vdot(dm, dg))
    gg = float(np.vdot(dg, dg))
    if cross == 0.0 or gg == 0.0:
        return fallback
    mm = float(np.vdot(dm, dm))
    return 0.5 * abs(cross / gg + mm / cross)


def _build_spheres(problem, lam, config, m, cert, pins):
    """Sphere(s) for dynamic screening from the checkpoint at ``m``."""
    choice = config.bound
    if choice == "none":
        return []
    if choice == "dual-gap":
        return [sb.dual_gap_bound(problem, cert.alpha, lam, pins)]
    spheres = []
    if choice in ("gradient", "projected-gradient",
                  "relaxed-path+projected-gradient"):
        # Gradient of the reduced objective: lam M - S, S = S_L + sum alpha H.
        gb = sb.gradient_bound(m, lam * m - cert.s, lam)
        if choice == "gradient":
            return [gb]
        pgb = sb.projected_gradient_bound(gb)
        if choice == "projected-gradient":
            return [pgb]
        spheres.append(pgb)
    # A relaxed-path sphere anchored at the current lambda degenerates to
    # the gap ball around the iterate.
    radius = math.sqrt(2.0 * cert.value / lam)
    spheres.insert(0, sb.Sphere(center=m, radius=radius))
    return spheres


def _checkpoint_grad(problem, lam, m, cert, pins, fixed, x_fixed):
    """Gradient lam M - S of the reduced objective at a checkpoint's ``m``.

    ``cert.s`` sums S_L and alpha_t H_t over the rows unknown at the gap;
    after its scan the active working set holds every unknown row with
    alpha_t > 0, so this is the step's gradient in both modes.  The rows
    ``fixed`` by the screen since the gap (``x_fixed`` their <H_t, M>) move
    from alpha_t to their pinned weight, 1 for LOWER and 0 for UPPER, in one
    ``accumulate`` over those rows (a row whose weight stays adds 0).
    """
    grad = lam * m - cert.s
    if fixed.size:
        alpha = problem.alpha_from_inner(x_fixed)
        shift = np.where(pins.statuses[fixed] == TripletStatus.LOWER,
                         1.0 - alpha, -alpha)
        grad -= problem.accumulate(shift, fixed)
    return grad


def solve(problem: MetricProblem, lam: float, config: SolveConfig,
          m0: Optional[np.ndarray] = None,
          statuses: Optional[np.ndarray] = None) -> SolveResult:
    """Projected gradient descent on the screening-reduced objective.

    ``statuses`` pins the triplets already screened.  With
    ``config.active_set`` the gradients between checkpoints use only the
    working set of triplets whose loss was positive (or within
    ``ACTIVE_MARGIN`` of the threshold) at the latest refresh; screened
    triplets never enter it.  Each checkpoint (every ``screen_every``
    iterations, 3 by default) rescans the unknown triplets, pulling violated
    ones back in, and certifies optimality through the duality gap of the
    reduced objective.  The gap's dual sum S also gives that iteration's
    gradient lam M - S, corrected for the triplets the checkpoint screened,
    so no second pass over the triplets is made there.

    Steps are spectral (``bb_step``).  Where no step history exists, a
    finite-difference curvature probe along the gradient caps the step, but
    only where the curvature can have risen: at a cold start, after a step
    cut, and when the working set gains triplets.  New verdicts and a
    working set shrunk by screening keep the current step, because pinning
    a triplet to its linear or zero piece can only remove curvature.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    t0 = time.perf_counter()
    screen_time = 0.0

    m = problem.project(np.asarray(m0, dtype=float)) if m0 is not None \
        else problem.zero_metric()
    pins = Pins(problem, statuses)
    # Active mode fills this with the positive-loss triplets at the first
    # checkpoint scan; plain mode always works on every unknown triplet.
    active = np.empty(0, dtype=np.int64)
    # <H_t, M> at the latest checkpoint, filled on the rows unknown there.
    x_at_m = np.empty(problem.n_triplets)

    step = 1.0 / lam
    prev_m = None
    prev_grad = None
    probe = True
    last_primal = math.inf
    best_primal = math.inf
    best_m = m
    bad_checkpoints = 0
    best_gap = math.inf
    stale_checkpoints = 0
    converged = stalled = False
    force_checkpoint = False
    it = 0

    while True:
        checkpoint = (it % config.screen_every == 0 or force_checkpoint
                      or it >= config.max_iter)
        if checkpoint:
            force_checkpoint = False
            cert = sb.gap(problem, m, lam, pins)
            primal = cert.loss_sum + 0.5 * lam * float(np.vdot(m, m))
            if primal <= best_primal:
                best_primal = primal
                best_m = m
            elif primal > 1.5 * best_primal + 1e-9 * max(1.0, best_primal):
                # A runaway spectral step threw the iterate far off (badly
                # conditioned small-lam solves can even collapse it to the
                # cone apex).  Restore the best iterate, shorten the step,
                # and redo this checkpoint from there.
                m = best_m
                step *= 0.5
                prev_m = prev_grad = None
                probe = True
                bad_checkpoints = 0
                last_primal = math.inf
                continue
            if primal > last_primal:
                bad_checkpoints += 1
                if bad_checkpoints >= 5:
                    step *= 0.5
                    prev_m = prev_grad = None
                    probe = True
                    bad_checkpoints = 0
            else:
                bad_checkpoints = 0
            last_primal = primal
            if cert.value < best_gap:
                best_gap = cert.value
                stale_checkpoints = 0
            else:
                stale_checkpoints += 1
            x_at_m[pins.unknown] = cert.x

            fixed = np.empty(0, dtype=np.int64)
            if config.bound != "none" and pins.unknown.size:
                ts = time.perf_counter()
                spheres = _build_spheres(problem, lam, config, m, cert, pins)
                halfspace = None
                if config.rule == "linear":
                    halfspace = halfspace_from_iterate(
                        m - step * (lam * m - cert.s))
                before_lower = pins.statuses == TripletStatus.LOWER
                cache = x_at_m if spheres and spheres[0].center is m else None
                counts = screen_all(problem, spheres, pins.statuses,
                                    rule=config.rule, halfspace=halfspace,
                                    inner_cache=cache)
                if counts.new_lower or counts.new_upper:
                    fixed = pins.unknown[pins.statuses[pins.unknown]
                                         != TripletStatus.UNKNOWN]
                    pins.absorb(before_lower)
                    # The reduced objective changed: its gradients and
                    # values are not comparable with the earlier ones.
                    prev_m = prev_grad = None
                    best_primal = last_primal = math.inf
                screen_time += time.perf_counter() - ts
            if config.active_set:
                # Grow-only scan: pull in every unknown triplet with positive
                # (or near-threshold) loss.  Dropping satisfied triplets
                # mid-solve invites limit cycles, so the set only shrinks by
                # screening or by re-initialization at the next warm start.
                live = pins.unknown
                wanted = live[x_at_m[live] < 1.0 + ACTIVE_MARGIN]
                kept = np.intersect1d(active, live, assume_unique=True)
                new_active = np.union1d(kept, wanted)
                if not np.array_equal(new_active, active):
                    # Gained rows can add curvature; lost ones were screened.
                    probe = probe or new_active.size > kept.size
                    active = new_active
                    prev_m = prev_grad = None  # working set changed
            if cert.value <= config.gap_tol:
                converged = True
                break
            if stale_checkpoints >= STALL_CHECKPOINTS:
                stalled = True
                break
            if it >= config.max_iter:
                break
            grad = _checkpoint_grad(problem, lam, m, cert, pins, fixed,
                                    x_at_m[fixed])

        work = active if config.active_set else pins.unknown

        def reduced_grad(point):
            return problem.gradient(point, lam, work) - pins.sum_h_lower

        if not checkpoint:
            grad = reduced_grad(m)
        if prev_m is not None:
            # Spectral step, capped at doubling per iteration: unchecked
            # proposals can jump by orders of magnitude on badly conditioned
            # problems and hurl the iterate off the cone.
            step = min(bb_step(m - prev_m, grad - prev_grad, step), 2.0 * step)
        elif probe:
            # No history and the curvature may have risen: probe it along
            # the gradient ray so the first step is stable even when the
            # loss term dominates the regularizer.
            gnorm = float(np.linalg.norm(grad))
            if gnorm > 0.0:
                delta = 1e-6 * max(1.0, float(np.linalg.norm(m))) / gnorm
                curv = float(np.vdot(grad - reduced_grad(m - delta * grad),
                                     grad)) / (delta * gnorm ** 2)
                step = min(step, 1.0 / max(curv, lam))
        probe = False
        prev_m, prev_grad = m, grad
        m_new = problem.project(m - step * grad)
        if (config.active_set
                and it % config.screen_every != config.screen_every - 1):
            # Stalled inner iteration: the working-set subproblem is done, so
            # rescan the unknowns now instead of waiting for the checkpoint.
            moved = float(np.linalg.norm(m_new - m))
            if moved <= 1e-13 * max(1.0, float(np.linalg.norm(m))):
                force_checkpoint = True
        m = m_new
        it += 1

    # The loop always leaves at a checkpoint of the returned metric.
    gamma = problem.loss.gamma
    n_boundary = int(np.count_nonzero((cert.x >= 1.0 - gamma)
                                      & (cert.x <= 1.0)))
    return SolveResult(metric=m, gap=cert.value, iterations=it,
                       statuses=pins.statuses,
                       wall_time=time.perf_counter() - t0,
                       screen_time=screen_time, converged=converged,
                       loss_sum=cert.loss_sum, n_boundary=n_boundary,
                       stalled=stalled)

