"""The benchmark's workloads: inputs, one round of work, and its checks.

Every call into the program goes through a module attribute
(``tpath.run_path``, ``trules.screen_all``, ...), so that the traced run can
wrap those attributes without the workloads knowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy as np

from tripscreen import bounds as tbounds
from tripscreen import datasets as tdatasets
from tripscreen import path as tpath
from tripscreen import problem as tproblem
from tripscreen import rules as trules
from tripscreen import solver as tsolver

import checks
from inputs import safety_instance, two_class_blobs, write_csv

GAMMA = 0.05
DECAY = 0.9
# The solver's gap uses screened weights pinned to their verdicts; the check
# reads every weight from the loss instead.  The two certificates differ only
# through screened triplets whose value has not yet crossed into their
# certified side.  In every solve measured the recomputed gap stayed below
# the solver's own tolerance; the factor leaves room for that difference.
GAP_FACTOR = 10.0
# Distance between the two class means of the path workloads.  The classes
# overlap, so the loss comes from many triplets and not only from those of
# the flipped labels.  At the acceptance benchmark's expected distance
# (2 sqrt(2 d), 12.3 for d = 19) the pre-solve screening of path-screened
# fell into one of two regimes by seed (4 s or 7 s a path), too wide a spread
# to see a change in the code.
BLOB_DISTANCE = 6.0


@dataclass
class RoundResult:
    """What one round returns, reduced to what the metrics and checks need."""

    attempted: int
    failed: int
    solver_iters: int
    screened_triplets: int
    detail: object = None


class PathWorkload:
    """Regularization paths on two-class blobs, one per dataset.

    Each path runs a fixed number of lambda steps (the stop rule is set below
    any loss change a path can show), and a round runs the paths of several
    datasets drawn from the seed, so that every seed does comparable work.
    An operation is one lambda solve; it fails if the solve does not reach
    its gap tolerance.
    """

    def __init__(self, name: str, n: int, d: int, k: int, steps: int,
                 datasets: int, solve_config: dict, range_screening: bool):
        self.name = name
        self.n, self.d, self.k, self.steps = n, d, k, steps
        self.datasets = datasets
        self.solve_config = solve_config
        self.range_screening = range_screening
        self.probs = []

    def make_inputs(self, seed: int, workdir: Path):
        self.raw = []
        self.files = []
        for j in range(self.datasets):
            features, labels = two_class_blobs(
                self.n, self.d, (seed, j), distance=BLOB_DISTANCE,
                label_noise=0.15)
            self.raw.append(features)
            self.files.append(write_csv(
                workdir / f"{self.name}-{seed}-{j}.csv", features, labels))

    def setup(self):
        self.probs = []
        for file in self.files:
            data = tdatasets.load_dataset(file)
            triplets = tproblem.build_triplets(data, k=self.k)
            self.probs.append(tproblem.MetricProblem(
                triplets, tproblem.SmoothedHingeLoss(GAMMA)))

    def config(self):
        return tpath.PathConfig(
            decay=DECAY, stop_threshold=1e-12, max_steps=self.steps,
            use_range_screening=self.range_screening,
            solve=tsolver.SolveConfig(**self.solve_config))

    def run_round(self) -> RoundResult:
        detail = []
        for j, prob in enumerate(self.probs):
            records = tpath.run_path(prob, self.config()).records
            detail += [(j, rec.lam, rec.result) for rec in records]
        results = [result for _, _, result in detail]
        return RoundResult(
            attempted=len(results),
            failed=sum(not r.converged for r in results),
            solver_iters=sum(int(r.iterations) for r in results),
            screened_triplets=sum(int(np.count_nonzero(r.statuses))
                                  for r in results),
            detail=detail)

    def check(self, outcome: RoundResult) -> List[str]:
        errors = []
        if outcome.attempted != self.steps * self.datasets:
            errors.append(f"paths ran {outcome.attempted} of "
                          f"{self.steps * self.datasets} steps")
        geos = [checks.TripletGeometry(raw, p.triplets.anchor,
                                       p.triplets.same, p.triplets.other,
                                       diagonal=False)
                for raw, p in zip(self.raw, self.probs)]
        tol = self.solve_config["gap_tol"]
        for j, lam, result in outcome.detail:
            if not result.converged:
                continue  # counted as a failed operation
            where = f"dataset {j} lambda {lam:.4g}"
            violation = checks.psd_violation(result.metric)
            if violation > 1e-10:
                errors.append(f"{where}: metric not PSD ({violation:.2e})")
            gap, x = checks.full_gap(geos[j], result.metric, lam, GAMMA)
            if not gap <= GAP_FACTOR * tol:
                errors.append(f"{where}: recomputed gap {gap:.3e} "
                              f"exceeds {GAP_FACTOR:g} x {tol:g}")
            bad = checks.verdict_conflicts(
                x, geos[j].hnorm, checks.gap_radius(gap, lam),
                result.statuses, GAMMA)
            if bad:
                errors.append(f"{where}: {bad} verdicts refuted by the "
                              "certified ball")
        return errors


# -- tight-gap -----------------------------------------------------------

SWEEP_SEED = 2024
SWEEP_INSTANCES = 12
LAM_FRACS = (0.3, 0.05, 0.01)
GAP_LEVELS = (1e-1, 1e-3, 1e-6)
ORACLE_TOL = 1e-13
ITER_CAP = 10_000
DENSE_RULES = ("sphere", "linear", "psd")
DIAGONAL_RULES = ("nonneg",)


@dataclass
class LambdaCase:
    """One (instance, lambda) of the sweep: its oracle and every screening."""

    instance: int
    lam: float
    oracle: object
    references_converged: bool
    spheres: list = field(default_factory=list)   # (name, level, Sphere)
    verdicts: list = field(default_factory=list)  # (sphere, rule, statuses)


class TightGapWorkload:
    """The acceptance safety sweep at a smaller scale.

    The instances are those of the acceptance sweep's seed, whatever the
    workload seed: with that seed two oracle solves stall on the gap floor of
    ``solver._full_state`` and run to the iteration cap in every run.
    Instances drawn from the workload seed would stall on some seeds and not
    on others, and the share of failed operations would move with the seed.
    An operation is one oracle solve.
    """

    name = "tight-gap"

    def __init__(self, instances: int = SWEEP_INSTANCES,
                 iter_cap: int = ITER_CAP):
        self.instances = instances
        self.iter_cap = iter_cap
        self.probs = []

    def make_inputs(self, seed: int, workdir: Path):
        rng = np.random.default_rng(SWEEP_SEED)
        self.raw = []
        self.files = []
        for inst in range(self.instances):
            features, labels = safety_instance(int(rng.integers(1 << 30)))
            self.raw.append(features)
            self.files.append(write_csv(
                workdir / f"{self.name}-{SWEEP_SEED}-{inst}.csv",
                features, labels))

    def setup(self):
        self.probs = []
        for inst, file in enumerate(self.files):
            data = tdatasets.load_dataset(file)
            triplets = tproblem.build_triplets(data, k=3)
            # Every fourth instance runs in diagonal mode, as in the sweep.
            self.probs.append(tproblem.MetricProblem(
                triplets, tproblem.SmoothedHingeLoss(GAMMA),
                diagonal=inst % 4 == 3))

    def _chain(self, prob, lam):
        refs = []
        m0 = None
        for level in GAP_LEVELS:
            res = tsolver.solve(
                prob, lam, tsolver.SolveConfig(
                    gap_tol=level, max_iter=self.iter_cap, screen_every=1),
                m0=m0)
            refs.append(res)
            m0 = res.metric
        return refs

    def _spheres(self, prob, lam, ref, ref0, lam0):
        m = ref.metric
        inner = prob.inner(m)
        alpha = prob.alpha_from_inner(inner)
        grad = prob.accumulate(prob.loss.grad(inner)) + lam * m
        gb = tbounds.gradient_bound(m, grad, lam)
        eps0 = math.sqrt(2.0 * max(ref0.gap, 0.0) / lam0)
        spheres = [
            ("gb", gb),
            ("pgb", tbounds.projected_gradient_bound(gb)),
            ("dgb", tbounds.gap_bound(prob, m, alpha, lam, inner=inner)),
            ("cdgb", tbounds.dual_gap_bound(prob, alpha, lam)),
            ("rrpb", tbounds.relaxed_path_bound(ref0.metric, eps0, lam0, lam)),
        ]
        halfspace = None
        if not prob.diagonal:
            for scale in (1.0, 10.0, 100.0):
                halfspace = trules.halfspace_from_iterate(
                    m - (scale / lam) * grad)
                if not halfspace.vacuous:
                    break
        return spheres, halfspace

    def run_round(self) -> RoundResult:
        cases = []
        iters = 0
        screened = 0
        for inst, prob in enumerate(self.probs):
            lmax = tpath.lambda_max(prob)
            rules = DIAGONAL_RULES if prob.diagonal else DENSE_RULES
            for frac in LAM_FRACS:
                lam = frac * lmax
                lam0 = lam / DECAY
                refs = self._chain(prob, lam)
                oracle = tsolver.solve(
                    prob, lam, tsolver.SolveConfig(
                        gap_tol=ORACLE_TOL, max_iter=self.iter_cap),
                    m0=refs[-1].metric)
                refs0 = self._chain(prob, lam0)
                iters += sum(r.iterations for r in refs + refs0 + [oracle])
                case = LambdaCase(
                    instance=inst, lam=lam, oracle=oracle,
                    references_converged=all(
                        r.converged for r in refs + refs0))
                for level, ref, ref0 in zip(GAP_LEVELS, refs, refs0):
                    spheres, halfspace = self._spheres(prob, lam, ref, ref0,
                                                       lam0)
                    for name, sphere in spheres:
                        case.spheres.append((name, level, sphere))
                        for rule in rules:
                            statuses = np.zeros(prob.n_triplets, dtype=np.int8)
                            trules.screen_all(prob, sphere, statuses,
                                              rule=rule, halfspace=halfspace,
                                              budget=30)
                            screened += int(np.count_nonzero(statuses))
                            case.verdicts.append(
                                (len(case.spheres) - 1, rule, statuses))
                cases.append(case)
        return RoundResult(
            attempted=len(cases),
            failed=sum(not c.oracle.converged for c in cases),
            solver_iters=int(iters), screened_triplets=screened, detail=cases)

    def check(self, outcome: RoundResult) -> List[str]:
        errors = []
        for case in outcome.detail:
            where = f"instance {case.instance} lambda {case.lam:.4g}"
            if not case.references_converged:
                errors.append(f"{where}: a reference missed its gap level")
            if not case.oracle.converged:
                continue  # counted as a failed operation
            prob = self.probs[case.instance]
            ts = prob.triplets
            geo = checks.TripletGeometry(self.raw[case.instance], ts.anchor,
                                         ts.same, ts.other, prob.diagonal)
            m_star = case.oracle.metric
            if checks.psd_violation(m_star) > 1e-10:
                errors.append(f"{where}: oracle metric not PSD")
            gap, x = checks.full_gap(geo, m_star, case.lam, GAMMA)
            if not gap <= GAP_FACTOR * ORACLE_TOL:
                errors.append(f"{where}: oracle gap {gap:.3e} exceeds "
                              f"{GAP_FACTOR:g} x {ORACLE_TOL:g}")
            r_star = checks.gap_radius(gap, case.lam)
            for name, level, sphere in case.spheres:
                dist = float(np.linalg.norm(m_star - sphere.center))
                if dist > sphere.radius + r_star + 1e-9:
                    errors.append(f"{where}: {name} sphere at gap {level:g} "
                                  f"misses the oracle by "
                                  f"{dist - sphere.radius:.3e}")
            for sphere_index, rule, statuses in case.verdicts:
                bad = checks.verdict_conflicts(x, geo.hnorm, r_star, statuses,
                                               GAMMA)
                if bad:
                    name, level, _ = case.spheres[sphere_index]
                    errors.append(f"{where}: {bad} {rule}-rule verdicts from "
                                  f"the {name} sphere at gap {level:g} "
                                  "contradict the oracle")
        return errors


PATH_WORKLOADS = {
    # The acceptance path's make-up (d=19, k=10, label noise 0.15) at 300
    # samples and 30 000 triplets a dataset: active set, relaxed path bound,
    # range screening and the sphere rule, the paper's headline use.
    "path-screened": dict(
        n=300, d=19, k=10, steps=30, datasets=3, range_screening=True,
        solve_config=dict(gap_tol=1e-6, max_iter=100_000, active_set=True,
                          bound="relaxed-path", rule="sphere")),
    # A smaller dense path on which the PSD rule's dual ascent dominates.
    "path-psd": dict(
        n=300, d=10, k=5, steps=30, datasets=3, range_screening=False,
        solve_config=dict(gap_tol=1e-6, max_iter=100_000,
                          bound="relaxed-path", rule="psd")),
}
WORKLOADS = (*PATH_WORKLOADS, TightGapWorkload.name)


def make_workload(name: str):
    if name in PATH_WORKLOADS:
        return PathWorkload(name, **PATH_WORKLOADS[name])
    if name == TightGapWorkload.name:
        return TightGapWorkload()
    raise ValueError(f"unknown workload {name!r}")
