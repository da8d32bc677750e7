"""The benchmark's own tests: every workload at a tiny size, the traced
totals, and each correctness check rejecting a corrupted output.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_PATH = dict(n=60, d=4, k=3, steps=8, datasets=2)


def tiny_path(name, tmp_path, seed=3):
    spec = {**workloads.PATH_WORKLOADS[name], **TINY_PATH}
    wl = workloads.PathWorkload(name, **spec)
    wl.make_inputs(seed, tmp_path)
    wl.setup()
    return wl


@pytest.fixture(scope="module")
def screened(tmp_path_factory):
    wl = tiny_path("path-screened", tmp_path_factory.mktemp("screened"))
    return wl, wl.run_round()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    wl = workloads.TightGapWorkload(instances=4, iter_cap=2000)
    wl.make_inputs(0, tmp_path_factory.mktemp("sweep"))
    wl.setup()
    return wl, wl.run_round()


def replace_result(outcome, step, **changes):
    """Copy of a path outcome with one solve's result altered."""
    detail = list(outcome.detail)
    j, lam, result = detail[step]
    detail[step] = (j, lam, dataclasses.replace(result, **changes))
    return dataclasses.replace(outcome, detail=detail)


def last_converged(outcome):
    return max(k for k, (_, _, r) in enumerate(outcome.detail)
               if r.converged)


@pytest.mark.parametrize("name", sorted(workloads.PATH_WORKLOADS))
def test_path_workload_runs_and_passes_its_checks(name, tmp_path):
    wl = tiny_path(name, tmp_path)
    outcome = wl.run_round()
    assert outcome.attempted == TINY_PATH["steps"] * TINY_PATH["datasets"]
    assert outcome.failed == 0
    assert outcome.solver_iters > 0 and outcome.screened_triplets > 0
    assert wl.check(outcome) == []


def test_sweep_runs_and_passes_its_checks(sweep):
    wl, outcome = sweep
    assert outcome.attempted == 4 * len(workloads.LAM_FRACS)
    assert outcome.screened_triplets > 0
    assert wl.check(outcome) == []


def test_inputs_repeat_for_a_seed_and_survive_the_file(tmp_path):
    a = tiny_path("path-psd", tmp_path / "a", seed=5)
    b = tiny_path("path-psd", tmp_path / "b", seed=5)
    assert np.array_equal(a.raw[1], b.raw[1])
    assert not np.array_equal(a.raw[0], a.raw[1])
    loaded = a.probs[1].triplets
    assert np.array_equal(loaded.u, a.raw[1][loaded.anchor]
                          - a.raw[1][loaded.other])


def test_sweep_instances_match_the_acceptance_generator():
    from tripscreen import gaussian_blobs
    features, labels = workloads.safety_instance(12345)
    rng = np.random.default_rng(12345)
    n, d = int(rng.integers(20, 51)), int(rng.integers(2, 6))
    c, sep = int(rng.choice((2, 3))), float(rng.uniform(1.0, 3.0))
    ref = gaussian_blobs(n, d, c, separation=sep, seed=12345 + 10_000)
    assert np.array_equal(features, ref.features)
    assert np.array_equal(labels, ref.labels)


@pytest.mark.parametrize("name", sorted(workloads.PATH_WORKLOADS))
def test_traced_totals_agree(name, tmp_path):
    wl = tiny_path(name, tmp_path)
    tracer = tracing.Tracer()
    run_path = workloads.tpath.run_path
    with tracing.installed(tracer, wl.probs):
        outcome = wl.run_round()
    layer = tracing.layer_metrics(tracer.take())
    assert (layer["path.range_hits"] + layer["rules.verdicts"]
            == outcome.screened_triplets)
    assert layer["solver.iterations"] == outcome.solver_iters
    assert layer["path.steps"] == outcome.attempted
    # The wrappers are gone once the block ends.
    assert "inner" not in vars(wl.probs[0])
    assert workloads.tpath.run_path is run_path


def test_gap_check_rejects_a_perturbed_metric(screened):
    wl, outcome = screened
    step = last_converged(outcome)
    j, lam, result = outcome.detail[step]
    ts = wl.probs[j].triplets
    geo = checks.TripletGeometry(wl.raw[j], ts.anchor, ts.same, ts.other,
                                 diagonal=False)
    # Grow a PSD perturbation until the gap certificate no longer holds.
    scale = 1e-6
    while checks.full_gap(geo, result.metric + scale * np.eye(wl.d), lam,
                          workloads.GAMMA)[0] <= 1e-4:
        scale *= 2.0
    bad = replace_result(outcome, step,
                         metric=result.metric + scale * np.eye(wl.d))
    assert any("recomputed gap" in e for e in wl.check(bad))


def test_psd_check_rejects_a_non_psd_metric(screened):
    wl, outcome = screened
    step = last_converged(outcome)
    metric = outcome.detail[step][2].metric.copy()
    metric[0, 0] -= np.linalg.eigvalsh(metric)[-1] + 1.0
    bad = replace_result(outcome, step, metric=metric)
    assert any("not PSD" in e for e in wl.check(bad))


def test_verdict_check_rejects_a_flipped_verdict(screened):
    wl, outcome = screened
    step = last_converged(outcome)
    j, lam, result = outcome.detail[step]
    x = wl.probs[j].inner(result.metric)
    statuses = result.statuses.copy()
    statuses[np.argmax(x)] = checks.LOWER   # far into the zero part
    bad = replace_result(outcome, step, statuses=statuses)
    assert any("refuted" in e for e in wl.check(bad))


def test_sweep_check_rejects_a_flipped_verdict(sweep):
    wl, outcome = sweep
    case = next(c for c in outcome.detail if c.oracle.converged)
    x = wl.probs[case.instance].inner(case.oracle.metric)
    sphere_index, rule, statuses = case.verdicts[0]
    flipped = statuses.copy()
    flipped[np.argmin(x)] = checks.UPPER    # deep in the linear part
    bad_case = dataclasses.replace(
        case, verdicts=[(sphere_index, rule, flipped)] + case.verdicts[1:])
    detail = [bad_case if c is case else c for c in outcome.detail]
    errors = wl.check(dataclasses.replace(outcome, detail=detail))
    assert any("contradict the oracle" in e for e in errors)


def test_sweep_check_rejects_a_sphere_that_misses(sweep):
    wl, outcome = sweep
    case = next(c for c in outcome.detail if c.oracle.converged)
    name, level, sphere = case.spheres[0]
    shift = np.ones_like(sphere.center)
    shift *= (sphere.radius + 1.0) / np.linalg.norm(shift)
    far = dataclasses.replace(sphere, center=sphere.center + shift)
    bad_case = dataclasses.replace(
        case, spheres=[(name, level, far)] + case.spheres[1:])
    detail = [bad_case if c is case else c for c in outcome.detail]
    errors = wl.check(dataclasses.replace(outcome, detail=detail))
    assert any("misses the oracle" in e for e in errors)


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for file in BENCH.glob("*.py"):
        (bench / file.name).write_text(file.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path-psd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
