"""Acceptance path benchmark: the baseline and the screened regularization
path of acceptance criteria 10 and 11, timed in one process.

Run from the repository root:

    python3 bench/acceptance_path.py --label "change"

The problem and both path configurations are those of the ``timed_benchmark``
fixture in ``tests/test_acceptance.py`` (2000 x 19 Gaussian blobs, two
classes, k = 10, active set; the screened path adds the relaxed-path sphere
rule and range screening).  BLAS runs on one thread.  The script appends one
record (label, commit, both walls, their ratio, path steps, solver
iterations, mid-path median ``rate_total``) to the ``runs`` list of
``BENCH_acceptance_path.json`` at the repository root, creating it if needed.
"""

import os

# One BLAS thread, as in perfbench: set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tripscreen import (MetricProblem, PathConfig, SmoothedHingeLoss,  # noqa: E402
                        SolveConfig, build_triplets, gaussian_blobs, run_path)

DECAY = 0.9


def build_problem() -> MetricProblem:
    data = gaussian_blobs(2000, 19, 2, separation=2.0, seed=42,
                          label_noise=0.15)
    return MetricProblem(build_triplets(data, k=10), SmoothedHingeLoss(0.05))


def path_configs():
    base = PathConfig(decay=DECAY, stop_threshold=0.01, solve=SolveConfig(
        gap_tol=1e-6, max_iter=100_000, active_set=True, bound="none"))
    screened = PathConfig(decay=DECAY, stop_threshold=0.01,
                          use_range_screening=True, solve=SolveConfig(
                              gap_tol=1e-6, max_iter=100_000, active_set=True,
                              bound="relaxed-path", rule="sphere"))
    return base, screened


def timed_path(problem, config):
    t0 = time.perf_counter()
    out = run_path(problem, config)
    wall = time.perf_counter() - t0
    records = out.records
    return wall, {
        "wall_s": round(wall, 3),
        "steps": len(records),
        "iterations": sum(r.result.iterations for r in records),
        "converged": all(r.result.converged for r in records),
    }, records


def mid_path_rate(records) -> float:
    """Median ``rate_total`` over the middle third of the path, as
    criterion 11 grades it."""
    n = len(records)
    return float(np.median([r.rate_total
                            for r in records[n // 3: 2 * n // 3 + 1]]))


def commit() -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "src"],
                               cwd=ROOT, capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("+uncommitted src" if dirty else "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of the measured version, stored with the run")
    parser.add_argument("--out", default=str(ROOT / "BENCH_acceptance_path.json"))
    args = parser.parse_args(argv)

    problem = build_problem()
    base_cfg, scr_cfg = path_configs()
    t_base, base, _ = timed_path(problem, base_cfg)
    t_scr, screened, records = timed_path(problem, scr_cfg)
    screened["mid_path_rate_total"] = round(mid_path_rate(records), 4)
    run = {
        "label": args.label,
        "commit": commit(),
        "date": time.strftime("%Y-%m-%d %H:%M:%S %Z"),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, BLAS 1 thread",
        "n_triplets": problem.n_triplets,
        "baseline": base,
        "screened": screened,
        "ratio": round(t_scr / t_base, 4),
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {
        "benchmark": "acceptance path (criteria 10 and 11)",
        "command": "python3 bench/acceptance_path.py --label LABEL",
        "runs": []}
    doc["runs"].append(run)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(run))


if __name__ == "__main__":
    main()
