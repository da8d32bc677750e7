"""Command-line front end: run screened regularization paths over subsampled
trials of a dataset and write per-lambda and summary CSV reports."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional

import numpy as np

from .datasets import load_dataset, subsample
from .path import PathConfig, PathResult, run_path
from .problem import MetricProblem, SmoothedHingeLoss, build_triplets
from .solver import BOUND_CHOICES, RULE_CHOICES, SolveConfig

PER_LAMBDA_COLUMNS = [
    "trial", "lambda", "iterations", "gap", "n_screened_L", "n_screened_R",
    "n_unknown", "rate_total", "rate_screenable", "range_hits",
    "wall_time_solve", "wall_time_screen", "converged",
]


@dataclass
class RunConfig:
    data: str
    fmt: str = "auto"
    label_col: int = 0
    k: int = 3
    gamma: float = 0.05
    decay: float = 0.9
    stop_threshold: float = 0.01
    gap_tol: float = 1e-6
    max_iter: int = 20000
    screen_every: int = 10
    bound: str = "relaxed-path"
    rule: str = "sphere"
    active_set: bool = False
    diagonal: bool = False
    range_screening: bool = False
    subsample_fraction: float = 0.9
    trials: int = 5
    seed: int = 0
    out: str = "results"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ValueError("subsample fraction must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # The path and solver settings are checked by their own configs.
        self.path_config()

    def path_config(self) -> PathConfig:
        solve_cfg = SolveConfig(
            gap_tol=self.gap_tol, max_iter=self.max_iter,
            screen_every=self.screen_every, bound=self.bound, rule=self.rule,
            active_set=self.active_set)
        return PathConfig(decay=self.decay, stop_threshold=self.stop_threshold,
                          solve=solve_cfg,
                          use_range_screening=self.range_screening)


def read_config_file(path) -> dict:
    """Plain-text configuration: one ``key = value`` pair per line,
    ``#`` starts a comment.  Keys are ``RunConfig`` field names, with ``-``
    accepted for ``_``."""
    known = {f.name for f in fields(RunConfig)}
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (tok.strip() for tok in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripscreen",
        description="Metric learning over triplets with safe screening "
                    "along a regularization path.")
    parser.add_argument("--data", help="dataset file")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--format", dest="fmt", default=None,
                        choices=["auto", "libsvm", "csv"])
    parser.add_argument("--label-col", type=int, default=None,
                        help="label column for CSV input (default 0)")
    parser.add_argument("--k", type=int, default=None,
                        help="neighbors per side when building triplets")
    parser.add_argument("--gamma", type=float, default=None,
                        help="smoothing width of the hinge (0 = plain hinge)")
    parser.add_argument("--decay", type=float, default=None)
    parser.add_argument("--stop-threshold", type=float, default=None)
    parser.add_argument("--gap-tol", type=float, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--screen-every", type=int, default=None)
    parser.add_argument("--bound", default=None, choices=list(BOUND_CHOICES))
    parser.add_argument("--rule", default=None, choices=list(RULE_CHOICES))
    parser.add_argument("--active-set", action="store_true", default=None)
    parser.add_argument("--diagonal", action="store_true", default=None)
    parser.add_argument("--range-screening", action="store_true", default=None)
    parser.add_argument("--subsample", dest="subsample_fraction", type=float,
                        default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    return parser


_BOOL_FIELDS = {"active_set", "diagonal", "range_screening"}
_INT_FIELDS = {"label_col", "k", "max_iter", "screen_every", "trials", "seed"}
_FLOAT_FIELDS = {"gamma", "decay", "stop_threshold", "gap_tol",
                 "subsample_fraction"}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        for key, raw in read_config_file(args.config).items():
            if key in _BOOL_FIELDS:
                values[key] = raw.lower() in ("1", "true", "yes", "on")
            elif key in _INT_FIELDS:
                values[key] = int(raw)
            elif key in _FLOAT_FIELDS:
                values[key] = float(raw)
            else:
                values[key] = raw
    for f in fields(RunConfig):
        arg = getattr(args, f.name, None)
        if arg is not None:
            values[f.name] = arg
    if "data" not in values or not values["data"]:
        raise ValueError("a dataset must be given via --data or the config file")
    return RunConfig(**values)


def run(config: RunConfig) -> int:
    """Execute trials x path and write the CSV reports; returns exit status."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(config.data, fmt=config.fmt,
                           label_col=config.label_col)
    loss = SmoothedHingeLoss(config.gamma)
    path_cfg = config.path_config()

    rows: List[dict] = []
    status = 0
    for trial in range(config.trials):
        try:
            data_t = (subsample(dataset, config.subsample_fraction,
                                seed=config.seed + trial)
                      if config.subsample_fraction < 1.0 else dataset)
            triplets = build_triplets(data_t, k=config.k)
            problem = MetricProblem(triplets, loss, diagonal=config.diagonal)
            result = run_path(problem, path_cfg)
        except Exception as exc:  # partial outputs are still written below
            print(f"trial {trial} failed: {exc}", file=sys.stderr)
            status = 1
            continue
        m_total = problem.n_triplets
        for rec in result.records:
            rows.append({
                "trial": trial,
                "lambda": rec.lam,
                "iterations": rec.result.iterations,
                "gap": rec.result.gap,
                "n_screened_L": rec.result.n_lower,
                "n_screened_R": rec.result.n_upper,
                "n_unknown": m_total - rec.result.n_lower - rec.result.n_upper,
                "rate_total": rec.rate_total,
                "rate_screenable": rec.rate_screenable,
                "range_hits": rec.range_hits,
                "wall_time_solve": rec.wall_time_solve,
                "wall_time_screen": rec.wall_time_screen,
                "converged": int(rec.result.converged),
            })

    _write_per_lambda(out_dir / "per_lambda.csv", rows)
    _write_summary(out_dir / "summary.csv", rows)
    return status


def _write_per_lambda(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=PER_LAMBDA_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_summary(path, rows):
    """Average the per-lambda records across trials by path step index."""
    by_trial = {}
    for row in rows:
        by_trial.setdefault(row["trial"], []).append(row)
    n_steps = max((len(v) for v in by_trial.values()), default=0)
    numeric = [c for c in PER_LAMBDA_COLUMNS if c != "trial"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "n_trials"] + [f"mean_{c}" for c in numeric])
        for step in range(n_steps):
            stack = [v[step] for v in by_trial.values() if len(v) > step]
            means = [float(np.mean([r[c] for r in stack])) for c in numeric]
            writer.writerow([step, len(stack)] + [f"{v:.10g}" for v in means])


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    status = run(config)
    print(f"done in {time.perf_counter() - t0:.1f}s -> {config.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
