"""Traced mode: spans around the calls into each ``tripscreen`` layer.

The wrappers are set from the benchmark's own code on the module attributes
through which the layers call each other (and on the problem instances),
for the length of one traced round, and removed afterwards; the program
itself carries no tracing.  A binding that a later version of the program no
longer has is skipped, and its metrics read 0.

A span records its name, start, end, parent span, the rows it was handed
and one count (verdicts, iterations, spheres or range hits, by layer).
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from tripscreen import bounds as tbounds
from tripscreen import datasets as tdatasets
from tripscreen import path as tpath
from tripscreen import problem as tproblem
from tripscreen import rules as trules
from tripscreen import solver as tsolver

NAME, START, END, PARENT, ROWS, COUNT = range(6)
FIELDS = ("name", "start", "end", "parent", "rows", "count")
BOUND_FUNCS = ("gradient_bound", "projected_gradient_bound", "gap_bound",
               "dual_gap_bound", "path_bound", "relaxed_path_bound")
# Set-up is traced once, apart from the rounds.
SETUP_METRICS = ("datasets.load_s", "problem.build_triplets_s")
_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, rows=None, count=None):
        """``fn`` recorded as a span; ``rows`` reads the arguments before the
        call, ``count`` reads the return value after it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   rows(*args, **kwargs) if rows else 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count:
                rec[COUNT] = count(out)
            return out

        return traced

    def take(self):
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _inner_rows(problem):
    def rows(*args, **kwargs):
        idx = _arg(args, kwargs, 1, "idx")
        return problem.n_triplets if idx is None else len(idx)
    return rows


def _weights_rows(*args, **kwargs):
    return len(_arg(args, kwargs, 0, "weights"))


def _unknown_rows(*args, **kwargs):
    statuses = _arg(args, kwargs, 2, "statuses")
    return int((statuses == 0).sum())


def _range_rows(*args, **kwargs):
    problem = args[0]
    idx = _arg(args, kwargs, 4, "idx")
    return problem.n_triplets if idx is None else len(idx)


def _verdicts(counts):
    return int(counts.new_lower + counts.new_upper)


def _hits(masks):
    low, up = masks
    return int(low.sum() + up.sum())


@contextmanager
def installed(tracer: Tracer, problems=()):
    """Wrap every traced binding for the duration of the block."""
    saved = []

    def patch(target, attr, name, rows=None, count=None):
        if not hasattr(target, attr):
            return
        saved.append((target, attr, vars(target).get(attr, _MISSING)))
        setattr(target, attr,
                tracer.wrap(name, getattr(target, attr), rows, count))

    patch(tdatasets, "load_dataset", "datasets.load_dataset")
    patch(tproblem, "build_triplets", "problem.build_triplets")
    for prob in problems:
        patch(prob, "inner", "problem.inner", rows=_inner_rows(prob))
        patch(prob, "accumulate", "problem.accumulate", rows=_weights_rows)
    for mod in (tproblem, tsolver, tbounds, trules, tpath):
        patch(mod, "cone_split", "linalg.cone_split")
        patch(mod, "cone_project", "linalg.cone_project")
    for mod in (tbounds, tpath):
        for func in BOUND_FUNCS:
            patch(mod, func, "bounds." + func, count=lambda s: 1)
    patch(tsolver, "_build_spheres", "bounds.build_spheres", count=len)
    for mod in (tsolver, tpath, trules):
        patch(mod, "screen_all", "rules.screen_all", rows=_unknown_rows,
              count=_verdicts)
    patch(tpath, "lambda_ranges_all", "rules.lambda_ranges_all",
          rows=_range_rows)
    for mod in (tsolver, tpath):
        patch(mod, "solve", "solver.solve", count=lambda r: r.iterations)
    patch(tpath, "run_path", "path.run_path")
    patch(tpath, "_record", "path.record")
    if hasattr(tpath, "_RangeStore"):
        patch(tpath._RangeStore, "hits", "path.range_lookup", count=_hits)
    try:
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, original)


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times (span minus the child spans it
    contains) for one traced round."""
    self_s = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= s[END] - s[START]

    calls = defaultdict(int)
    rows = defaultdict(int)
    count = defaultdict(int)
    secs = defaultdict(float)
    for k, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        rows[name] += s[ROWS]
        count[name] += s[COUNT]
        secs[name] += self_s[k]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    bound_names = [n for n in secs if n.startswith("bounds.")]
    spheres = sum(s[COUNT] for s in spans if s[NAME].startswith("bounds.")
                  and not parent_name(s).startswith("bounds."))
    solver_screen = [k for k, s in enumerate(spans)
                     if s[NAME] == "rules.screen_all"
                     and parent_name(s) == "solver.solve"]
    path_screen = [s for s in spans if s[NAME] == "rules.screen_all"
                   and parent_name(s) == "path.run_path"]
    record_rows = sum(s[ROWS] for s in spans if s[NAME] == "problem.inner"
                      and parent_name(s) == "path.record")
    steps = sum(1 for s in spans if s[NAME] == "solver.solve"
                and parent_name(s) == "path.run_path")
    screen_rows = rows["rules.screen_all"]
    return {
        "datasets.load_s": secs["datasets.load_dataset"],
        "problem.build_triplets_s": secs["problem.build_triplets"],
        "problem.inner_calls": calls["problem.inner"],
        "problem.inner_rows": rows["problem.inner"],
        "problem.inner_s": secs["problem.inner"],
        "problem.accumulate_calls": calls["problem.accumulate"],
        "problem.accumulate_rows": rows["problem.accumulate"],
        "problem.accumulate_s": secs["problem.accumulate"],
        "linalg.cone_split_calls": (calls["linalg.cone_split"]
                                    + calls["linalg.cone_project"]),
        "linalg.cone_split_s": (secs["linalg.cone_split"]
                                + secs["linalg.cone_project"]),
        "bounds.spheres": spheres,
        "bounds.s": sum(secs[n] for n in bound_names),
        "rules.rows_evaluated": screen_rows,
        "rules.screen_s": secs["rules.screen_all"],
        "rules.verdicts": count["rules.screen_all"],
        "rules.verdicts_per_row": (count["rules.screen_all"] / screen_rows
                                   if screen_rows else 0.0),
        "rules.range_rows": rows["rules.lambda_ranges_all"],
        "rules.range_s": secs["rules.lambda_ranges_all"],
        "solver.solves": calls["solver.solve"],
        "solver.iterations": count["solver.solve"],
        "solver.solve_s": secs["solver.solve"],
        "solver.screen_s": sum(self_s[k] for k in solver_screen),
        "path.steps": steps,
        "path.presolve_screened": sum(s[COUNT] for s in path_screen),
        "path.range_hits": count["path.range_lookup"],
        "path.presolve_s": _presolve_s(spans, self_s),
        "path.record_inner_rows": record_rows,
    }


def _presolve_s(spans, self_s) -> float:
    """The path driver's own time before each solve: from the start of the
    step (the path's start, or the end of the previous step's record) to the
    start of its solve, less the spans of other layers inside that stretch."""
    total = 0.0
    for r, run in enumerate(spans):
        if run[NAME] != "path.run_path":
            continue
        cursor, inside = run[START], 0.0
        for s in spans[r + 1:]:
            if s[START] >= run[END]:
                break
            if s[PARENT] != r:
                continue
            if s[NAME] == "solver.solve":
                total += s[START] - cursor - inside
            if s[NAME] in ("solver.solve", "path.record"):
                cursor, inside = s[END], 0.0
            elif s[NAME] != "path.range_lookup":
                inside += s[END] - s[START]
    return total


def write_spans(spans, file: Path):
    file.parent.mkdir(parents=True, exist_ok=True)
    with open(file, "w", encoding="utf-8") as handle:
        json.dump({"fields": FIELDS, "spans": spans}, handle)
