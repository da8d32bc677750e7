"""Benchmark for tripscreen's screened regularization paths and safety sweep.

Run from the repository root:

    python3 perfbench/run.py --workload path-screened --seed 1 --seconds 25 --trace 0

The workload's inputs are drawn from ``--seed``, written under
``.perfbench/`` and read back through ``tripscreen.load_dataset``.  The run
repeats whole rounds of the workload until ``--seconds`` have passed, checks
the outputs of a round against computations made apart from the program, and
prints one JSON line last: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced rounds with ``--trace 1``.  See README.md.
"""

import os
import time

_T0 = time.perf_counter()
# One BLAS thread: a second thread gives no gain on these sizes and adds
# run-to-run spread.  Set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"


def _started_before_t0() -> float:
    """Seconds from the process's start to ``_T0`` (interpreter start-up),
    from the start time the kernel records; 0 where it is not available."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return max(0.0, now - started - (time.perf_counter() - _T0))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_STARTUP = _started_before_t0()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="path-screened, path-psd or tight-gap")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tripscreen" / "__init__.py").is_file():
        print(f"no tripscreen sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.make_workload(args.workload)
    tracer = tracing.Tracer() if args.trace else None

    def spans_of(traced_now, problems=()):
        return (tracing.installed(tracer, problems) if traced_now
                else contextlib.nullcontext())

    workload.make_inputs(args.seed, WORKDIR)
    with spans_of(tracer is not None):
        workload.setup()
    setup_s = _STARTUP + time.perf_counter() - _T0
    setup_layer = tracing.layer_metrics(tracer.take()) if tracer else None

    # Only the first round's outputs are kept for the checks; later rounds
    # keep their counts, so memory does not grow with the number of rounds.
    untraced, traced, signatures, layers, errors = [], [], [], [], []
    first = last_spans = None
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or not untraced or (tracer and not traced)):
        trace_this = tracer is not None and len(traced) < len(untraced)
        t = time.perf_counter()
        with spans_of(trace_this, workload.probs):
            outcome = workload.run_round()
        wall = time.perf_counter() - t
        (traced if trace_this else untraced).append(wall)
        signatures.append((outcome.attempted, outcome.failed,
                           outcome.solver_iters, outcome.screened_triplets))
        if first is None:
            first = outcome
        if trace_this:
            last_spans = tracer.take()
            layer = tracing.layer_metrics(last_spans)
            layer.update({k: setup_layer[k] for k in tracing.SETUP_METRICS})
            # Two independent totals: verdicts seen at the screening calls
            # plus range hits, and statuses counted in the solves' results.
            seen = layer["path.range_hits"] + layer["rules.verdicts"]
            if seen != outcome.screened_triplets:
                errors.append(f"traced verdicts {seen} != screened triplets "
                              f"{outcome.screened_triplets}")
            layers.append(layer)
        del outcome
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    errors += workload.check(first)
    if len(set(signatures)) != 1:
        errors.append("rounds of the same inputs disagree: "
                      + str(sorted(set(signatures))))
    attempted = sum(sig[0] for sig in signatures)
    failed = sum(sig[1] for sig in signatures)
    # Other tenants of the host only ever add time, and they come and go
    # over seconds to minutes, so the fastest round is the steadiest measure
    # of the code: over ten runs of tight-gap, whose inputs never change, the
    # median round spread by 24 % and the fastest round by 8 %.
    run_s = min(untraced)

    if tracer:
        tracing.write_spans(last_spans,
                            WORKDIR / f"trace-{args.workload}.json")
        metrics = {}
        for name in layers[0]:
            unit = "s" if name.endswith("_s") or name == "bounds.s" else (
                "ratio" if name.endswith("per_row") else "count")
            metrics[name] = metric(
                statistics.median(layer[name] for layer in layers), unit)
        metrics["trace.overhead_s"] = metric(min(traced) - run_s, "s")
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "run_s": metric(run_s, "s"),
            "peak_mem_mb": metric(peak_kb / 1024.0, "MB"),
            "solver_iters": metric(first.solver_iters, "count"),
            "screened_triplets": metric(first.screened_triplets, "count"),
        }

    for line in errors:
        print("CHECK FAILED:", line, file=sys.stderr)
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} "
          f"traced rounds, {attempted} operations, {failed} failed; round "
          f"seconds {' '.join(f'{t:.2f}' for t in untraced + traced)}",
          file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
