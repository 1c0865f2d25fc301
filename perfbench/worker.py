"""One workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace [--seconds S]

``setup`` stops after the workload's first result and reports set-up
time: the time to import ``sharp_rosenthal`` plus the time of that first
operation, run with cold caches.  The benchmark's own imports and input
generation are left out of it.  ``run`` then finishes the warm-up, cycles
through the workload's pool of rounds for ``--seconds`` (and through every
input at least once) with each operation timed on its own, checks every
result against its reference after the clock stops, and runs the
workload's probe of known defects.  ``trace``
runs the warm-up and the timed rounds with the tracer installed, from the
first operation of the fresh interpreter on, then replays the timed rounds
untraced to price the tracer; it reports no set-up time.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import time

# The package is imported before anything else, so that its import, part of
# set-up time, is timed on its own.
_IMPORT_START = time.perf_counter()
import sharp_rosenthal  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse
import itertools
import json
import os
import platform
import resource
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import metrics
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_out"

#: Failures printed in the result; the rest are only counted.
MAX_LOGGED_FAILURES = 20

#: Seconds the timed operations run on one CPU before moving to the next.
CPU_TURN_S = 0.2


def execute(op, tracer=None, op_id: int = 0):
    """(seconds, result, error) of one operation; under ``tracer`` the
    operation's span encloses the timed region."""
    with tracer.operation(op_id) if tracer else nullcontext():
        start = time.perf_counter()
        try:
            result, error = op(), None
        except Exception as exc:  # an operation that raises is a counted failure
            result, error = None, exc
        return time.perf_counter() - start, result, error


def schedule(pool, n: int):
    """(round, position, op) of the ``n``-th round run: rounds cycle through
    ``pool``, and each cycle starts a round at a different position, so the
    repeats of an input follow different operations."""
    r = n % len(pool)
    ops = pool[r]
    shift = (n // len(pool)) % len(ops)
    positions = [(shift + k) % len(ops) for k in range(len(ops))]
    return [(r, j, ops[j]) for j in positions]


def scheduled(pool):
    """(round, position, op) of every operation in run order, without end.

    Between operations the process moves on to the next CPU it may use,
    every CPU_TURN_S seconds.  On a shared host each CPU has slow phases of
    its own that last tens of seconds: left on one CPU, a run takes that
    CPU's phase, and runs of the same code differ by up to 1.4x.  Turning
    through the CPUs gives every run the same mix of them."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    turns = itertools.cycle(cpus)
    due = 0.0
    for n in itertools.count():
        for entry in schedule(pool, n):
            if len(cpus) > 1 and time.perf_counter() >= due:
                os.sched_setaffinity(0, {next(turns)})
                due = time.perf_counter() + CPU_TURN_S
            yield entry


def timed_rounds(pool, seconds: float, tracer=None, first_id: int = 0):
    """Operations from ``pool`` in run order until ``seconds`` have passed
    and every input has run once.  Operation ids, used by the tracer, count
    on from ``first_id``."""
    log = []  # (round index in pool, position, seconds, result, error)
    inputs = sum(len(ops) for ops in pool)
    start = time.perf_counter()
    for r, j, op in scheduled(pool):
        if len(log) >= inputs and time.perf_counter() - start >= seconds:
            break
        log.append((r, j) + execute(op, tracer, first_id + len(log)))
    return log


def replay(pool, n_ops: int):
    """The first ``n_ops`` operations of ``timed_rounds`` again, untraced."""
    return [(r, j) + execute(op) for r, j, op in itertools.islice(scheduled(pool), n_ops)]


def failure(op, error=None, detail=None) -> dict:
    return {
        "kind": op.kind,
        "error": type(error).__name__ if error is not None else "WrongResult",
        "detail": str(error) if error is not None else detail,
        "inputs": op.params,
    }


def verdict(op, result, error):
    """None when ``result`` passes the operation's check, else a failure record."""
    if error is not None:
        return failure(op, error)
    try:
        problem = op.check(result)
    except Exception as exc:  # a check that cannot run fails the operation
        return failure(op, detail=f"check raised {type(exc).__name__}: {exc}")
    return failure(op, detail=problem) if problem else None


def check_log(pool, log):
    """Check each distinct input once against its reference, and each repeat
    against the first result for the same input: a repeat passes only if it
    reproduces a first result that passed."""
    first: dict = {}  # (round, position) -> (repr of the first result, its verdict)
    oks, failures = [], []
    for r, j, _, result, error in log:
        op = pool[r][j]
        if error is None and (r, j) in first:
            text, first_bad = first[r, j]
            bad = first_bad if repr(result) == text else failure(op, detail="result differs from the first run")
        else:
            bad = verdict(op, result, error)
            if error is None:
                first[r, j] = (repr(result), bad)
        oks.append(bad is None)
        if bad:
            failures.append(bad)
    return oks, failures


def run_probe(ops) -> tuple[dict, list]:
    outcomes: Counter = Counter()
    failures = []
    for op in ops:
        _, result, error = execute(op)
        bad = verdict(op, result, error)
        outcomes["ok" if bad is None else bad["error"]] += 1
        if bad:
            failures.append(bad)
    return dict(outcomes), failures


def records(log, oks):
    """(input key, seconds, ok) per execution, for metrics.operation_metrics."""
    return [((r, j), seconds, ok) for (r, j, seconds, _, _), ok in zip(log, oks)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    rounds = workload.rounds(args.seed)
    warmup = next(rounds)[: workload.warmup]
    out = {}
    if args.mode == "trace":
        # Traced from the warm-up on, so that the cold work of a fresh
        # interpreter (Gauss-Legendre rules, the caches) shows per layer.
        pool = [next(rounds) for _ in range(workload.pool)]
        tracer = tracing.Tracer()
        misses = tracing.gl_cache_misses()
        with tracer.installed(tracing.package_sites()):
            warm_log = [(0, j) + execute(op, tracer, j) for j, op in enumerate(warmup)]
            traced = timed_rounds(pool, args.seconds, tracer, len(warm_log))
        misses = tracing.gl_cache_misses() - misses
        log = replay(pool, len(traced))
    else:
        first_s, result, error = execute(warmup[0])
        out["setup_s"] = IMPORT_S + first_s
        if args.mode == "setup":
            print(json.dumps({"setup_s": out["setup_s"], "failure": verdict(warmup[0], result, error)}))
            return 0
        warm_log = [(0, 0, first_s, result, error)] + [(0, j) + execute(op) for j, op in enumerate(warmup) if j]
        pool = [next(rounds) for _ in range(workload.pool)]
        log = timed_rounds(pool, args.seconds)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out.update(
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
        rounds=len(log) / sum(len(ops) for ops in pool),
        pool_rounds=workload.pool,
        ops_per_round=len(workload.cells),
        peak_rss_mb=peak_rss_mb,
    )
    warm_oks, warm_failures = check_log([warmup], warm_log)
    # the traced results are checked like the untraced ones
    oks, failures = check_log(pool, traced + log)
    traced_oks, oks = oks[: len(traced)], oks[len(traced) :]
    # the timings come from the untraced rounds
    out["timing"] = metrics.operation_metrics(records(log, oks))
    if args.mode == "trace":
        traced_timing = metrics.operation_metrics(records(traced, traced_oks))
        overhead_share = out["timing"]["ops_per_s"] / traced_timing["ops_per_s"] - 1.0
        layers = tracing.layer_metrics(tracer, misses, overhead_share)
        out["layers"] = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]} for k, v in layers.items()}
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{args.workload}.jsonl"
        tracer.write(trace_file)
        out["trace_file"] = str(trace_file.relative_to(ROOT))
        out["spans"] = len(tracer.spans)
        oks = traced_oks + oks
    out["attempted"] = len(oks)
    out["failed"] = oks.count(False)
    out["warmup_failed"] = warm_oks.count(False)
    out["probe"], probe_failures = run_probe(workload.probe_ops(args.seed))
    all_failures = warm_failures + failures
    for entry in all_failures + probe_failures:
        print(json.dumps({"failure": entry}), file=sys.stderr)
    out["failures"] = all_failures[:MAX_LOGGED_FAILURES]
    out["probe_failures"] = probe_failures[:MAX_LOGGED_FAILURES]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
