"""Benchmark of sharp_rosenthal: one seeded workload per invocation.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Workloads (see workloads.py): ``bounds``, ``scan``, ``crosscheck``
and ``variation``.  Each runs in child processes with BLAS and OpenMP
pinned to one thread, one client in a closed loop that turns through the
machine's CPUs between operations (see worker.scheduled).

With ``--trace 0`` the end-to-end metrics are printed: ``ops_per_s``,
``op_p50_ms`` and ``op_tail_ms`` (at the percentile that leaves ten
distinct inputs beyond it) over the distinct inputs of the run, each timed
by the mean of its successful executions; ``setup_s``
(median over fresh interpreters of the time to import the package and return
the workload's first result with cold caches) and ``peak_rss_mb``.  The
share of failed operations is printed as ``fail_share`` and carried by the
result's attempted and failed counts; outcomes of the untimed probe of
known defects are printed by error class.  With ``--trace 1`` the run is
traced from its first operation on and the per-layer metrics are printed
instead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("bounds", "scan", "crosscheck", "variation")

#: Fresh interpreters timed per run for setup_s; the main worker is one.
SETUP_SAMPLES = 3

#: Wall-clock budget for the whole invocation, children included.
DEADLINE_S = 170.0

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # keep the checkout clean and every import alike
    return env


def spawn(args, mode: str, deadline: float, seconds: float = 0.0) -> dict:
    """Run one worker; returns its JSON result."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(seconds),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker ({mode}) exceeded the {DEADLINE_S:.0f} s budget") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            res = spawn(args, "setup", deadline)
            if res["failure"]:
                raise BenchmarkError(f"first operation failed: {res['failure']}")
            setups.append(res["setup_s"])
    res = spawn(args, "trace" if args.trace else "run", deadline, args.seconds)
    if not args.trace:
        setups.append(res["setup_s"])
    timing = res["timing"]
    if "ops_per_s" not in timing:
        raise BenchmarkError("no operation succeeded")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "threads": PINNED_THREADS,
        **{k: res[k] for k in ("python", "numpy", "scipy", "rounds", "pool_rounds", "ops_per_round")},
        "inputs": timing["inputs"],
        "executions": timing["attempted"],
        "tail_fraction": timing["tail_fraction"],
        "tail_beyond": timing["tail_beyond"],
        "fail_share": timing["fail_share"],
        "probe": res["probe"],
        "setup_samples_s": setups,
    }
    if args.trace:
        metrics = res["layers"]
        meta["trace_file"] = res["trace_file"]
        meta["spans"] = res["spans"]
    else:
        values = {
            "ops_per_s": timing["ops_per_s"],
            "op_p50_ms": timing["op_p50_ms"],
            "op_tail_ms": timing["op_tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    result = {
        "correct": res["failed"] == 0 and res["warmup_failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    meta["failures"] = res["failures"]
    meta["probe_failures"] = res["probe_failures"]
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sharp_rosenthal" / "__init__.py").is_file():
        print(f"error: no sharp_rosenthal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        meta, result = measure(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(meta))
    print(f"fail_share {meta['fail_share']:.6g} ratio ({result['failed']} of {result['attempted']} failed)")
    print(f"probe {json.dumps(meta['probe'])}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
