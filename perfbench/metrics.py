"""End-to-end metrics from per-execution records."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: Distinct inputs whose times lie beyond op_tail_ms.
TAIL_INPUTS = 10


def operation_metrics(records) -> dict:
    """Timing metrics over the distinct inputs of ``records``.

    ``records`` holds one (input key, seconds, ok) triple per execution.  An
    input is timed by the mean of its successful executions: the run cycles
    through its inputs, so their executions are spread over the run and the
    mean averages the machine's fast and slow phases, and each input weighs
    the same however often it ran.  ops_per_s is the number of timed inputs
    over the sum of their times, op_p50_ms their median, and op_tail_ms the
    nearest-rank value that leaves TAIL_INPUTS inputs beyond it.  A failed
    execution, whether it raised or returned a wrong value, counts only in
    ``fail_share``: a fast failure must not read as a fast operation.
    """
    runs: dict = defaultdict(list)
    for key, seconds, ok in records:
        if ok:
            runs[key].append(seconds)
    attempted = len(records)
    failed = attempted - sum(len(v) for v in runs.values())
    out = {"attempted": attempted, "failed": failed, "fail_share": failed / attempted if attempted else 0.0}
    times = sorted(math.fsum(v) / len(v) for v in runs.values())
    if times:
        n = len(times)
        rank = max(1, n - TAIL_INPUTS)
        out.update(
            inputs=n,
            ops_per_s=n / math.fsum(times),
            op_p50_ms=1e3 * statistics.median(times),
            op_tail_ms=1e3 * times[rank - 1],
            tail_fraction=rank / n,
            tail_beyond=n - rank,
        )
    return out
