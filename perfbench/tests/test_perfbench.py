"""Tests of the benchmark's own code: self times, failure accounting, metric
names and the tracer's install/restore.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import metrics  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sharp_rosenthal import bounds, compound  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_times_on_a_nested_trace():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("a", 1.0, 6.0, 0),
        span("b", 2.0, 3.0, 1),
        span("c", 4.0, 5.0, 1),
        span("d", 7.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 1.0, 2.0])


def test_self_times_count_overlapping_children_once():
    spans = [span("op", 0.0, 10.0, -1), span("a", 1.0, 5.0, 0), span("b", 3.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrapped_calls_nest_fold_and_count_errors():
    tracer = tracing.Tracer(clock=FakeClock())
    owner = types.SimpleNamespace()
    owner.inner = lambda x: x + 1
    owner.outer = lambda x: owner.inner(owner.outer2(x))
    owner.outer2 = lambda x: x * 2
    owner.boom = lambda: 1 / 0
    sites = [
        (owner, "inner", "lower", {}),
        (owner, "outer", "upper", {"on_return": tracing._add("upper.hits", lambda a, r: 1)}),
        (owner, "outer2", "upper", {}),
        (owner, "boom", "lower", {"on_error": tracing._count_error("lower.fail")}),
    ]
    with tracer.installed(sites):
        with tracer.operation(7):
            assert owner.outer(3) == 7
            with pytest.raises(ZeroDivisionError):
                owner.boom()
    names = [s[tracing.NAME] for s in tracer.spans]
    # outer2 runs inside outer, the same layer, so it folds into outer's span
    assert names == ["op", "upper", "lower", "lower"]
    parents = [s[tracing.PARENT] for s in tracer.spans]
    assert parents == [-1, 0, 1, 0]
    assert all(s[tracing.OP] == 7 for s in tracer.spans)
    assert tracer.counts["upper.hits"] == 1
    assert tracer.counts["lower.fail"] == 1


def test_wrappers_are_removed_after_the_traced_run():
    sites = tracing.package_sites()
    originals = [getattr(owner, attr) for owner, attr, _, _ in sites]
    series = compound.cp_abs_moment_series
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(sites):
            assert compound.cp_abs_moment_series is not series
            bounds.exact_bound(5.0, 5.0, 1.0, 1.0)
            raise RuntimeError("leave the traced region by an error")
    assert all(getattr(owner, attr) is orig for (owner, attr, _, _), orig in zip(sites, originals))
    layers = {s[tracing.NAME] for s in tracer.spans}
    assert {"bounds", "compound.series", "poisson.cutoff", "poisson.pmf"} <= layers


def test_layer_metrics_report_every_per_layer_name():
    tracer = tracing.Tracer()
    with tracer.installed(tracing.package_sites()):
        with tracer.operation(0):
            bounds.exact_bound(5.0, 5.0, 1.0, 1.0)
    values = tracing.layer_metrics(tracer, gl_misses=0, overhead_share=0.1)
    assert list(values) == list(tracing.LAYER_METRICS)
    assert values["bounds.calls"] == 1
    assert values["compound.series.calls"] == 2  # the +c and -c laws
    assert values["poisson.cutoff.terms"] == values["poisson.pmf.points"] > 0
    assert values["compound.contour.calls"] == 0


def fake_op(fn, check):
    return workloads.Op("fake", types.SimpleNamespace(f=fn), "f", (), {"x": 1}, check)


def test_raising_and_wrong_operations_count_as_failures_and_stay_out_of_timings():
    def fail():
        raise compound.TooManyAtoms("boom")

    good = fake_op(lambda: 1.0, lambda r: None)
    wrong = fake_op(lambda: 2.0, lambda r: "wrong value")
    raising = fake_op(fail, lambda r: None)
    other = fake_op(lambda: 3.0, lambda r: None)
    pool = [[good, wrong, raising, other]]
    seconds = (1.0, 1e-6, 1e-6, 3.0)
    log = [(0, j, t) + worker.execute(op)[1:] for j, (op, t) in enumerate(zip(pool[0], seconds))]
    oks, failures = worker.check_log(pool, log)
    assert oks == [True, False, False, True]
    assert [f["error"] for f in failures] == ["WrongResult", "TooManyAtoms"]
    assert failures[0]["inputs"] == {"x": 1}
    out = metrics.operation_metrics(worker.records(log, oks))
    assert (out["attempted"], out["failed"], out["fail_share"]) == (4, 2, 0.5)
    assert out["inputs"] == 2
    assert out["ops_per_s"] == pytest.approx(2 / 4.0)
    assert out["op_p50_ms"] == pytest.approx(2000.0)
    assert out["op_tail_ms"] == pytest.approx(1000.0)


def test_each_input_is_timed_by_the_mean_of_its_executions():
    # "a" ran three times and "b" once; "c" failed its only execution
    records = [("a", 3.0, True), ("b", 2.0, True), ("a", 1.0, True), ("a", 2.0, True), ("c", 0.1, False)]
    out = metrics.operation_metrics(records)
    assert (out["inputs"], out["attempted"], out["failed"]) == (2, 5, 1)
    assert out["ops_per_s"] == pytest.approx(2 / 4.0)
    assert out["op_p50_ms"] == pytest.approx(2000.0)


def test_tail_leaves_ten_inputs_beyond_it():
    # 50 inputs, each run three times
    records = [(k, float(k), True) for _ in range(3) for k in range(1, 51)]
    out = metrics.operation_metrics(records)
    assert out["op_tail_ms"] == pytest.approx(40e3)
    assert (out["tail_fraction"], out["tail_beyond"]) == (0.8, 10)
    assert out["op_tail_ms"] > out["op_p50_ms"]


def test_a_wrong_value_counts_as_a_failure_on_every_repeat():
    wrong = fake_op(lambda: 2.0, lambda r: "wrong value")
    good = fake_op(lambda: 1.0, lambda r: None)
    pool = [[wrong, good]]
    log = [(0, j, 1.0) + worker.execute(op)[1:] for _ in range(3) for j, op in enumerate(pool[0])]
    oks, failures = worker.check_log(pool, log)
    assert oks == [False, True] * 3
    assert [f["error"] for f in failures] == ["WrongResult"] * 3
    out = metrics.operation_metrics(worker.records(log, oks))
    assert (out["attempted"], out["failed"], out["inputs"]) == (6, 3, 1)


def test_a_repeated_input_must_reproduce_its_first_result():
    values = iter([1.0, 1.5])
    op = fake_op(lambda: next(values), lambda r: None)
    log = [(0, 0, 1.0) + worker.execute(op)[1:], (0, 0, 1.0) + worker.execute(op)[1:]]
    oks, failures = worker.check_log([[op]], log)
    assert oks == [True, False]
    assert failures[0]["detail"] == "result differs from the first run"


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.UNITS
    assert per_layer == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for name in list(end_to_end) + list(per_layer):
        assert METRIC_NAME.fullmatch(name), name


def test_rounds_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS.values():
        a, b, c = (workload.rounds(seed) for seed in (3, 3, 4))
        first = [[op.params for op in next(a)] for _ in range(2)]
        assert first == [[op.params for op in next(b)] for _ in range(2)]
        assert first != [[op.params for op in next(c)] for _ in range(2)]
        assert len(first[0]) == len(workload.cells)


def test_references_on_known_values():
    assert references.gaussian_abs_moment(0.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert references.gaussian_abs_moment(0.7, 1.3, 2.0) == pytest.approx(0.49 + 1.69, rel=1e-14)
    assert references.gaussian_abs_moment(0.5, 2.0, 4.0) == pytest.approx(
        0.5**4 + 6 * 0.25 * 4.0 + 3 * 16.0, rel=1e-14
    )
    # E_{6;1,1} = E|Pi_1 - 1|^6 = 41 and E_{4;1,1} = 4
    assert references.even_p_bound(6, 1.0, 1.0) == pytest.approx(41.0, rel=1e-13)
    assert references.exact_bound_p_ge_5(6.0, 6.0, 1.0, 1.0) == pytest.approx(41.0, rel=1e-13)
    assert references.even_p_bound(4, 1.0, 1.0) == pytest.approx(4.0, rel=1e-13)


def test_schedule_rotates_rounds_and_keeps_each_input_key():
    pool = [["a", "b", "c"], ["d", "e", "f"]]
    runs = [worker.schedule(pool, n) for n in range(6)]
    assert [op for _, _, op in runs[2]] == ["b", "c", "a"]
    for entries in runs:
        r = entries[0][0]
        assert sorted((j, op) for _, j, op in entries) == list(enumerate(pool[r]))


def test_timed_rounds_run_every_input_once_before_stopping():
    pool = [[fake_op(lambda: 1.0, lambda r: None) for _ in range(3)] for _ in range(2)]
    log = worker.timed_rounds(pool, seconds=0.0)
    assert sorted((r, j) for r, j, *_ in log) == [(r, j) for r in range(2) for j in range(3)]
    assert [(r, j) for r, j, *_ in worker.replay(pool, 4)] == [(r, j) for r, j, *_ in log[:4]]


def test_strata_split_their_sample_into_equal_shares():
    strata = workloads._law_intensity_strata(2, 8)
    assert strata[0][0] == 0.0 and strata[-1][1] == float("inf")
    assert all(a[1] == b[0] for a, b in zip(strata, strata[1:]))
    rng = workloads.np.random.default_rng(5)
    u, w = rng.uniform(0.5, 3.0, (2, 40_000)), rng.uniform(0.1, 2.0, (2, 40_000))
    lam = (w / (u * u)).sum(axis=0)
    shares = [((lo <= lam) & (lam < hi)).mean() for lo, hi in strata]
    assert shares == pytest.approx([1 / 8] * 8, abs=0.01)
