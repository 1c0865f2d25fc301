"""Spans around the package's layer boundaries, installed from outside.

The tracer replaces each public function at the module attribute its
callers look up (``compound.certified_upper_cutoff`` as well as
``poisson.certified_upper_cutoff``, the methods of
``ShiftedMomentEvaluator``, ...) with a wrapper that records a span: layer,
start, end, parent span and operation id.  Spans stay in memory and are
written out when the run ends; ``installed`` restores every original on
exit.  A call into a layer made from inside the same layer (a recursion, or
one Gaussian kernel calling the other) folds into the outer span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from sharp_rosenthal import bounds, compound, poisson, quadrature, variation, verify

NAME, START, END, PARENT, OP = range(5)

OP_SPAN = "op"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.gl_orders: list[int] = []  # largest Gauss-Legendre order per variation call
        self.gl_max = 0  # largest Gauss-Legendre order in the current variation call

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self.stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    @contextmanager
    def operation(self, op_id: int):
        self.op_id = op_id
        index = self.open(OP_SPAN)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, layer: str, fn, on_return=None, on_error=None, around=None):
        """``fn`` recording a ``layer`` span per call.

        ``on_return(tracer, args, result)`` and ``on_error(tracer)`` update the
        counters; ``around(tracer, args, kwargs)`` may rewrite the arguments.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.innermost() == layer:
                return fn(*args, **kwargs)
            if around is not None:
                args, kwargs = around(self, args, kwargs)
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_error is not None:
                    on_error(self)
                raise
            finally:
                self.close(index)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, sites):
        """Install wrappers at ``sites``, restoring every original on exit."""
        saved = []
        try:
            for owner, attr, layer, hooks in sites:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original, **hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- counters kept at the boundaries


def _add(key, amount):
    def hook(tracer, args, result):
        tracer.counts[key] += amount(args, result)

    return hook


def _count_error(key):
    def hook(tracer):
        tracer.counts[key] += 1

    return hook


def _count_integrand_points(tracer, args, kwargs):
    """Replace the integrand given to adaptive_gauss_kronrod by one that counts points."""
    f = args[0]

    def counted(x):
        tracer.counts["quadrature.gk.points"] += np.size(x)
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _gl_order(tracer, args, result):
    n = int(args[0])
    tracer.counts["quadrature.gl.max_order"] = max(tracer.counts["quadrature.gl.max_order"], n)
    tracer.gl_max = max(tracer.gl_max, n)


def _variation_start(tracer, args, kwargs):
    tracer.gl_max = 0
    return args, kwargs


def _variation_end(tracer, args, result):
    if tracer.gl_max:
        tracer.gl_orders.append(tracer.gl_max)


_CUTOFF = {"on_return": _add("poisson.cutoff.terms", lambda a, r: r + 1)}
_PMF = {"on_return": _add("poisson.pmf.points", lambda a, r: np.size(a[0]))}
_MGF = {"on_return": _add("compound.mgf.points", lambda a, r: np.size(a[1]))}
_EVAL = {"on_return": _add("compound.evaluator.eval.shifts", lambda a, r: np.size(a[1]))}
_CONTOUR = {"on_error": _count_error("compound.contour.fail")}
_GK = {"around": _count_integrand_points}
_GL = {"on_return": _gl_order}
_VARIATION = {"around": _variation_start, "on_return": _variation_end}
_NONE: dict = {}


def package_sites():
    """(owner, attribute, layer, hooks) for every boundary the tracer wraps."""
    evaluator = compound.ShiftedMomentEvaluator
    return [
        (poisson, "certified_upper_cutoff", "poisson.cutoff", _CUTOFF),
        (compound, "certified_upper_cutoff", "poisson.cutoff", _CUTOFF),
        (poisson, "poisson_pmf", "poisson.pmf", _PMF),
        (compound, "poisson_pmf", "poisson.pmf", _PMF),
        (poisson, "gaussian_abs_moment", "poisson.gaussian", _NONE),
        (poisson, "gaussian_part_moment", "poisson.gaussian", _NONE),
        (compound, "gaussian_abs_moment", "poisson.gaussian", _NONE),
        (compound, "gaussian_part_moment", "poisson.gaussian", _NONE),
        (poisson, "skellam_abs_moment_about", "poisson.skellam", _NONE),
        (bounds, "skellam_abs_moment_about", "poisson.skellam", _NONE),
        (compound, "cp_abs_moment_series", "compound.series", _NONE),
        (compound, "cp_part_moment_series", "compound.series", _NONE),
        (evaluator, "__init__", "compound.evaluator.build", _NONE),
        (evaluator, "__call__", "compound.evaluator.eval", _EVAL),
        (compound, "cp_part_moment_contour", "compound.contour", _CONTOUR),
        (compound, "cp_mgf", "compound.mgf", _MGF),
        (compound, "adaptive_gauss_kronrod", "quadrature.gk", _GK),
        (variation, "gauss_legendre_01", "quadrature.gl", _GL),
        (variation, "first_variation", "variation", _VARIATION),
        (variation, "second_variation", "variation", _VARIATION),
        (variation, "variational_F", "variation", _VARIATION),
        (variation, "positivity_kernel", "variation", _VARIATION),
        (verify, "rv_convolve", "verify.convolve", _NONE),
        (verify, "check_rosenthal", "verify", _NONE),
        (verify, "check_domination", "verify", _NONE),
        (verify, "exact_bound", "bounds", _NONE),
        (bounds, "exact_bound", "bounds", _NONE),
        (bounds, "symmetric_bound", "bounds", _NONE),
        (bounds, "combined_bound", "bounds", _NONE),
        (bounds, "even_p_bound", "bounds", _NONE),
        (bounds, "q_scan", "bounds", _NONE),
    ]


def gl_cache_misses() -> int:
    return quadrature.gauss_legendre_01.cache_info().misses


# --- post-processing


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


#: Per-layer metrics: name -> unit.
LAYER_METRICS = {
    "poisson.cutoff.calls": "count",
    "poisson.cutoff.terms": "count",
    "poisson.cutoff.self_s": "s",
    "poisson.pmf.points": "count",
    "poisson.pmf.self_s": "s",
    "poisson.gaussian.calls": "count",
    "poisson.gaussian.self_s": "s",
    "poisson.skellam.calls": "count",
    "poisson.skellam.self_s": "s",
    "compound.series.calls": "count",
    "compound.series.self_s": "s",
    "compound.evaluator.build.calls": "count",
    "compound.evaluator.build.self_s": "s",
    "compound.evaluator.eval.shifts": "count",
    "compound.evaluator.eval.self_s": "s",
    "compound.contour.calls": "count",
    "compound.contour.fail": "count",
    "compound.contour.self_s": "s",
    "compound.mgf.points": "count",
    "compound.mgf.self_s": "s",
    "quadrature.gk.calls": "count",
    "quadrature.gk.points": "count",
    "quadrature.gk.self_s": "s",
    "quadrature.gl.calls": "count",
    "quadrature.gl.misses": "count",
    "quadrature.gl.max_order": "nodes",
    "quadrature.gl.self_s": "s",
    "variation.calls": "count",
    "variation.self_s": "s",
    "variation.gl_order.mean": "nodes",
    "verify.convolve.calls": "count",
    "verify.convolve.self_s": "s",
    "verify.self_s": "s",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "trace.overhead_share": "ratio",
}


def layer_metrics(tracer: Tracer, gl_misses: int, overhead_share: float) -> dict[str, float]:
    """Every per-layer metric of ``LAYER_METRICS`` from a finished trace."""
    calls: Counter = Counter()
    busy: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[NAME]] += 1
        busy[span[NAME]] += own
    values: dict[str, float] = {}
    for name in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls[layer]
        elif stat == "self_s":
            values[name] = busy[layer]
    values.update({k: tracer.counts[k] for k in LAYER_METRICS if k in tracer.counts})
    values["quadrature.gl.misses"] = gl_misses
    orders = tracer.gl_orders
    values["variation.gl_order.mean"] = sum(orders) / len(orders) if orders else 0.0
    values["trace.overhead_share"] = overhead_share
    return {name: values.get(name, 0) for name in LAYER_METRICS}
