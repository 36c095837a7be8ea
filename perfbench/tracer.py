"""Span tracer for the traced run: wraps the package's public functions from outside.

The package binds names with ``from .x import y``, so a call from saddle to
digamma goes through ``hslaplace.saddle.digamma``, not ``hslaplace.specfun``.
``Tracer.install`` therefore rebinds every listed function in every
``hslaplace.*`` namespace that holds it.  Each call records one span
``(function, start, end, parent span, op, raised, elems)``; spans stay in
memory until ``LayerStats.add`` folds them into per-layer metrics.

Self time is a span's duration minus the durations of its direct children
(children nest inside their parent, so their durations never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = {
    "specfun": ("ln_gamma", "digamma", "trigamma", "ln_gamma_complex", "bessel_k0"),
    "saddle": ("inverse_digamma", "solve_saddle", "L_value_legendre", "critical_point", "tabulate"),
    "oracles": (
        "f1_exact", "f2_exact", "fn_quadrature", "fn_contour", "fn_saddle_asymptotic",
        "fn_montecarlo",
    ),
    "hypersphere": ("laplace_dn", "classify_regime", "unit_crossing", "ensemble_comparison"),
    "cli": ("main",),
    "svgplot": ("line_plot_svg",),
}
NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
INDEX = {name: i for i, name in enumerate(NAMES)}

# (ancestor, descendant, what to count per ancestor call) -> metric name
NESTED = {
    ("saddle.solve_saddle", "specfun.digamma", "calls"): "saddle.solve_saddle.digamma_per_call",
    ("saddle.solve_saddle", "specfun.trigamma", "calls"): "saddle.solve_saddle.trigamma_per_call",
    ("oracles.fn_contour", "specfun.ln_gamma_complex", "elems"): "oracles.fn_contour.nodes_per_call",
    ("hypersphere.unit_crossing", "oracles.fn_contour", "calls"):
        "hypersphere.unit_crossing.contour_per_call",
    ("hypersphere.ensemble_comparison", "saddle.critical_point", "calls"):
        "hypersphere.ensemble_comparison.critical_point_per_row",
}


def _arg_elems(args, result):
    """Argument elements a kernel call processed; a scalar counts as 1."""
    a = args[0]
    return 1 if isinstance(a, (int, float, complex)) else int(getattr(a, "size", len(a)))


def _rows(args, result):
    return len(result)


class Tracer:
    """Records one span per call of the functions in LAYERS while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        originals = {}
        for name in NAMES:
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"hslaplace.{mod}"), fn)
            count = _arg_elems if mod == "specfun" else _rows if fn == "ensemble_comparison" else None
            originals[original] = self._wrap(INDEX[name], original, count)
        for modname, module in list(sys.modules.items()):
            if modname != "hslaplace" and not modname.startswith("hslaplace."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in originals:
                    setattr(module, attr, originals[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> list:
        """The recorded spans; the tracer starts a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, idx, fn, count):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            result = None
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                elems = count(args, result) if count is not None and not raised else 0
                spans[me] = (idx, t0, t1, parent, self.op, raised, elems)

        return traced


class LayerStats:
    """Per-function and per-layer sums over any number of span lists."""

    def __init__(self):
        k = len(NAMES)
        self.calls = [0] * k
        self.total = [0.0] * k
        self.self_time = [0.0] * k
        self.raised = [0] * k
        self.elems = [0] * k
        self.nested = dict.fromkeys(NESTED, 0)

    def add(self, spans: list) -> None:
        covered = [0.0] * len(spans)
        for idx, t0, t1, parent, _op, _raised, _elems in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        # nearest enclosing span of each ancestor kind, propagated down the tree
        anc_kinds = sorted({INDEX[a] for a, _, _ in NESTED})
        nearest = {a: [-1] * len(spans) for a in anc_kinds}
        by_desc = {}
        for key in NESTED:
            by_desc.setdefault(INDEX[key[1]], []).append((key, INDEX[key[0]]))
        for i, (idx, t0, t1, parent, _op, raised, elems) in enumerate(spans):
            self.calls[idx] += 1
            self.total[idx] += t1 - t0
            self.self_time[idx] += t1 - t0 - covered[i]
            self.raised[idx] += raised
            self.elems[idx] += elems
            for a in anc_kinds:
                nearest[a][i] = i if idx == a else (nearest[a][parent] if parent >= 0 else -1)
            for key, anc in by_desc.get(idx, ()):
                if parent >= 0 and nearest[anc][parent] >= 0:
                    self.nested[key] += 1 if key[2] == "calls" else elems

    def metrics(self, passes: int) -> dict:
        """Metric name -> (value per pass, unit); ratios are per ancestor call."""
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (self.calls[i] / passes, "count")
            out[f"{name}.total_s"] = (self.total[i] / passes, "s")
            out[f"{name}.self_s"] = (self.self_time[i] / passes, "s")
            out[f"{name}.raised"] = (self.raised[i] / passes, "count")
            if name.startswith("specfun."):
                out[f"{name}.elems"] = (self.elems[i] / passes, "count")
        for mod, fns in LAYERS.items():
            own = sum(self.self_time[INDEX[f"{mod}.{fn}"]] for fn in fns)
            out[f"{mod}.self_s"] = (own / passes, "s")
        for key, metric in NESTED.items():
            anc = INDEX[key[0]]
            base = self.elems[anc] if metric.endswith("_per_row") else self.calls[anc]
            out[metric] = (self.nested[key] / base if base else 0.0, "ratio")
        mc = INDEX["oracles.fn_montecarlo"]
        out["oracles.fn_montecarlo.refusal_frac"] = (
            self.raised[mc] / self.calls[mc] if self.calls[mc] else 0.0, "ratio",
        )
        return out
