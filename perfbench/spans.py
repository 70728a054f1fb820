"""In-memory span tracer that wraps ellsel's public functions from outside.

The program itself carries no tracing.  ``Tracer.install`` replaces each
listed function and method with a wrapper that records a span (id,
parent id, name, start, end, request id and a few counts), and rebinds
every ``ellsel.*`` module global that still refers to the original --
modules bind names with ``from ... import``, so patching only the
defining module would miss, say, the ``theta`` calls made from
``symbols``.  ``find_originals`` proves that no binding was missed and
``Tracer.uninstall`` restores every original.

Spans stay in per-thread lists until the traced pass ends; self time is
derived afterwards by ``self_times``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = (
    "core",
    "symbols",
    "binomials",
    "interpolation",
    "kernel",
    "densities",
    "quadrature",
    "harness",
    "cli",
)


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    request: str | None = None
    attrs: dict | None = None


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Children never outlive their parent on one thread's call stack, so
    the covered part is the plain sum of the children's durations."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.sid: (span.end - span.start) - covered[span.sid] for span in spans}


# ---------------------------------------------------------------------------
# Span attributes computed at the boundary
# ---------------------------------------------------------------------------


def _points(z) -> tuple[int, bool]:
    if isinstance(z, (complex, float, int, np.number)):
        return 1, True
    return int(np.size(z)), np.ndim(z) == 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _special_fn_attrs(args, kwargs, _result):
    points, scalar = _points(_arg(args, kwargs, 0, "z"))
    return {"points": points, "scalar": scalar}


def _table_attrs(args, kwargs, result):
    attrs = {"lam": _arg(args, kwargs, 0, "lam").size}
    if result is not None:
        attrs.update(
            resamples=result.resamples, condition=result.condition, residual=result.residual
        )
    return attrs


def _values_attrs(args, kwargs, _result):
    integrand, n = args[0], _arg(args, kwargs, 1, "n")
    return {"d": integrand.nvars, "points": n**integrand.nvars}


def _torus_attrs(args, kwargs, _result):
    return {"points": math.prod(_arg(args, kwargs, 1, "grid").dims)}


def _adaptive_attrs(_args, _kwargs, result):
    if result is None:
        return None
    return {"evals": result.evals, "budget_exhausted": result.budget_exhausted}


def _sample_request(args, kwargs):
    return f"{_arg(args, kwargs, 0, 'family')}-s{_arg(args, kwargs, 1, 'seed')}"


def _run_request(args, kwargs):
    return _arg(args, kwargs, 0, "case").id


# (module, qualified attribute, span name, attribute fn, request fn, cpu time)
TARGETS = (
    ("ellsel.core", "theta", "core.theta", _special_fn_attrs, None, False),
    ("ellsel.core", "elliptic_gamma", "core.elliptic_gamma", _special_fn_attrs, None, False),
    ("ellsel.core", "elliptic_gamma_multi", "core.elliptic_gamma_multi", None, None, False),
    ("ellsel.symbols", "delta0_bi", "symbols.delta0_bi", None, None, False),
    ("ellsel.symbols", "c0_bi", "symbols.c_bi", None, None, False),
    ("ellsel.symbols", "cplus_bi", "symbols.c_bi", None, None, False),
    ("ellsel.symbols", "cminus_bi", "symbols.c_bi", None, None, False),
    ("ellsel.symbols", "gamma_delta_bridge", "symbols.gamma_delta_bridge", None, None, False),
    ("ellsel.binomials", "solve_binomial_table", "binomials.solve_binomial_table", _table_attrs, None, False),
    ("ellsel.binomials", "TableCache.get", "binomials.table_cache", None, None, False),
    ("ellsel.binomials", "jackson_check", "binomials.jackson_check", None, None, False),
    ("ellsel.interpolation", "interp_nonskew", "interpolation.interp_nonskew", None, None, False),
    ("ellsel.interpolation", "interp_skew", "interpolation.interp_skew", None, None, False),
    ("ellsel.interpolation", "interp_hybrid", "interpolation.interp_hybrid", None, None, False),
    ("ellsel.interpolation", "branching_residual", "interpolation.branching", None, None, False),
    ("ellsel.interpolation", "hybrid_branching_residual", "interpolation.branching", None, None, False),
    ("ellsel.kernel", "kernel_k1", "kernel.kernel_k1", None, None, False),
    ("ellsel.kernel", "kernel_k2", "kernel.kernel_k2", None, None, False),
    ("ellsel.densities", "IntegrandDescriptor.build", "densities.build", None, None, False),
    ("ellsel.densities", "feasibility_check", "densities.feasibility_check", None, None, False),
    ("ellsel.densities", "selberg_average_normalizer", "densities.rhs", None, None, False),
    ("ellsel.densities", "an_selberg_rhs", "densities.rhs", None, None, False),
    ("ellsel.quadrature", "TorusFactorizedIntegrand.values", "quadrature.values", _values_attrs, None, False),
    ("ellsel.quadrature", "integrate_torus", "quadrature.integrate_torus", _torus_attrs, None, False),
    ("ellsel.quadrature", "integrate_adaptive", "quadrature.integrate_adaptive", _adaptive_attrs, None, False),
    ("ellsel.harness", "sample_case", "harness.sample_case", None, _sample_request, False),
    ("ellsel.harness", "run_case", "harness.run_case", None, _run_request, True),
    ("ellsel.harness", "reports_to_json", "cli.reports_to_json", None, None, False),
)


def _ellsel_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "ellsel" or name.startswith("ellsel."))
    ]


def _bindings(mod):
    """Every place in one module that can hold a function: module
    globals, one level into module-level containers, class dicts of the
    module's own classes, and function defaults."""
    for key, val in list(vars(mod).items()):
        if key == "__builtins__":
            continue
        yield f"{mod.__name__}.{key}", val
        if isinstance(val, dict):
            for inner_key, inner in val.items():
                yield f"{mod.__name__}.{key}[{inner_key!r}]", inner
        elif isinstance(val, (list, tuple)):
            for idx, inner in enumerate(val):
                yield f"{mod.__name__}.{key}[{idx}]", inner
        elif isinstance(val, type) and val.__module__ == mod.__name__:
            for attr, inner in vars(val).items():
                yield f"{mod.__name__}.{key}.{attr}", inner
        if callable(val):
            for idx, default in enumerate(getattr(val, "__defaults__", None) or ()):
                yield f"{mod.__name__}.{key}.__defaults__[{idx}]", default
            for kw, default in (getattr(val, "__kwdefaults__", None) or {}).items():
                yield f"{mod.__name__}.{key}.__kwdefaults__[{kw!r}]", default


def find_originals(objects) -> list[str]:
    """Names of every binding in a loaded ``ellsel`` module that holds one
    of ``objects`` (compared by identity)."""
    ids = {id(obj) for obj in objects}
    return [
        where for mod in _ellsel_modules() for where, val in _bindings(mod) if id(val) in ids
    ]


class Tracer:
    """Records spans around the functions in ``TARGETS`` while installed."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list[list[Span]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: list[object] = []
        self.wrappers: list[object] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
            local.spans = []
            with self._lock:
                self._thread_spans.append(local.spans)
        return local

    def _wrap(self, fn, name, attrs_fn, request_fn, cpu):
        ids, state = self._ids, self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            parent = stack[-1] if stack else None
            sid = next(ids)
            previous_request = local.request
            if request_fn is not None:
                local.request = request_fn(args, kwargs)
            stack.append(sid)
            result = None
            cpu0 = time.thread_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
                if cpu:
                    attrs = {**(attrs or {}), "cpu": time.thread_time() - cpu0}
                stack.pop()
                local.spans.append(Span(sid, parent, name, start, end, local.request, attrs))
                local.request = previous_request

        return traced

    def spans(self) -> list[Span]:
        with self._lock:
            return [span for spans in self._thread_spans for span in spans]

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for module_name, qualname, name, attrs_fn, request_fn, cpu in TARGETS:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, attrs_fn, request_fn, cpu)
            replacement[id(original)] = wrapper
            self.originals.append(original)
            self.wrappers.append(wrapper)
            if path:  # a method: the class attribute is its only binding
                self._patch(owner, attr, original, wrapper)
        for mod in _ellsel_modules():
            for key, val in list(vars(mod).items()):
                if id(val) in replacement:
                    self._patch(mod, key, val, replacement[id(val)])
        missed = find_originals(self.originals)
        if missed:
            self.uninstall()
            raise RuntimeError("unwrapped originals after patching: " + ", ".join(missed))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        left = find_originals(self.wrappers)
        if left:
            raise RuntimeError("wrappers left after restoring: " + ", ".join(left))
        self.originals.clear()
        self.wrappers.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _lam_bucket(size: int) -> str:
    """|lam| <= 1 tables share a bucket (|lam| = 0 is the trivial table),
    and |lam| >= 3 another."""
    return f"lam{min(max(size, 1), 3)}"


_CALLED = (
    "core.elliptic_gamma",
    "core.elliptic_gamma_multi",
    "symbols.delta0_bi",
    "symbols.c_bi",
    *(f"binomials.solve_binomial_table.lam{k}" for k in (1, 2, 3)),
    "interpolation.interp_nonskew",
    "interpolation.interp_skew",
    "interpolation.interp_hybrid",
    "interpolation.branching",
    "kernel.kernel_k1",
    "kernel.kernel_k2",
    "densities.build",
    "densities.feasibility_check",
    *(f"quadrature.values.d{d}" for d in (1, 2, 3)),
    "quadrature.integrate_adaptive",
    "harness.sample_case",
)
_TIMED = (
    "core.theta",
    "core.elliptic_gamma",
    "core.elliptic_gamma_multi",
    "symbols.delta0_bi",
    "symbols.c_bi",
    "symbols.gamma_delta_bridge",
    *(f"binomials.solve_binomial_table.lam{k}" for k in (1, 2, 3)),
    "binomials.jackson_check",
    "interpolation.interp_nonskew",
    "interpolation.interp_skew",
    "interpolation.interp_hybrid",
    "interpolation.branching",
    "kernel.kernel_k1",
    "kernel.kernel_k2",
    "densities.build",
    "densities.feasibility_check",
    "densities.rhs",
    *(f"quadrature.values.d{d}" for d in (1, 2, 3)),
    "quadrature.integrate_torus",
    "harness.sample_case",
    "harness.run_case",
    "cli.reports_to_json",
)
_SUMMED = (
    "core.theta.scalar_calls",
    "core.theta.array_calls",
    "core.theta.points",
    "core.elliptic_gamma.points",
    "binomials.solve_binomial_table.resamples",
    *(f"quadrature.values.d{d}.points" for d in (1, 2, 3)),
    "quadrature.integrate_torus.levels",
    "quadrature.integrate_torus.computed_mb",
    "quadrature.integrate_adaptive.budget_exhausted",
    "harness.run_case.wait_s",
)
_WHOLE_RUN = (
    "binomials.solve_binomial_table.max_condition",
    "binomials.solve_binomial_table.max_residual",
    "binomials.table_cache.hit_ratio",
    "quadrature.integrate_adaptive.useful_point_ratio",
)
# Every name layer_metrics reports, in a fixed order.
LAYER_METRICS = (
    *(f"{name}.calls" for name in _CALLED),
    *(f"{name}.self_s" for name in _TIMED),
    *_SUMMED,
    *_WHOLE_RUN,
    *(f"layer.{layer}.self_s" for layer in LAYERS),
)


def layer_metrics(spans, passes: int = 1) -> dict[str, float]:
    """Per-layer figures from the spans of ``passes`` identical traced
    passes.  Sums are reported per pass; maxima and ratios over the whole
    set.  Every name in ``LAYER_METRICS`` is present, 0 when unused."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    max_condition = max_residual = 0.0
    levels_of: dict[int, list[tuple[int, int]]] = defaultdict(list)
    solved_under: set[int] = set()
    cache_gets = []
    adaptive = []

    for span in spans:
        attrs = span.attrs or {}
        key = span.name
        if key == "core.theta":
            total[f"core.theta.{'scalar' if attrs['scalar'] else 'array'}_calls"] += 1
            total["core.theta.points"] += attrs["points"]
        elif key == "core.elliptic_gamma":
            total["core.elliptic_gamma.points"] += attrs["points"]
        elif key == "binomials.solve_binomial_table":
            key = f"{key}.{_lam_bucket(attrs['lam'])}"
            total["binomials.solve_binomial_table.resamples"] += attrs.get("resamples", 0)
            max_condition = max(max_condition, attrs.get("condition", 0.0))
            max_residual = max(max_residual, attrs.get("residual", 0.0))
            solved_under.add(span.parent)
        elif key == "binomials.table_cache":
            cache_gets.append(span.sid)
        elif key == "quadrature.values":
            key = f"{key}.d{min(attrs['d'], 3)}"
            total[f"{key}.points"] += attrs["points"]
        elif key == "quadrature.integrate_torus":
            total["quadrature.integrate_torus.levels"] += 1
            # computed from the array size, not measured: one complex128
            # tensor per level
            total["quadrature.integrate_torus.computed_mb"] += attrs["points"] * 16 / 1e6
            levels_of[span.parent].append((span.sid, attrs["points"]))
        elif key == "quadrature.integrate_adaptive":
            adaptive.append(span.sid)
            total["quadrature.integrate_adaptive.budget_exhausted"] += bool(
                attrs.get("budget_exhausted")
            )
        elif key == "harness.run_case":
            total["harness.run_case.wait_s"] += (span.end - span.start) - attrs["cpu"]
        total[f"{key}.calls"] += 1
        total[f"{key}.self_s"] += selfs[span.sid]
        total[f"layer.{key.split('.')[0]}.self_s"] += selfs[span.sid]

    useful = evaluated = 0
    for sid in adaptive:
        levels = sorted(levels_of.get(sid, ()))
        if levels:
            useful += levels[-1][1]  # the accepted (last) level
            evaluated += sum(points for _, points in levels)
    hits = sum(1 for sid in cache_gets if sid not in solved_under)

    metrics = {name: total[name] / passes for name in LAYER_METRICS}
    metrics.update(
        {
            "binomials.solve_binomial_table.max_condition": max_condition,
            "binomials.solve_binomial_table.max_residual": max_residual,
            "binomials.table_cache.hit_ratio": hits / len(cache_gets) if cache_gets else 0.0,
            "quadrature.integrate_adaptive.useful_point_ratio": (
                useful / evaluated if evaluated else 0.0
            ),
        }
    )
    return metrics
