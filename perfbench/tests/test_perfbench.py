"""Tests for the benchmark's own logic.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def nested_spans():
    # harness.run_case [0, 10]
    #   core.elliptic_gamma [1, 5]
    #     core.theta [2, 3]
    #     core.theta [3.5, 4]
    #   quadrature.integrate_torus [6, 9]
    return [
        Span(1, 0, "core.theta", 2.0, 3.0, attrs={"points": 1, "scalar": True}),
        Span(2, 0, "core.theta", 3.5, 4.0, attrs={"points": 8, "scalar": False}),
        Span(0, 10, "core.elliptic_gamma", 1.0, 5.0, attrs={"points": 8, "scalar": False}),
        Span(3, 10, "quadrature.integrate_torus", 6.0, 9.0, attrs={"points": 64}),
        Span(10, None, "harness.run_case", 0.0, 10.0, attrs={"cpu": 7.5}),
    ]


def test_self_time_subtracts_direct_children_only():
    selfs = spans.self_times(nested_spans())
    assert selfs == {1: 1.0, 2: 0.5, 0: 2.5, 3: 3.0, 10: 3.0}
    assert sum(selfs.values()) == pytest.approx(10.0)  # the root's duration


def test_layer_metrics_on_nested_spans():
    out = spans.layer_metrics(nested_spans())
    assert out["core.theta.self_s"] == pytest.approx(1.5)
    assert out["core.theta.scalar_calls"] == 1
    assert out["core.theta.array_calls"] == 1
    assert out["core.theta.points"] == 9
    assert out["core.elliptic_gamma.self_s"] == pytest.approx(2.5)
    assert out["layer.core.self_s"] == pytest.approx(4.0)
    assert out["layer.quadrature.self_s"] == pytest.approx(3.0)
    assert out["layer.harness.self_s"] == pytest.approx(3.0)
    assert out["harness.run_case.wait_s"] == pytest.approx(2.5)
    assert out["quadrature.integrate_torus.computed_mb"] == pytest.approx(64 * 16 / 1e6)
    assert set(out) == set(spans.LAYER_METRICS)


def test_layer_metrics_ratios_and_per_pass_sums():
    def table(sid, parent, lam_size):
        return Span(sid, parent, "binomials.solve_binomial_table", 0, 1, attrs={
            "lam": lam_size, "resamples": 1, "condition": 5.0, "residual": 1e-12,
        })

    trace = [
        Span(1, None, "binomials.table_cache", 0, 2),
        table(2, 1, 2),
        Span(3, None, "binomials.table_cache", 2, 3),  # a hit: nothing solved
        table(4, None, 0),
        Span(5, None, "quadrature.integrate_adaptive", 0, 4, attrs={"budget_exhausted": False}),
        Span(6, 5, "quadrature.integrate_torus", 0, 1, attrs={"points": 100}),
        Span(7, 5, "quadrature.integrate_torus", 1, 3, attrs={"points": 200}),
    ]
    out = spans.layer_metrics(trace, passes=2)
    assert out["binomials.table_cache.hit_ratio"] == 0.5
    assert out["quadrature.integrate_adaptive.useful_point_ratio"] == pytest.approx(200 / 300)
    assert out["binomials.solve_binomial_table.lam2.calls"] == 0.5
    assert out["binomials.solve_binomial_table.lam1.calls"] == 0.5  # |lam| = 0 shares lam1
    assert out["binomials.solve_binomial_table.resamples"] == 1.0
    assert out["binomials.solve_binomial_table.max_condition"] == 5.0
    assert out["quadrature.integrate_torus.levels"] == 1.0


# ---------------------------------------------------------------------------
# Percentile rule and accuracy summaries
# ---------------------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.p90(range(1, 100)) is None  # 99 samples: 9 beyond rank 90
    assert metrics.p90(range(1, 101)) == 90.0  # 100 samples: 10 beyond
    assert metrics.p90(list(range(112, 0, -1))) == 101.0  # nearest rank, any order
    assert metrics.p90([]) is None


def hand_made_reports():
    rep = lambda cid, status, rel, tol: SimpleNamespace(id=cid, status=status, rel_err=rel, tol=tol)  # noqa: E731
    return [
        rep("beta_k1-s0", "pass", 1e-12, 1e-9),
        rep("selberg_A1-k2-s0", "pass", 5e-7, 1e-6),
        rep("vdBult-s5", "infeasible", math.inf, 1.0),
        rep("kernel_decomp-s1", "fail", 1e-3, 1e-9),
        rep("an_aflt-n2-s3", "budget", 2e-4, 1e-6),
        # algebraic suite: tol 1.0 and rel_err already the worst residual/tol
        rep("algebraic-s0", "pass", 0.25, 1.0),
    ]


def test_failed_frac_counts_every_status_but_pass():
    outcomes = [workloads._report_outcome(r) for r in hand_made_reports()]
    assert metrics.failed_frac(outcomes) == pytest.approx(3 / 6)
    with pytest.raises(ValueError):
        metrics.failed_frac([])


def test_worst_tol_ratio_over_passing_cases_only():
    outcomes = [workloads._report_outcome(r) for r in hand_made_reports()]
    assert metrics.worst_tol_ratio(outcomes) == pytest.approx(0.5)
    assert metrics.worst_tol_ratio([("x", "fail", 3.0)]) == 0.0
    assert metrics.tol_margin_digits(0.5) == pytest.approx(math.log10(2))
    assert metrics.tol_margin_digits(0.0) == 16.0
    with pytest.raises(ValueError):
        metrics.tol_margin_digits(2.0)


def test_status_problems_flags_mismatch_missing_and_extra():
    result = workloads.PassResult(
        wall_s=1.0,
        outcomes=[("a", "pass", 0.1), ("b", "fail", 2.0), ("c", "pass", 0.1), ("d", "exception", math.inf)],
        errors=["d-s0: ArithmeticError: boom"],
    )
    expected = {"a": "pass", "b": "pass", "d": "pass", "e": "infeasible"}
    failed, problems = workloads.status_problems(result, expected)
    assert failed == 3  # b (status), c (not expected), d (raised)
    assert "b: expected pass, got fail" in problems
    assert "c: expected None, got pass" in problems
    assert "e: missing" in problems
    assert "d-s0: ArithmeticError: boom" in problems


def test_normalized_reports_drop_runtime_only():
    a = json.dumps([{"id": "x", "runtime_ms": 3, "lhs": [1.0, 0.0]}])
    b = json.dumps([{"id": "x", "runtime_ms": 7, "lhs": [1.0, 0.0]}])
    c = json.dumps([{"id": "x", "runtime_ms": 7, "lhs": [1.0, 1e-17]}])
    assert workloads.normalized_reports(a) == workloads.normalized_reports(b)
    assert workloads.normalized_reports(a) != workloads.normalized_reports(c)


# ---------------------------------------------------------------------------
# Wrapper coverage on the real package
# ---------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    import ellsel.cli  # noqa: F401  -- load every module the benchmark traces
    from ellsel import core, harness, symbols
    from ellsel.core import NomePair
    from ellsel.partitions import Bipartition
    from ellsel.quadrature import TorusFactorizedIntegrand

    original_theta, original_values = core.theta, TorusFactorizedIntegrand.values
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.find_originals(tracer.originals) == []
        assert symbols.theta is core.theta is harness.theta is not original_theta
        ctx = symbols.SymbolContext(NomePair(0.2, 0.15), 0.3)
        symbols.delta0_bi(Bipartition.of((1,), ()), 0.5, [0.7], ctx)
    finally:
        tracer.uninstall()
    assert core.theta is symbols.theta is harness.theta is original_theta
    assert TorusFactorizedIntegrand.values is original_values
    assert spans.find_originals(tracer.wrappers) == []

    recorded = tracer.spans()
    outer = [s for s in recorded if s.name == "symbols.delta0_bi"]
    inner = [s for s in recorded if s.name == "core.theta"]
    assert len(outer) == 1 and inner, "theta calls made from symbols must be traced"
    assert all(s.parent == outer[0].sid for s in inner)


def test_find_originals_sees_aliases_defaults_and_containers():
    import ellsel.core as core

    mod = type(sys)("ellsel._probe")
    mod.alias = core.theta
    mod.registry = {"theta": core.theta}
    mod.uses_default = lambda z, fn=core.theta: fn(z, 0.1)
    sys.modules[mod.__name__] = mod
    try:
        found = spans.find_originals([core.theta])
    finally:
        del sys.modules[mod.__name__]
    assert "ellsel._probe.alias" in found
    assert "ellsel._probe.registry['theta']" in found
    assert "ellsel._probe.uses_default.__defaults__[0]" in found


# ---------------------------------------------------------------------------
# Contract between run.py and BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_names_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced_extras = ("trace.overhead_ratio", "harness.case_ms_p90", "harness.case_samples")
    assert set(per_layer) == set(spans.LAYER_METRICS) | set(traced_extras)
    assert all(per_layer[name] == run.unit_of(name) for name in per_layer)


def test_child_env_drops_ellsel_threads(monkeypatch):
    monkeypatch.setenv("ELLSEL_THREADS", "4")
    env = run.child_env()
    assert "ELLSEL_THREADS" not in env
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == os.path.join(ROOT, "src")
