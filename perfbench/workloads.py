"""The benchmark's workloads: fixed case lists and one timed pass each.

Every pass goes through the public entry points the ``ellsel`` CLI uses
(``sample_case``, ``run_case``, ``run_suite``, ``IntegrandDescriptor.build``,
``convergence_table``, ``reports_to_json``), looked up on their modules at
call time so that an installed tracer sees them.  ``ellsel`` is imported
inside the functions: run.py reads this module without importing the
program.

The case lists are the CLI's own ``verify`` lists for harness seeds
0..N-1, whatever the benchmark seed: statuses and residuals are functions
of the draws, and across seed windows the worst residual/tol of the
algebraic suite spans 40x and the count of infeasible draws changes, so
a list that moved with the benchmark seed could not give steady figures.
The benchmark seed orders the cases within each serial pass instead.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field

ALGEBRAIC_SEEDS = 3  # a multiple of 3: algebraic_checks picks lam by seed % 3
INTEGRAL_SEEDS = 7  # 7 seeds x 16 cases = 112 cases, so a p90 has 11 samples beyond it
INTEGRAL_SUITES = ("integrals-1d", "integrals-2d", "kernel", "an", "xselberg")
CONVERGENCE_FAMILIES = ("selberg_A1", "an_selberg")
CONVERGENCE_SEED = 0
CONVERGENCE_LEVELS = 8  # 16^2 .. 2048^2 from the default 128^2 grid

# Why each workload exists, and the per-layer metrics it is predicted to
# move (+) or leave flat (=).  BENCHMARK.json carries a one-line form.
#
# algebraic       scalar special functions, Delta0 symbols and Jackson
#                 least-squares table solves, with zero quadrature.
#                 + core.theta scalar path, symbols.delta0_bi,
#                   binomials.solve_binomial_table.*, interpolation.*
#                 = quadrature.* (0), kernel.* (0)
# integrals       the mixed path: vector theta/gamma on 128-256-point
#                 circles, small tables inside interpolation factors,
#                 kernels, 1-D and 2-D adaptive quadrature; includes the
#                 deterministic infeasible vdBult draw vdBult-s5.
#                 + core.theta array path, kernel.*, densities.*,
#                   interpolation.* (tail: key_theorem, prop_RK, an_aflt),
#                   quadrature.values.d1/d2
# integrals-pool  the same cases through run_suite's case pool, the only
#                 user of the pool.
#                 + harness.run_case.wait_s (GIL waiting)
# convergence     2-D tables up to 2048^2: integrand tensors and their
#                 reductions are the largest layer, and memory shows.
#                 + quadrature.values.d2, quadrature.integrate_torus.*,
#                   peak_rss_mb; core.* moves it less than elsewhere:
#                   special functions run on O(N) circle points only,
#                   yet that is still about a third of its self time
#                 = symbols.*, binomials.*, interpolation.* (unused)
WORKLOADS = ("algebraic", "integrals", "integrals-pool", "convergence")


def case_list(workload: str) -> list[tuple[str, int, dict]]:
    """(family, harness seed, sampler options), in run_suite's order."""
    if workload == "algebraic":
        return [("algebraic_suite", seed, {}) for seed in range(ALGEBRAIC_SEEDS)]
    if workload in ("integrals", "integrals-pool"):
        from ellsel.harness import SUITES

        return [
            (family, seed, options)
            for suite in INTEGRAL_SUITES
            for family, options in SUITES[suite]
            for seed in range(INTEGRAL_SEEDS)
        ]
    if workload == "convergence":
        return [(family, CONVERGENCE_SEED, {}) for family in CONVERGENCE_FAMILIES]
    raise KeyError(f"unknown workload {workload!r}")


@dataclass
class PassResult:
    """One pass over a workload's case list."""

    wall_s: float
    latencies_ms: list[float] = field(default_factory=list)
    # (case id, status, tol ratio); ratio is rel_err/tol, or residual/tol
    outcomes: list[tuple[str, str, float]] = field(default_factory=list)
    output: str = ""  # reports (or convergence rows) without runtime_ms
    errors: list[str] = field(default_factory=list)


def normalized_reports(text: str) -> str:
    """Report JSON with every ``runtime_ms`` dropped, for comparisons."""
    reports = json.loads(text)
    for rep in reports:
        rep.pop("runtime_ms", None)
    return json.dumps(reports, sort_keys=True)


def _report_outcome(rep) -> tuple[str, str, float]:
    return rep.id, rep.status, rep.rel_err / rep.tol if rep.tol else rep.rel_err


def serial_pass(workload: str, order: list[int]) -> PassResult:
    """Sample and run each case in ``order``, timing each from sample to
    report, then emit the sorted reports as the CLI does."""
    from ellsel import harness as h

    cases = case_list(workload)
    reports, latencies, errors, failures = [], [], [], []
    start = time.perf_counter()
    for idx in order:
        family, seed, options = cases[idx]
        t0 = time.perf_counter()
        try:
            reports.append(h.run_case(h.sample_case(family, seed, **options)))
        except Exception as exc:  # a case that raises is counted, not fatal
            errors.append(f"{family}-s{seed}: {type(exc).__name__}: {exc}")
            failures.append((f"{family}-s{seed}", "exception", math.inf))
            continue
        latencies.append((time.perf_counter() - t0) * 1000.0)
    reports.sort(key=lambda rep: rep.id)
    text = h.reports_to_json(reports)
    wall = time.perf_counter() - start
    outcomes = [_report_outcome(r) for r in reports] + failures
    return PassResult(wall, latencies, outcomes, normalized_reports(text), errors)


def pool_pass(threads: int) -> PassResult:
    """The integral suites through run_suite's case pool."""
    from ellsel import harness as h

    cfg = h.HarnessConfig(threads=threads)
    reports, errors, failures = [], [], []
    start = time.perf_counter()
    for suite in INTEGRAL_SUITES:
        try:
            reports.extend(h.run_suite(suite, INTEGRAL_SEEDS, cfg))
        except Exception as exc:
            errors.append(f"{suite}: {type(exc).__name__}: {exc}")
            failures.append((suite, "exception", math.inf))
    reports.sort(key=lambda rep: rep.id)
    text = h.reports_to_json(reports)
    wall = time.perf_counter() - start
    outcomes = [_report_outcome(r) for r in reports] + failures
    return PassResult(wall, [], outcomes, normalized_reports(text), errors)


def _closed_form(family: str, params):
    from ellsel import densities

    if family == "selberg_A1":
        return densities.selberg_average_normalizer(params.k[0], params.ts, params.t, params.nomes)
    return densities.an_selberg_rhs(params)


def convergence_pass(order: list[int]) -> PassResult:
    """What ``ellsel convergence --family F --seed 0 --levels 8`` computes,
    with the finest level checked against the closed form."""
    from ellsel import densities, quadrature
    from ellsel import harness as h

    cases = case_list("convergence")
    rows_by_id, latencies, outcomes, errors = {}, [], [], []
    start = time.perf_counter()
    for idx in order:
        family, seed, _ = cases[idx]
        case_id = f"convergence-{family}-s{seed}"
        t0 = time.perf_counter()
        try:
            case = h.sample_case(family, seed)
            integrand = densities.IntegrandDescriptor(case.paramset).build()
            first = quadrature.GridSpec(tuple(max(8, n // 8) for n in case.grid.dims))
            rows = quadrature.convergence_table(integrand, first, levels=CONVERGENCE_LEVELS)
            rhs = _closed_form(family, case.paramset)
        except Exception as exc:
            errors.append(f"{case_id}: {type(exc).__name__}: {exc}")
            outcomes.append((case_id, "exception", math.inf))
            continue
        latencies.append((time.perf_counter() - t0) * 1000.0)
        finest = complex(rows[-1]["value_re"], rows[-1]["value_im"])
        ratio = abs(finest - rhs) / max(abs(rhs), 1e-300) / case.tol
        complete = len(rows) == CONVERGENCE_LEVELS
        outcomes.append((case_id, "pass" if complete and ratio <= 1.0 else "fail", ratio))
        rows_by_id[case_id] = [
            {key: val for key, val in row.items() if key != "runtime_ms"} for row in rows
        ]
    wall = time.perf_counter() - start
    outcomes.sort()
    return PassResult(wall, latencies, outcomes, json.dumps(rows_by_id, sort_keys=True), errors)


def run_pass(workload: str, rng: random.Random, threads: int) -> PassResult:
    """One pass of ``workload``; serial passes run their cases in an order
    drawn from ``rng``."""
    if workload == "integrals-pool":
        return pool_pass(threads)
    order = list(range(len(case_list(workload))))
    rng.shuffle(order)
    if workload == "convergence":
        return convergence_pass(order)
    return serial_pass(workload, order)


def status_problems(result: PassResult, expected: dict[str, str]) -> tuple[int, list[str]]:
    """(failed cases, problems) of one pass against the expected status
    list: a case fails when it raised or its status differs; a case
    missing from, or added to, the list is a problem too."""
    problems = list(result.errors)
    failed = 0
    for case_id, status, _ in result.outcomes:
        if expected.get(case_id) != status:
            failed += 1
            if status != "exception":
                problems.append(f"{case_id}: expected {expected.get(case_id)}, got {status}")
    seen = {case_id for case_id, _, _ in result.outcomes}
    problems += [f"{case_id}: missing" for case_id in sorted(set(expected) - seen)]
    return failed, problems
