"""Identity registry, parameter samplers, case execution and report
emission.

Each family is one record in FAMILY_TABLE: a seeded sampler and an
evaluator giving the integrand and the closed-form side from
gamma/Delta0 products.  Every family that integrates a density samples
through _sample_on_plan: a draw from the log-modulus polytope of its
plan (ellsel.polytope), whose sets are Selberg densities on the unit
torus or a residue-corrected contour, a kernel Gamma(c x^+- z^+-)
entering a set as c x and c / x; an empty polytope makes the case
infeasible.  The plan declares each interpolation factor R*_mu once, as
an InterpFactor: the polytope bounds its poles and the evaluator's
integrands carry it.  A case holds its draw once, and both sides of its
identity read it.  A parameter point reaches a case by one gate,
_at_draw, which checks the draw's sets and pole towers and picks the
contour: the sampler's draw, a --params file's set and an assigned
paramset alike.  run_case alone does the adaptive quadrature and
decides the status.  Reports carry both the identity residual and the
quadrature doubling estimate so formula errors and quadrature noise
remain distinguishable.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from ellsel.binomials import TableCache, binomial, binomial_row, jackson_check
from ellsel.core import NomePair, elliptic_gamma, elliptic_gamma_multi, theta
from ellsel.densities import (
    INWARD_CAP,
    Contour,
    IntegrandDescriptor,
    InfeasibleError,
    ParamSet,
    an_selberg_gamma_args,
    an_selberg_rhs,
    contour_feasibility,
    margin_violations,
    selberg_average_normalizer,
)
from ellsel.interpolation import (
    InterpFactor,
    branching_residual,
    hybrid_branching_residual,
    interp_hybrid,
    interp_nonskew,
    interp_skew,
)
from ellsel.kernel import ContourError, kernel_k1, kernel_k2
from ellsel.partitions import (
    ZERO,
    Bipartition,
    bipartition_strip,
    spectral_vector,
    sub_bipartitions,
)
from ellsel.polytope import LOWEST, Draw, Plan, SelbergPolytope, selberg_plan, sqrt
from ellsel.quadrature import GridSpec, QuadResult, integrate_adaptive
from ellsel.symbols import SymbolContext, delta0_bi, gamma_delta_bridge


@dataclass
class IdentityCase:
    """One identity at one parameter point, its draw: the closed form
    reads its values, the integrands its sets and factors; None for
    algebraic_suite and before any draw.  A density family's draw is one
    set, paramset, with its shapes' factors; setting paramset rebuilds the
    whole draw, so both sides move, and reruns the checks --params runs.
    variant picks one of a family's identities, infeasible says why the
    case cannot run, and inner_grid is equal_k's right-side 1-d grid."""

    id: str
    family: str
    seed: int
    grid: GridSpec
    tol: float
    draw: Draw | None
    shapes: tuple[Bipartition, Bipartition] | None = None
    variant: str | None = None
    infeasible: str | None = None
    inner_grid: int | None = None
    contour: Contour = field(default_factory=Contour)  # density families only
    doublings: int = 0  # grid doublings the main integral's quadrature may take

    @property
    def paramset(self) -> ParamSet | None:
        """The draw's one set for a family with Family.at, else None."""
        if self.draw is None or FAMILY_TABLE[self.family].at is None:
            return None
        return self.draw.sets[0]

    @paramset.setter
    def paramset(self, params: ParamSet) -> None:
        """The family's case at params, keeping this case's id, grid and
        tol; a set of other sizes, which would change them, is refused."""
        at = FAMILY_TABLE[self.family].at
        if at is None:
            raise ValueError(f"family {self.family} draws no single parameter set")
        built = at(self.seed, HarnessConfig(), params, shapes=self.shapes)
        if built.id != self.id:
            raise ValueError(f"case {self.id} cannot take a set that makes case {built.id}")
        self.draw, self.contour, self.infeasible = built.draw, built.contour, built.infeasible


@dataclass
class Evaluation:
    """One family's side of a case.  run_case integrates `integrand` on
    the case's grid, dividing by `norm` when one is given; a family with
    no main integral passes its computed `lhs` instead, and may report
    its own `rel_err` and `grid` label."""

    rhs: complex
    integrand: object = None
    norm: complex | None = None
    lhs: complex = 0.0
    rel_err: float | None = None
    grid: str | None = None
    notes: str = ""


@dataclass(frozen=True, kw_only=True)
class VerificationReport:
    """One case's verdict, its schema declared once: the fields are the
    JSON keys in order, and CSV_COLUMNS follows from them.  n and k are
    the paramset's, or None; status is pass | fail | infeasible | budget."""

    id: str
    family: str
    n: int | None
    k: tuple[int, ...] | None
    params: dict
    shapes: str
    grid: str
    lhs: complex
    rhs: complex
    rel_err: float
    doubling_estimate: float
    status: str
    seed: int
    tol: float
    runtime_ms: int
    notes: str

    def to_json_dict(self) -> dict:
        """The fields in order, with k a list and params' values, lhs and
        rhs [re, im] pairs whatever their number type."""

        def pair(z):
            z = complex(z)
            return [z.real, z.imag]

        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["k"] = list(self.k) if self.k else None
        data["params"] = {key: pair(val) for key, val in self.params.items()}
        data["lhs"], data["rhs"] = pair(self.lhs), pair(self.rhs)
        return data


# The JSON keys without params, with lhs and rhs split in place.
CSV_COLUMNS = [
    col
    for f in fields(VerificationReport)
    if f.name != "params"
    for col in ([f"{f.name}_re", f"{f.name}_im"] if f.name in ("lhs", "rhs") else [f.name])
]


def report_csv_row(rep: VerificationReport) -> dict:
    """The JSON record with k space-separated and lhs, rhs split."""
    data = rep.to_json_dict()
    data["k"] = " ".join(str(v) for v in rep.k) if rep.k else ""
    for side in ("lhs", "rhs"):
        data[f"{side}_re"], data[f"{side}_im"] = data[side]
    return {col: data[col] for col in CSV_COLUMNS}


# ---------------------------------------------------------------------------
# Draw helpers
# ---------------------------------------------------------------------------


def _draw(rng, lo, hi) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.uniform())


def _unit(rng) -> complex:
    return cmath.exp(2j * math.pi * rng.uniform())


def _density_draw(family: str, params: ParamSet, shapes) -> Draw:
    """The draw of a density family's case at params: its values by name,
    params as its one set and, with shapes (lam, mu), the family's
    interpolation factors over those values."""
    values = _named(params)
    factors = [] if shapes is None else _aflt_factors(params.n, *shapes, family == "an_hua_kadell", values)
    return Draw(values, [params], factors, [])


def _at_draw(case: IdentityCase, draw: Draw, crossable: bool) -> IdentityCase:
    """case, before its draw, at draw: on the contour contour_feasibility
    picks for the first set, which must be the unit torus unless
    crossable.  Its infeasible note is the first that applies: the sets'
    violations, the residue terms it may not take, the case's own
    reason, the pole towers that keep no margin."""
    feas = [contour_feasibility(params) for params in draw.sets]
    contour, notes = feas[0].contour, [text for f in feas for text in f.violations]
    if contour.residues and not crossable:
        notes.append(
            f"{case.family} is evaluated on the unit torus only; these parameters "
            f"need the contour {contour.describe()}"
        )
    note = "; ".join(notes) or case.infeasible or "; ".join(margin_violations(draw.poles))
    return replace(case, draw=draw, contour=contour, infeasible=note or None)


def _sample_on_plan(case: IdentityCase, plan: Plan, rng, crossable: bool, empty_id: str) -> IdentityCase:
    """case, before its draw, at a draw of plan by _at_draw.  Every tower
    stays below rho = (tol / 10)^(1/N) on the case's N grid points per
    dimension, which keeps the trapezoid error ~ rho^N near tol / 10;
    below INWARD_CAP for a case infeasible by its own reason.  When
    crossable, an empty torus polytope gives way to the residue-corrected
    one; an empty polytope gives an infeasible case with id empty_id, or
    family-sSEED.  A draw that _at_draw rejects is a bug in the bounds,
    so it raises."""
    rho = INWARD_CAP if case.infeasible else min(INWARD_CAP, (case.tol / 10) ** (1 / case.grid.dims[0]))
    poly = SelbergPolytope(plan, rho, False)
    if poly.radius <= 0 and crossable:
        crossed = SelbergPolytope(plan, rho, True)
        poly = crossed if crossed.radius > 0 else poly
    if poly.radius <= 0:
        return _infeasible_case(case.family, case.seed, poly.why_empty(), empty_id, None)
    checked = _at_draw(case, poly.draw(rng), poly.crossed)
    if checked.infeasible != case.infeasible:
        raise AssertionError(f"polytope draw for {plan.name} rejected: {checked.infeasible}")
    return checked


def _set_integrand(case: IdentityCase, index: int, ctx: SymbolContext, cache: TableCache):
    """The integrand of the index-th set of the case's draw, times each of
    its factors on one of that set's levels, in order, on ctx and cache;
    the first set's on the case's contour."""
    unary = {}
    for factor in case.draw.factors:
        for where, level in factor.places:
            if where == index:
                unary.setdefault(level, []).append(partial(factor.value, ctx=ctx, cache=cache))
    descriptor = IntegrandDescriptor(case.draw.sets[index], extra_unary=unary)
    return descriptor.build_on(case.contour) if index == 0 else descriptor.build()


def _evaluation_parts(case: IdentityCase) -> tuple[dict, SymbolContext, TableCache, object]:
    """A case's values, their symbol context, the one table cache its
    factors and closed form share, and its first set's integrand."""
    pr = case.draw.values
    ctx = SymbolContext(NomePair(pr["p"], pr["q"]), pr["t"])
    cache = TableCache(seed=case.seed)
    return pr, ctx, cache, _set_integrand(case, 0, ctx, cache)


# ---------------------------------------------------------------------------
# Closed forms shared by several families
# ---------------------------------------------------------------------------


def aflt_rhs(params: ParamSet, lam: Bipartition, mu: Bipartition, ctx: SymbolContext) -> complex:
    """Right-hand side of the rank-n interpolation-function average with
    both a lam factor on the first node and a mu factor on the last."""
    n, t = params.n, params.t
    ts = params.ts
    k1, kn = params.k[0], params.k[-1]
    tau = ts[2 * n] * ts[2 * n + 1] * ts[2 * n + 2] / t**2
    a_l = t ** (k1 - 1) * ts[0] / ts[1]
    val = 1.0 + 0.0j
    for r in range(3, 2 * n + 1):
        val *= delta0_bi(lam, a_l, [t**k1 * ts[0] / ts[r - 1]], ctx)
    for r in range(2 * n + 1, 2 * n + 5):
        val *= delta0_bi(lam, a_l, [t ** (k1 - 1) * ts[0] * ts[r - 1]], ctx)
    a_m = t**kn * tau / ts[2 * n + 3]
    val = _mu_delta_tail(val, mu, a_m, tau, n, params.k, ts, ctx)
    spec = spectral_vector(lam, k1, t, params.p, params.q)
    val *= delta0_bi(mu, a_m, [t**kn * ts[0] * tau * s for s in spec], ctx)
    val /= delta0_bi(mu, a_m, [t ** (kn + 1) * ts[0] * tau * s for s in spec], ctx)
    return val


def xselberg_rhs(
    n: int,
    ks: tuple[int, ...],
    x,
    ts,
    d: complex,
    mu: Bipartition,
    ctx: SymbolContext,
    cval: complex,
) -> complex:
    """Closed form of the kernel-weighted rank-n integral; the history
    index k_0 enters only through d, which is passed explicitly."""
    t = ctx.t
    kn = ks[-1]
    tau = ts[2 * n] * ts[2 * n + 1] * ts[2 * n + 2] / t**2
    a_m = t**kn * tau / ts[2 * n + 3]
    val = 1.0 + 0.0j
    gargs = []
    for xi in x:
        val *= delta0_bi(
            mu,
            a_m,
            [t**kn * cval ** (n - 1) * d * tau * xi, t**kn * cval ** (n - 1) * d * tau / xi],
            ctx,
        )
        for r in range(3, 2 * n + 1):
            gargs += [cval ** (n - 1) * d * t * xi / ts[r - 1], cval ** (n - 1) * d * t / (xi * ts[r - 1])]
        for r in range(2 * n + 1, 2 * n + 5):
            gargs += [cval ** (n - 1) * d * ts[r - 1] * xi, cval ** (n - 1) * d * ts[r - 1] / xi]
    gargs += an_selberg_gamma_args(n, ks, ts, t, cval, 2)
    val *= elliptic_gamma_multi(gargs, ctx.nomes)
    return _mu_delta_tail(val, mu, a_m, tau, n, ks, ts, ctx)


def _mu_delta_tail(val, mu, a_m, tau, n, ks, ts, ctx: SymbolContext) -> complex:
    """val times the Delta0 factors of the last-node shape mu over
    t_(2n+2), t_(2n+3) and the level steps, shared by aflt_rhs and
    xselberg_rhs."""
    t, kn, kk = ctx.t, ks[-1], (0,) + tuple(ks)
    for r in range(2 * n + 2, 2 * n + 4):
        val *= delta0_bi(mu, a_m, [t ** (kn - 1) * ts[2 * n] * ts[r - 1]], ctx)
    for r in range(2, n + 1):
        val *= delta0_bi(mu, a_m, [t**kn * ts[2 * r - 2] * tau], ctx)
        val /= delta0_bi(mu, a_m, [t ** (kn + kk[r] - kk[r - 1]) * ts[2 * r - 2] * tau], ctx)
    return val


def _gamma_pm_list(a, z):
    return [a * z, a / z]


def _hybrid_mu(mu, tail, t, places) -> InterpFactor:
    """R*_mu(z; t4/t, t5/t; t tau, t6), tau = t3 t4 t5 / t^2, over tail = (t3,
    t4, t5, t6); a rank-n set passes its t_(2n+1)..t_(2n+4)."""
    tau = tail[0] * tail[1] * tail[2] / t**2
    return InterpFactor(mu, t * tau, tail[3], (tail[1] / t, tail[2] / t), places)


# ---------------------------------------------------------------------------
# Family: beta_k1 / selberg_A1
# ---------------------------------------------------------------------------


def _eval_density(case: IdentityCase, rhs: complex) -> Evaluation:
    """Density integral on the case's contour: the torus part plus its
    residue terms, each on the case's per-dimension grid."""
    notes = f"contour: {case.contour.describe()}" if case.contour.residues else ""
    return Evaluation(rhs, _evaluation_parts(case)[3], notes=notes)


def _eval_selberg(case: IdentityCase) -> Evaluation:
    params = case.paramset
    rhs = selberg_average_normalizer(params.k[0], params.ts, params.t, params.nomes)
    return _eval_density(case, rhs)


def _one_dim_case(case_id: str, family: str, seed: int, cfg, tol: float, **fields) -> IdentityCase:
    """A case with one variable on the 1-d grid, allowed two doublings,
    before its draw."""
    return IdentityCase(case_id, family, seed, GridSpec((cfg.grid_1d,)), tol, None, doublings=2, **fields)


def _density_case(family: str, seed: int, cfg, n: int, k: tuple[int, ...], shapes) -> IdentityCase:
    """A density family's case before its draw, with its own reason to be
    infeasible.  With shapes (lam, mu), an interpolation average: n
    variables on grid_1d or grid_2d_aflt, one on each level.  Else the
    bare density: sum(k) variables on grid_1d and tol_1d, and so on up
    to three, beyond which it is infeasible."""
    if shapes is not None:
        grid, tol = GridSpec(((cfg.grid_1d if n == 1 else cfg.grid_2d_aflt),) * n), 1e-8 if n == 1 else 1e-5
        reason = None if k == (1,) * n else (
            f"{family} puts each interpolation factor on a single variable; "
            f"it needs every k_r = 1, not k={k}"
        )
        case_id = f"{family}-n{n}-{shapes[0]}-{shapes[1]}-s{seed}"
        return IdentityCase(case_id, family, seed, grid, tol, None, shapes=shapes, infeasible=reason)
    ids = {"beta_k1": f"beta_k1-s{seed}", "selberg_A1": f"selberg_A1-k{k[0]}-s{seed}"}
    case_id = ids.get(family, f"an_selberg-n{n}k{''.join(str(v) for v in k)}-s{seed}")
    sizes = {1: (cfg.grid_1d, cfg.tol_1d), 2: (cfg.grid_2d, cfg.tol_2d), 3: (cfg.grid_3d, cfg.tol_3d)}
    if sum(k) not in sizes:
        return _infeasible_case(family, seed, f"total dimension {sum(k)} beyond suite caps", case_id, None)
    grid, tol = sizes[sum(k)]
    doublings = 2 if family == "beta_k1" else 0
    return IdentityCase(case_id, family, seed, GridSpec((grid,) * sum(k)), tol, None, doublings=doublings)


def _sample_density(family: str, seed: int, cfg, k, rng, shapes) -> IdentityCase:
    """The case of a family whose draw is one set with level sizes k,
    carrying the (lam, mu) interpolation factors of shapes when given;
    without them a set with k_1 = 1 may take the residue-corrected
    contour.  An interpolation average's empty polytope gives the id
    family-nN-sSEED."""
    n, k = len(k), tuple(k)
    hua = family == "an_hua_kadell"
    plan = selberg_plan(n, k, hua=hua, factors=shapes and partial(_aflt_factors, n, *shapes, hua))
    case = _density_case(family, seed, cfg, n, k, shapes)
    empty_id = case.id if shapes is None else f"{family}-n{n}-s{seed}"
    return _sample_on_plan(case, plan, rng, shapes is None and k[0] == 1, empty_id)


def _density_at(family: str, seed: int, cfg, params: ParamSet, shapes=None) -> IdentityCase:
    """The density family's case at params, built and checked as its
    sampler builds and checks a drawn set; ValueError for a set its
    identity does not cover."""
    n, k = params.n, params.k
    sizes = {"beta_k1": (k == (1,), "n=1, k=(1,)"), "selberg_A1": (n == 1, "n=1"), "an_selberg": (True, "")}
    covered, want = sizes.get(family, (n <= 2, "n=1 or n=2"))
    if not covered:
        raise ValueError(f"family {family} takes {want}; got n={n}, k={k}")
    hua_gap = abs(params.ts[2 * n + 1] * params.ts[2 * n + 2] - params.t)
    if family == "an_hua_kadell" and hua_gap > 1e-13 * abs(params.t):
        raise ValueError(f"family {family} takes t_(2n+2) t_(2n+3) = t")
    if FAMILY_TABLE[family].shapes_option:
        shapes = _aflt_shapes(family, n, seed, shapes)
    case = _density_case(family, seed, cfg, n, k, shapes)
    return _at_draw(case, _density_draw(family, params, shapes), shapes is None)


def _sample_beta_k1(seed: int, cfg) -> IdentityCase:
    return _sample_density("beta_k1", seed, cfg, (1,), np.random.default_rng([seed, 101]), None)


def _sample_selberg_A1(seed: int, cfg, k: int = 2) -> IdentityCase:
    return _sample_density("selberg_A1", seed, cfg, (k,), np.random.default_rng([seed, 102, k]), None)


# ---------------------------------------------------------------------------
# Kernel-weighted families: each draw is one or two Selberg density sets,
# a kernel Gamma(c x^+- z^+-) entering a set as c x and c / x.
# ---------------------------------------------------------------------------


def _box(value, name: str) -> list:
    """Draw.floors boxing a walked value outside every set."""
    return [(value, INWARD_CAP, f"|{name}| <= {INWARD_CAP}"), (1 / value, 1 / LOWEST, f"|{name}| >= {LOWEST}")]


def _sample_kernel_weighted(tag: int, case: IdentityCase, walked: str, phase_only: str, build) -> IdentityCase:
    """case with its draw, the one build derives from values drawn by the
    rng [seed, tag] on the polytope of the case's grid and tol: walked
    values, then phase-only ones.  An empty polytope gives an infeasible
    case with id family-sSEED."""
    plan = Plan(case.id, tuple(walked.split()), tuple(f"{walked} {phase_only}".split()), build)
    return _sample_on_plan(case, plan, np.random.default_rng([case.seed, tag]), False, "")


# ---------------------------------------------------------------------------
# Family: vdBult
# ---------------------------------------------------------------------------


KEY_SHAPES = [
    ZERO,
    Bipartition.of((1,), ()),
    Bipartition.of((), (1,)),
    Bipartition.of((2,), ()),
    Bipartition.of((), (2,)),
]
# (1|1) is torus-infeasible: the LP finds its cross and comp1 poles
# cannot both keep the margin (ledger §3), so it is diagnosed, not verified
VDBULT_SHAPES = KEY_SHAPES + [Bipartition.of((1,), (1,))]


def _sample_vdbult(seed: int, cfg, mu: Bipartition | None = None) -> IdentityCase:
    mu = mu if mu is not None else VDBULT_SHAPES[seed % len(VDBULT_SHAPES)]

    def build(v: dict) -> Draw:
        p, q, t, t1, t2, t3, x1 = map(v.get, "p q t t1 t2 t3 x1".split())
        t4, c = t / (t1 * t2 * t3), sqrt(p * q / t)
        sets = [(1, (1,), (t1, t2, t3, t4, c * x1, c / x1))]
        return Draw(v | {"t4": t4, "c": c}, sets, [InterpFactor(mu, t1, t2, None, ((0, 1),))], [])

    case = _one_dim_case(f"vdBult-{mu}-s{seed}", "vdBult", seed, cfg, 1e-8, shapes=(mu, ZERO))
    return _sample_kernel_weighted(103, case, "p q t t1 t2 t3", "x1", build)


def _eval_vdbult(case: IdentityCase) -> Evaluation:
    pr, ctx, cache, integrand = _evaluation_parts(case)
    t1, t2, t3, t4, c, x1 = pr["t1"], pr["t2"], pr["t3"], pr["t4"], pr["c"], pr["x1"]
    mu = case.shapes[0]
    rhs = interp_nonskew(mu, (x1,), c * t1, c * t2, ctx, cache)
    rhs *= delta0_bi(mu, t1 / t2, [t1 * t3, t1 * t4], ctx)
    # Gamma over t_r t_s (r < s) and c t_r x1^+-: the normalizer of the
    # six-parameter density without Gamma(t) Gamma(c^2) = 1
    tlist, gargs = (t1, t2, t3, t4), []
    for r, tr in enumerate(tlist):
        gargs += [tr * ts for ts in tlist[r + 1 :]] + [c * tr * x1, c * tr / x1]
    rhs *= elliptic_gamma_multi(gargs, ctx.nomes)
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Family: kernel_decomp (theorem and corollary variants at k = l = 1)
# ---------------------------------------------------------------------------


def _sample_kernel_decomp(seed: int, cfg, variant: str | None = None) -> IdentityCase:
    variant = variant or ("theorem" if seed % 2 == 0 else "corollary")
    theorem = variant == "theorem"

    def build(v: dict) -> Draw:
        p, q, t, b, d, x1, y1 = map(v.get, "p q t b d x1 y1".split())
        c = v["c"] if theorem else sqrt(p * q / t)
        spectator = p * q / (b * c**2 * d**2) if theorem else t / (b * d**2)
        return Draw(v | {"c": c}, [(1, (1,), (b, spectator, c * x1, c / x1, d * y1, d / y1))], [], [])

    case = _one_dim_case(f"kernel_decomp-{variant}-s{seed}", "kernel_decomp", seed, cfg, 1e-8, variant=variant)
    return _sample_kernel_weighted(104, case, "p q t b c d" if theorem else "p q t b d", "x1 y1", build)


def _eval_kernel_decomp(case: IdentityCase) -> Evaluation:
    pr, ctx, _, integrand = _evaluation_parts(case)
    t, nomes = ctx.t, ctx.nomes
    b, c, d, x1, y1 = pr["b"], pr["c"], pr["d"], pr["x1"], pr["y1"]
    variant = case.variant

    # The integrand is the density of the set the sampler checks: each
    # kernel Gamma(c x1^+- z^+-) / (Gamma(t) Gamma(c^2)) enters it as the
    # vertex parameters c x1^+- without its normalisation, which the
    # right side takes on.  The corollary's c factor has none.
    rhs = kernel_k1(x1, y1, c * d, ctx)
    if variant == "theorem":
        rhs *= elliptic_gamma_multi(
            _gamma_pm_list(b * c, x1) + _gamma_pm_list(b * d, y1) + [t, t, c**2, d**2], nomes
        )
        rhs /= elliptic_gamma_multi(
            _gamma_pm_list(b * c * d**2, x1) + _gamma_pm_list(b * c**2 * d, y1), nomes
        )
    else:
        rhs *= elliptic_gamma_multi(
            _gamma_pm_list(b * d, y1) + _gamma_pm_list(t / (b * d), y1) + [t, d**2], nomes
        )
        rhs /= elliptic_gamma_multi(
            _gamma_pm_list(b * c * d**2, x1) + _gamma_pm_list(c * t / b, x1), nomes
        )
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Family: key_theorem (k = 1, hybrid interpolation factor)
# ---------------------------------------------------------------------------


def _sample_key_theorem(seed: int, cfg, mu: Bipartition | None = None) -> IdentityCase:
    mu = mu if mu is not None else KEY_SHAPES[seed % len(KEY_SHAPES)]

    def build(v: dict) -> Draw:
        p, q, t, t1, t2, t3, v1, x1 = map(v.get, "p q t t1 t2 t3 v1 x1".split())
        t4 = t * v1
        c = sqrt(p * q / (t1 * t2 * t3 * t4))
        floors = [(1 / c, 10.0, "|c| >= 0.1")] + _box(v1, "v1") + _box(v["v2"], "v2")
        sets = [(1, (1,), (t1, t2, t3, t4, c * x1, c / x1))]
        hybrid = InterpFactor(mu, t * t1 * v1 * v["v2"], t2, (v1, v["v2"]), ((0, 1),))
        return Draw(v | {"t4": t4, "c": c}, sets, [hybrid], floors)

    case = _one_dim_case(f"key_theorem-{mu}-s{seed}", "key_theorem", seed, cfg, 1e-8, shapes=(mu, ZERO))
    return _sample_kernel_weighted(105, case, "p q t t1 t2 t3 v1 v2", "x1", build)


def _eval_key_theorem(case: IdentityCase) -> Evaluation:
    pr, ctx, cache, integrand = _evaluation_parts(case)
    t, t1, t2 = ctx.t, pr["t1"], pr["t2"]
    v1, v2, c, x1 = pr["v1"], pr["v2"], pr["c"], pr["x1"]
    mu = case.shapes[0]
    rhs = selberg_average_normalizer(1, case.draw.sets[0].ts, t, ctx.nomes)
    head = t * t1 * v1 * v2 / t2
    rhs *= delta0_bi(mu, head, [t * t1 * v1], ctx)
    rhs /= delta0_bi(mu, head, [c**2 * t * t1 * v1], ctx)
    rhs *= interp_hybrid(mu, (x1,), (c * v1, v2 / c), c * (t * t1 * v1 * v2), c * t2, ctx, cache)
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Family: prop_RK (k = 1)
# ---------------------------------------------------------------------------


def _sample_prop_rk(seed: int, cfg, mu: Bipartition | None = None) -> IdentityCase:
    mu = mu if mu is not None else KEY_SHAPES[seed % len(KEY_SHAPES)]

    def build(v: dict) -> Draw:
        p, q, t, t2, t3, t4, t5, x1 = map(v.get, "p q t t2 t3 t4 t5 x1".split())
        c = sqrt(p * q / (t2 * t3 * t4 * t5))
        floors = [(1 / c, 10.0, "|c| >= 0.1")] + _box(v["t1"], "t1")
        sets = [(1, (1,), (t2, t3, t4, t5, c * x1, c / x1))]
        return Draw(v | {"c": c}, sets, [InterpFactor(mu, v["t1"], t2, None, ((0, 1),))], floors)

    case = _one_dim_case(f"prop_RK-{mu}-s{seed}", "prop_RK", seed, cfg, 1e-8, shapes=(mu, ZERO))
    return _sample_kernel_weighted(106, case, "p q t t1 t2 t3 t4 t5", "x1", build)


def _eval_prop_rk(case: IdentityCase) -> Evaluation:
    pr, ctx, cache, integrand = _evaluation_parts(case)
    t1, t2, t3, t4, t5 = pr["t1"], pr["t2"], pr["t3"], pr["t4"], pr["t5"]
    c, x1 = pr["c"], pr["x1"]
    mu = case.shapes[0]
    rhs = selberg_average_normalizer(1, case.draw.sets[0].ts, ctx.t, ctx.nomes)
    total = 0.0
    bracket = (t1 * t3, t1 * t4, t1 * t5)
    nus = sub_bipartitions(mu)
    for nu, coeff in zip(nus, binomial_row(mu, nus, t1 / t2, c**2, ctx, cache, bracket=bracket)):
        if coeff == 0.0:
            continue
        total += coeff * interp_nonskew(nu, (x1,), t1 / c, c * t2, ctx, cache)
    rhs *= total
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Families: an_selberg, an_aflt, an_kadell, an_hua_kadell
# ---------------------------------------------------------------------------

def _sample_an_selberg(seed: int, cfg, n: int = 2, k: tuple[int, ...] = (1, 1)) -> IdentityCase:
    if n != len(k):
        raise ValueError(f"family an_selberg takes one k_r per rank: n={n} but k={tuple(k)}")
    return _sample_density("an_selberg", seed, cfg, k, np.random.default_rng([seed, 107, n, *k]), None)


def _eval_an_selberg(case: IdentityCase) -> Evaluation:
    return _eval_density(case, an_selberg_rhs(case.paramset))


# lam and mu boxes must share a component: the pole caps of their two
# b-slots multiply to m^2 |p| |q| across components, while the balancing
# forces the product above |pq| -- torus-infeasible (see ledger).
AFLT_N1_SHAPES = [
    (Bipartition.of((1,), ()), ZERO),
    (ZERO, Bipartition.of((1,), ())),
    (Bipartition.of((1,), ()), Bipartition.of((1,), ())),
    (Bipartition.of((), (1,)), Bipartition.of((), (1,))),
    (Bipartition.of((2,), ()), Bipartition.of((1,), ())),
    (ZERO, Bipartition.of((), (2,))),
]


AFLT_N2_SHAPES = [
    (Bipartition.of((), (1,)), Bipartition.of((), (1,))),
    (Bipartition.of((), (1,)), ZERO),
    (ZERO, Bipartition.of((), (1,))),
]


def _aflt_factors(n: int, lam, mu, hua: bool, v: dict) -> list[InterpFactor]:
    """R*_lam(z; c^(1-n) t_1, c^(1-n) t_2) on level 1 and, on level n, with
    hua R*_mu(z; t_(2n+1), t_(2n+4)), else _hybrid_mu, over the values v."""
    t, c, ts = v["t"], v["c"], [v[f"t{i}"] for i in range(1, 2 * n + 5)]
    lam_factor = InterpFactor(lam, c ** (1 - n) * ts[0], c ** (1 - n) * ts[1], None, ((0, 1),))
    if hua:
        return [lam_factor, InterpFactor(mu, ts[2 * n], ts[2 * n + 3], None, ((0, n),))]
    return [lam_factor, _hybrid_mu(mu, ts[2 * n :], t, ((0, n),))]


def _aflt_shapes(family: str, n: int, seed: int, shapes) -> tuple[Bipartition, Bipartition]:
    """The (lam, mu) pair of a case: shapes when given, else the family's
    pick for seed.  an_kadell is the mu = 0 average and refuses any other
    mu."""
    if shapes is not None:
        if family == "an_kadell" and not shapes[1].is_zero():
            raise ValueError(f"family {family} takes mu = {ZERO}, got mu = {shapes[1]}")
        return shapes
    if family == "an_kadell":
        return AFLT_N1_SHAPES[seed % len(AFLT_N1_SHAPES)][0], ZERO
    pool = AFLT_N1_SHAPES if n == 1 else AFLT_N2_SHAPES
    return pool[seed % len(pool)]


def _sample_an_aflt(seed: int, cfg, n: int = 1, shapes=None, *, family: str, tag: int) -> IdentityCase:
    """Sampler shared by an_aflt, an_kadell and an_hua_kadell; tag keeps
    their random streams apart."""
    if n > 2:
        reason = f"family {family} takes n=1 or n=2, not n={n}"
        return _infeasible_case(family, seed, reason, f"{family}-n{n}-s{seed}", None)
    rng, shapes = np.random.default_rng([seed, 108, n, tag]), _aflt_shapes(family, n, seed, shapes)
    return _sample_density(family, seed, cfg, (1,) * n, rng, shapes)


def _eval_an_aflt(case: IdentityCase) -> Evaluation:
    """The integral over the density's normalizer is compared with the
    closed form of the interpolation-function average."""
    _, ctx, _, integrand = _evaluation_parts(case)
    params, (lam, mu) = case.paramset, case.shapes
    notes = "" if case.family != "an_hua_kadell" else (
        "verified as the t_(2n+2) t_(2n+3) = t specialisation; the printed "
        "corollary's t_(n+1) is read as t_(2n+1)"
    )
    return Evaluation(
        aflt_rhs(params, lam, mu, ctx), integrand, norm=an_selberg_rhs(params), notes=notes
    )


# ---------------------------------------------------------------------------
# Family: prop_xselberg_base (n = 1 base case and one n = 2 -> 1 step)
# ---------------------------------------------------------------------------


def _sample_xselberg(seed: int, cfg, variant: str | None = None) -> IdentityCase:
    variant = variant or ("base" if seed % 2 == 0 else "recursion")
    mu = [ZERO, Bipartition.of((1,), ()), Bipartition.of((), (1,))][seed % 3]
    k0 = (seed // 2) % 2

    def base(v: dict) -> Draw:
        p, q, t, t1, t3, t4, t5, t6, x1 = map(v.get, "p q t t1 t3 t4 t5 t6 x1".split())
        d = sqrt(p * q / (t3 * t4 * t5 * t6))
        floors = [(1 / d, 10.0, "|d| >= 0.1")] + _box(t1, "t1")
        sets = [(1, (1,), (t3, t4, t5, t6, d * x1, d / x1))]
        mu_factor = _hybrid_mu(mu, (t3, t4, t5, t6), t, ((0, 1),))
        return Draw(v | {"t2": d**2 * t**k0 / t1, "d": d}, sets, [mu_factor], floors)

    def recursion(v: dict) -> Draw:
        # n = 2, (k0, k1, k2) = (0, 1, 1): the kernel Gamma(d x1^+- z^+-)
        # takes the place of level 1's towers c^-1 t1, c^-1 t2, and c d
        # is the parameter of the recursed kernel on the right side
        p, q, t, t1, t3, t5, t6, t7, t8, x1 = map(v.get, "p q t t1 t3 t5 t6 t7 t8 x1".split())
        c, tail = sqrt(p * q / t), t5 * t6 * t7 * t8
        t2, t4 = p * q / (t1 * tail), p * q * t / (t3 * tail)
        d = sqrt(t1 * t2) / c
        floors = [(1 / d, 1 / 0.08, "|d| >= 0.08"), (c * d, INWARD_CAP, f"|c d| <= {INWARD_CAP}")]
        floors += _box(t1, "t1")
        sets = [(2, (1, 1), (c * d * x1, c * d / x1, t3, t4, t5, t6, t7, t8))]
        mu_factor = _hybrid_mu(mu, (t5, t6, t7, t8), t, ((0, 2),))
        return Draw(v | {"t2": t2, "t4": t4, "c": c, "d": d}, sets, [mu_factor], floors)

    if variant == "base":
        case_id, walked = f"prop_xselberg-base-k0{k0}-{mu}-s{seed}", "p q t t1 t3 t4 t5 t6"
        case = _one_dim_case(case_id, "prop_xselberg_base", seed, cfg, 1e-6, shapes=(mu, ZERO))
    else:
        walked, grid = "p q t t1 t3 t5 t6 t7 t8", GridSpec((cfg.grid_2d_rec,) * 2)
        case_id = f"prop_xselberg-rec-{mu}-s{seed}"
        case = IdentityCase(case_id, "prop_xselberg_base", seed, grid, 1e-6, None, shapes=(mu, ZERO))
    case.variant = variant
    return _sample_kernel_weighted(109, case, walked, "x1", base if variant == "base" else recursion)


def _eval_xselberg(case: IdentityCase) -> Evaluation:
    pr, ctx, _, integrand = _evaluation_parts(case)
    mu, t, nomes = case.shapes[0], ctx.t, ctx.nomes
    x1, d = pr["x1"], pr["d"]

    # The kernel Gamma(d x1^+- z^+-) / (Gamma(t) Gamma(d^2)) enters the
    # density the sampler checks as the vertex parameters d x1^+-, at rank
    # two as c d x1^+- in place of t1, t2; the right side takes on its
    # normalisation.
    if case.variant == "base":
        ts6 = tuple(pr[f"t{i}"] for i in range(1, 7))
        rhs = elliptic_gamma_multi([t, d**2], nomes)
        rhs *= xselberg_rhs(1, (1,), (x1,), ts6, d, mu, ctx, 1.0)
        return Evaluation(rhs, integrand)

    ts = tuple(pr[f"t{i}"] for i in range(1, 9))
    c = pr["c"]
    pref_args = [c * d * t * x1 / ts[2], c * d * t / (x1 * ts[2])]
    pref_args += [c * d * t * x1 / ts[3], c * d * t / (x1 * ts[3])]
    rhs = elliptic_gamma_multi(pref_args + [t, d**2], nomes)
    rhs *= xselberg_rhs(1, (1,), (x1,), ts[2:], c * d, mu, ctx, 1.0)
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Family: equal_k_recursion (n = 2, k = (1, 1))
# ---------------------------------------------------------------------------

EQK_SHAPES = [
    (ZERO, ZERO),
    (Bipartition.of((), (1,)), ZERO),
    (ZERO, Bipartition.of((), (1,))),
    (Bipartition.of((), (1,)), Bipartition.of((), (1,))),
]


def _sample_equal_k(seed: int, cfg) -> IdentityCase:
    lam, mu = EQK_SHAPES[seed % len(EQK_SHAPES)]

    def build(v: dict) -> Draw:
        # The right side integrates the rank-one density of t1, t2, t5..t8:
        # lam sits on level 1 at (c^-1 t1, c^-1 t2) and there at (t1, t2).
        p, q, t, t1, t3, t5, t6, t7, t8 = map(v.get, "p q t t1 t3 t5 t6 t7 t8".split())
        c, tail = sqrt(p * q / t), t5 * t6 * t7 * t8
        t2 = p * q / (t1 * tail)
        t4 = t * t1 * t2 / t3
        ts = (t1, t2, t3, t4, t5, t6, t7, t8)
        factors = [InterpFactor(lam, t1 / c, t2 / c, None, ((0, 1),)), InterpFactor(lam, t1, t2, None, ((1, 1),))]
        factors.append(_hybrid_mu(mu, ts[4:], t, ((0, 2), (1, 1))))
        return Draw(v | {"t2": t2, "t4": t4, "c": c}, [(2, (1, 1), ts), (1, (1,), (t1, t2) + ts[4:])], factors, [])

    grid = GridSpec((cfg.grid_2d_rec,) * 2)
    case = IdentityCase(
        f"equal_k-{lam}-{mu}-s{seed}", "equal_k_recursion", seed, grid, 1e-6, None,
        shapes=(lam, mu), inner_grid=cfg.grid_1d,
    )
    return _sample_kernel_weighted(110, case, "p q t t1 t3 t5 t6 t7 t8", "", build)


def _eval_equal_k(case: IdentityCase) -> Evaluation:
    pr, ctx, cache, integrand = _evaluation_parts(case)
    lam, t, nomes, c = case.shapes[0], ctx.t, ctx.nomes, pr["c"]
    ts = tuple(pr[f"t{i}"] for i in range(1, 9))

    # Right side: prefactor times the rank-one integral with t3, t4 removed.
    pref_num = [ts[0] * ts[1] / c**2]
    pref_den = [ts[0] * ts[1]]
    for r in (0, 1):
        for s in (2, 3):
            pref_num.append(t * ts[r] / ts[s])
    rhs = elliptic_gamma_multi(pref_num, nomes) / elliptic_gamma_multi(pref_den, nomes)
    rhs *= delta0_bi(lam, ts[0] / ts[1], [t * ts[0] / ts[2], t * ts[0] / ts[3]], ctx)
    inner = _set_integrand(case, 1, ctx, cache)
    inner_res = integrate_adaptive(inner, GridSpec((case.inner_grid,)), case.tol * 0.1, 2)
    rhs *= inner_res.value
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Family: kernel_consistency
# ---------------------------------------------------------------------------


def _sample_kernel_consistency(seed: int, cfg, variant: str | None = None) -> IdentityCase:
    # Hand windows, not a plan, which would move the pinned draws: each keeps
    # kernel.branching_pole_report's towers t^(1/2) x_i, c t^(-1/2) y1 and
    # pq y2 / (c t^(1/2)) below INWARD_CAP on both branches, at spectral's y too.
    rng = np.random.default_rng([seed, 111])
    variants = ("c_factor", "spectral", "swap")
    variant = variant or variants[seed % 3]
    if variant == "spectral":
        p, q, t = _draw(rng, 0.19, 0.22), _draw(rng, 0.07, 0.09), _draw(rng, 0.44, 0.48)
        a = _draw(rng, 2.0, 2.3)
        c = _draw(rng, 0.28, 0.31)
        params = {"p": p, "q": q, "t": t, "a": a, "c": c}
    else:
        p, q, t = _draw(rng, 0.15, 0.2), _draw(rng, 0.12, 0.18), _draw(rng, 0.35, 0.45)
        c = cmath.sqrt(p * q / t) if variant == "c_factor" else _draw(rng, 0.4, 0.55)
        params = {"p": p, "q": q, "t": t, "c": c}
    params |= {
        "x1": _unit(rng),
        "x2": _unit(rng),
        "y1": _unit(rng),
        "y2": _unit(rng),
    }
    case_id, grid = f"kernel_consistency-{variant}-s{seed}", GridSpec((cfg.grid_1d,))
    return IdentityCase(case_id, "kernel_consistency", seed, grid, 1e-6, Draw(params, [], [], []), variant=variant)


def _eval_kernel_consistency(case: IdentityCase) -> Evaluation:
    pr = case.draw.values
    ctx = SymbolContext(NomePair(pr["p"], pr["q"]), pr["t"])
    nomes = ctx.nomes
    c = pr["c"]
    x = (pr["x1"], pr["x2"])
    variant = case.variant
    inner = case.grid.dims[0]
    if variant == "c_factor":
        y = (pr["y1"], pr["y2"])
        lhs = kernel_k2(x, y, c, ctx, inner_grid=inner)
        gargs = []
        for xi in x:
            for yj in y:
                gargs += [c * xi * yj, c * xi / yj, c * yj / xi, c / (xi * yj)]
        rhs = elliptic_gamma_multi(gargs, nomes)
    elif variant == "spectral":
        lam = Bipartition.of((1,), ())
        a = pr["a"]
        b = c**2 / (ctx.t * a)
        y = tuple(a * z / c for z in spectral_vector(lam, 2, ctx.t, ctx.p, ctx.q))
        lhs = kernel_k2(x, y, c, ctx, inner_grid=inner)
        cache = TableCache(seed=case.seed)
        rhs = interp_nonskew(lam, x, a, b, ctx, cache)
        for i, xi in enumerate(x, start=1):
            expo = 2 * lam.first[i - 1] * lam.second[i - 1]
            rhs *= (ctx.pq / (a * b)) ** expo
            rhs *= elliptic_gamma_multi([a * xi, a / xi, b * xi, b / xi], nomes)
            rhs /= elliptic_gamma_multi([ctx.t**i, ctx.t ** (i - 1) * a * b], nomes)
    else:
        y = (pr["y1"], pr["y2"])
        lhs = kernel_k2(x, y, c, ctx, inner_grid=inner, check_branch=False)
        rhs = kernel_k2(y, x, c, ctx, inner_grid=inner, check_branch=False)
    return Evaluation(rhs, lhs=lhs, grid=f"inner {inner}", notes=variant)


# ---------------------------------------------------------------------------
# Family: algebraic_suite
# ---------------------------------------------------------------------------


def algebraic_checks(seed: int) -> list[tuple[str, float, float]]:
    """One seeded pass over every non-integral identity; returns
    (name, residual, tolerance) triples."""
    rng = np.random.default_rng([seed, 112])
    p = _draw(rng, 0.1, 0.3)
    q = _draw(rng, 0.1, 0.3)
    nomes = NomePair(p, q)
    ctx = SymbolContext(nomes, _draw(rng, 0.2, 0.5))
    cache = TableCache(seed=seed)
    out = []

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-300)

    z = _draw(rng, 0.3, 2.5)
    out.append(("gamma_reflection", abs(elliptic_gamma(z, nomes) * elliptic_gamma(nomes.pq / z, nomes) - 1.0), 1e-11))
    out.append(("theta_quasi_periodicity", rel(theta(p * z, p), -theta(z, p) / z), 1e-12))
    out.append(("theta_inversion", rel(theta(1 / z, p), -theta(z, p) / z), 1e-12))
    out.append(("gamma_functional_eq", rel(elliptic_gamma(p * z, nomes), theta(z, q) * elliptic_gamma(z, nomes)), 1e-12))
    out.append(("gamma_pq_symmetry", rel(elliptic_gamma(z, nomes), elliptic_gamma(z, nomes.swapped())), 1e-12))

    lam = [Bipartition.of((1,), ()), Bipartition.of((1,), (1,)), Bipartition.of((2,), (1,))][seed % 3]
    a, b = _draw(rng, 0.35, 0.85), _draw(rng, 0.35, 0.85)
    lhs, rhs = gamma_delta_bridge(lam, 3, a, b, ctx)
    out.append(("gamma_delta_bridge", rel(lhs, rhs), 1e-9))

    val = delta0_bi(lam, a, [b], ctx) * delta0_bi(lam, a, [ctx.pq * a / b], ctx)
    out.append(("delta0_reflection", abs(val - 1.0), 1e-10))

    from ellsel.binomials import draw_generic_ab, endpoint_full, endpoint_zero

    ga, gb = draw_generic_ab(lam, ctx, rng)
    table = cache.get(lam, ga, gb, ctx)
    out.append(("binomial_endpoint_zero", rel(table[ZERO], endpoint_zero(lam, ga, gb, ctx)), 1e-8))
    out.append(("binomial_endpoint_full", rel(table[lam], endpoint_full(lam, ga, gb, ctx)), 1e-8))
    out.append(("binomial_table_residual", table.residual, 1e-9))

    mu_b1 = sub_bipartitions(lam)[1]
    b1 = binomial(lam, mu_b1, ga, 1.0, ctx, cache, bracket=(0.5,))
    out.append(("binomial_b1_delta", abs(b1 - (1.0 if mu_b1 == lam else 0.0)), 0.0))

    tab_t = cache.get(lam, ga, ctx.t, ctx)
    scale = max(abs(v) for v in tab_t.values.values())
    worst = 0.0
    for mu in sub_bipartitions(lam):
        if not bipartition_strip(lam, mu):
            worst = max(worst, abs(tab_t[mu]) / scale)
    out.append(("binomial_strip_vanishing", worst, 1e-8))

    out.append(("jackson_nu_zero", jackson_check(lam, ZERO, ga, gb, ctx, rng, cache), 1e-9))
    nus = [m for m in sub_bipartitions(lam) if not m.is_zero() and m != lam]
    if nus:
        out.append(("jackson_nu_general", jackson_check(lam, nus[0], ga, gb, ctx, rng, cache), 1e-8))

    lam2 = Bipartition.of((1,), (1,))
    vs = tuple(_draw(rng, 0.4, 0.9) for _ in range(2))
    w = _draw(rng, 0.4, 0.9)
    out.append(("skew_no_variables", abs(interp_skew(lam2, lam2, (), a, b, ctx, cache) - 1.0), 1e-9))
    lhs = interp_skew(lam2, ZERO, vs + (w, 1 / w), a, b, ctx, cache)
    rhs = interp_skew(lam2, ZERO, vs, a, b, ctx, cache)
    out.append(("skew_unit_pair_drop", rel(lhs, rhs), 1e-9))

    acp = _draw(rng, 0.4, 0.9)
    bcp = ctx.pq / acp
    vs4 = tuple(_draw(rng, 0.4, 0.9) for _ in range(4))
    V = math.prod(vs4)
    lhs = interp_skew(lam2, ZERO, vs4, acp, bcp, ctx, cache)
    rhs = delta0_bi(lam2, acp / bcp, [acp / v for v in vs4] + [V], ctx)
    out.append(("skew_factorisation_ab_pq", rel(lhs, rhs), 1e-9))

    # Branching sums can cancel violently at non-generic draws; keep the
    # cancellation ratio bounded so double precision can witness the
    # identity (same policy as the Jackson checks).
    for _ in range(40):
        res, ratio = branching_residual(lam2, ZERO, vs, w, _draw(rng, 0.4, 0.9), a, b, ctx, cache)
        if ratio <= 50:
            break
    out.append(("skew_branching", res, 1e-8))
    for _ in range(40):
        res, ratio = hybrid_branching_residual(
            lam2, (_unit(rng),), _draw(rng, 0.4, 0.9), _draw(rng, 0.4, 0.9), a, b, ctx, cache
        )
        if ratio <= 50:
            break
    out.append(("hybrid_branching", res, 1e-9))

    t = ctx.t
    k = 1
    a_c = _draw(rng, 0.4, 0.9)
    b_c = ctx.pq / (t**k * a_c)
    x1 = _unit(rng)
    got = interp_nonskew(lam2, (x1,), a_c, b_c, ctx, cache)
    want = delta0_bi(lam2, t ** (k - 1) * a_c / b_c, [a_c * x1, a_c / x1], ctx)
    out.append(("cauchy_nonskew", rel(got, want), 1e-9))

    got = interp_hybrid(lam2, (x1,), vs, a_c, b_c, ctx, cache)
    want = delta0_bi(
        lam2, t ** (k - 1) * a_c / b_c, [a_c * x1, a_c / x1] + [a_c / v for v in vs], ctx
    )
    out.append(("cauchy_hybrid", rel(got, want), 1e-9))

    kap = Bipartition.of((1,), ())
    xspec = tuple(a * s for s in spectral_vector(kap, 2, t, p, q))
    val = interp_nonskew(lam2, xspec, a, b, ctx, cache)
    generic = abs(interp_nonskew(lam2, (_unit(rng), _unit(rng)), a, b, ctx, cache))
    out.append(("interp_vanishing", abs(val) / max(generic, 1e-12), 1e-6))

    for _ in range(40):
        v = _draw(rng, 0.4, 0.9)
        want = delta0_bi(lam2, t * a / b, [t * a * v, a / v], ctx)
        if 0.01 < abs(want) ** (1.0 / 2) < 100:
            break
    xs = tuple(v * s for s in spectral_vector(ZERO, 2, t, p, q))
    out.append(("interp_principal_spec", rel(interp_nonskew(lam2, xs, a, b, ctx, cache), want), 1e-9))

    lhs = interp_hybrid(lam2, (x1,), (vs[0], 1 / (t * vs[0])), a, b, ctx, cache)
    rhs = interp_nonskew(lam2, (x1,), a, b, ctx, cache)
    out.append(("hybrid_inverse_t_pair_drop", rel(lhs, rhs), 1e-9))

    sv1 = spectral_vector(lam, 3, t, p, q)
    sv2 = spectral_vector(lam.swap(), 3, t, q, p)
    out.append(("spectral_swap", max(abs(u - v) for u, v in zip(sv1, sv2)), 1e-14))
    return out


def _eval_algebraic(case: IdentityCase) -> Evaluation:
    """lhs counts the identities, rhs those within tolerance; rel_err is
    the worst residual in units of its tolerance, so the case passes when
    it is at most case.tol = 1."""
    checks = algebraic_checks(case.seed)
    worst_name, worst_margin = "", 0.0
    for name, res, tol in checks:
        margin = res / tol if tol > 0 else (math.inf if res > 0 else 0.0)
        if margin > worst_margin:
            worst_name, worst_margin = name, margin
    return Evaluation(
        rhs=sum(1 for _, res, tol in checks if res <= tol),
        lhs=len(checks),
        rel_err=worst_margin,
        grid="-",
        notes=f"{len(checks)} identities; tightest: {worst_name} at {worst_margin:.2g}x tol",
    )


def _sample_algebraic(seed: int, cfg) -> IdentityCase:
    return IdentityCase(f"algebraic-s{seed}", "algebraic_suite", seed, GridSpec((8,)), 1.0, None)


# ---------------------------------------------------------------------------
# Case plumbing
# ---------------------------------------------------------------------------


def _shapes_str(case: IdentityCase) -> str:
    if not case.shapes:
        return ""
    return ";".join(str(s) for s in case.shapes)


def _infeasible_case(family: str, seed: int, reason: str, note_id: str, draw: Draw | None) -> IdentityCase:
    """A case infeasible for reason, with id note_id or else family-sSEED."""
    return IdentityCase(note_id or f"{family}-s{seed}", family, seed, GridSpec((8,)), 1.0, draw, infeasible=reason)


def _report(case: IdentityCase, ev: Evaluation, res: QuadResult | None, runtime_ms: int) -> VerificationReport:
    """The report of case from its Evaluation and the quadrature of its
    main integral.  Without a quadrature result the case is infeasible,
    and ev.notes says why."""
    status, lhs, rel, estimate = "infeasible", 0.0, math.inf, math.inf
    if res is not None:
        lhs = res.value if ev.norm is None else res.value / ev.norm
        rel = ev.rel_err if ev.rel_err is not None else abs(lhs - ev.rhs) / max(abs(ev.rhs), 1e-300)
        estimate = res.doubling_estimate
        if res.budget_exhausted and rel > case.tol:
            status = "budget"
        else:
            status = "pass" if rel <= case.tol and np.isfinite(rel) else "fail"
    ps = case.paramset
    return VerificationReport(
        id=case.id,
        family=case.family,
        n=None if ps is None else ps.n,
        k=None if ps is None else ps.k,
        params={} if case.draw is None else dict(case.draw.values),
        shapes=_shapes_str(case),
        grid=ev.grid or "x".join(str(n) for n in case.grid.dims),
        lhs=lhs,
        rhs=ev.rhs,
        rel_err=rel,
        doubling_estimate=estimate,
        status=status,
        seed=case.seed,
        tol=case.tol,
        runtime_ms=runtime_ms,
        notes=ev.notes,
    )


def _named(ps: ParamSet) -> dict:
    """p, q, t, c and t1 .. t(2n+4) of ps by name."""
    return dict(zip(["p", "q", "t", "c"] + [f"t{i + 1}" for i in range(len(ps.ts))], ps.bases))


@dataclass
class HarnessConfig:
    grid_1d: int = 256
    grid_2d: int = 128
    grid_2d_aflt: int = 256
    grid_2d_rec: int = 192
    grid_3d: int = 48
    tol_1d: float = 1e-9
    tol_2d: float = 1e-6
    tol_3d: float = 1e-4
    threads: int = 1  # worker processes for run_suite; 1 runs its cases in this process

    def __post_init__(self):
        """Refuse values a run cannot use, however the config is built."""
        for key, val in vars(self).items():
            if key.startswith("tol_"):
                if not (math.isfinite(val) and val > 0):
                    raise ValueError(f"config key {key} must be positive and finite, got {val}")
            elif val < (low := 2 if key.startswith("grid_") else 1):
                raise ValueError(f"config key {key} must be at least {low}, got {val}")

    @classmethod
    def from_dict(cls, data: dict) -> "HarnessConfig":
        """The config of a JSON object of known keys and declared types."""
        if not isinstance(data, dict):
            raise ValueError("a config file holds one JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(data) - set(types))
        if unknown:
            raise ValueError(
                f"unknown config keys {', '.join(unknown)}; accepted: {', '.join(types)}"
            )
        for key, val in data.items():
            kinds = int if types[key] == "int" else (int, float)
            if isinstance(val, bool) or not isinstance(val, kinds):
                raise ValueError(f"config key {key} must be {types[key]}, got {val!r}")
        return cls(**data)


@dataclass(frozen=True)
class Family:
    """One identity family.  `sample(seed, cfg, **options)` draws a case
    and `evaluate(case)` gives its Evaluation.  `at(seed, cfg, params,
    shapes=None)`, set for the density families, whose draw is one
    ParamSet with the factors of its shapes, builds and checks the case
    at params as its sampler does a drawn set; `ellsel case --params` and
    the paramset setter run it.  `shapes_option`: the option that `ellsel
    case --shapes` fills, "mu" for one bipartition or "shapes" for a
    pair."""

    sample: Callable[..., IdentityCase]
    evaluate: Callable[[IdentityCase], Evaluation]
    at: Callable[..., IdentityCase] | None = None
    shapes_option: str | None = None


FAMILY_TABLE = {
    "beta_k1": Family(_sample_beta_k1, _eval_selberg, partial(_density_at, "beta_k1")),
    "selberg_A1": Family(_sample_selberg_A1, _eval_selberg, partial(_density_at, "selberg_A1")),
    "vdBult": Family(_sample_vdbult, _eval_vdbult, shapes_option="mu"),
    "kernel_decomp": Family(_sample_kernel_decomp, _eval_kernel_decomp),
    "key_theorem": Family(_sample_key_theorem, _eval_key_theorem, shapes_option="mu"),
    "prop_RK": Family(_sample_prop_rk, _eval_prop_rk, shapes_option="mu"),
    "an_selberg": Family(_sample_an_selberg, _eval_an_selberg, partial(_density_at, "an_selberg")),
    **{
        family: Family(
            partial(_sample_an_aflt, family=family, tag=tag),
            _eval_an_aflt,
            partial(_density_at, family),
            shapes_option="shapes",
        )
        for tag, family in enumerate(("an_aflt", "an_kadell", "an_hua_kadell"), start=1)
    },
    "prop_xselberg_base": Family(_sample_xselberg, _eval_xselberg),
    "equal_k_recursion": Family(_sample_equal_k, _eval_equal_k),
    "kernel_consistency": Family(_sample_kernel_consistency, _eval_kernel_consistency),
    "algebraic_suite": Family(_sample_algebraic, _eval_algebraic),
}

FAMILIES = tuple(FAMILY_TABLE)


def sample_case(family: str, seed: int, cfg: HarnessConfig | None = None, **options) -> IdentityCase:
    cfg = cfg or HarnessConfig()
    if family not in FAMILY_TABLE:
        raise KeyError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    return FAMILY_TABLE[family].sample(seed, cfg, **options)


def case_at(family: str, seed: int, cfg: HarnessConfig, params: ParamSet, **options) -> IdentityCase:
    """The family's case at an explicit parameter set, built and checked
    by its `at` as its sampler builds and checks a draw, on the contour
    contour_feasibility picks.  A set that fits no contour, or whose
    interpolation poles keep no margin, gives an infeasible case naming
    each violated condition."""
    at = FAMILY_TABLE[family].at
    if at is None:
        raise ValueError(f"family {family} takes no --params")
    return at(seed, cfg, params, **options)


def evaluate_case(case: IdentityCase) -> Evaluation:
    """The family's Evaluation of case.  InfeasibleError when the case is
    marked infeasible or its evaluation finds no valid contour."""
    if case.infeasible is not None:
        raise InfeasibleError(case.infeasible)
    try:
        return FAMILY_TABLE[case.family].evaluate(case)
    except ContourError as exc:
        raise InfeasibleError(str(exc)) from exc


def run_case(case: IdentityCase) -> VerificationReport:
    """Evaluate one case: the family's Evaluation, then the main integral
    by adaptive quadrature on case.grid (runtime_ms times the quadrature;
    for a family without one, the evaluation), then the status."""
    start = time.perf_counter()
    try:
        ev = evaluate_case(case)
    except InfeasibleError as exc:
        return _report(case, Evaluation(0.0, notes=str(exc)), None, 0)
    if ev.integrand is None:
        res = QuadResult(ev.lhs, 0.0, 0)
    else:
        start = time.perf_counter()
        res = integrate_adaptive(ev.integrand, case.grid, case.tol * 0.1, case.doublings)
    return _report(case, ev, res, int((time.perf_counter() - start) * 1000))


SUITES = {
    "algebraic": [("algebraic_suite", {})],
    "integrals-1d": [("beta_k1", {}), ("vdBult", {}), ("key_theorem", {}), ("prop_RK", {})],
    "integrals-2d": [("selberg_A1", {"k": 2}), ("an_selberg", {"n": 2, "k": (1, 1)})],
    "kernel": [("kernel_decomp", {}), ("kernel_consistency", {})],
    "an": [
        ("an_selberg", {"n": 1, "k": (1,)}),
        ("an_selberg", {"n": 2, "k": (1, 1)}),
        ("an_aflt", {"n": 1}),
        ("an_aflt", {"n": 2}),
        ("an_kadell", {"n": 1}),
        ("an_hua_kadell", {"n": 1}),
    ],
    "xselberg": [("prop_xselberg_base", {}), ("equal_k_recursion", {})],
}
SUITES["all"] = [entry for name in ("algebraic", "integrals-1d", "integrals-2d", "kernel", "an", "xselberg") for entry in SUITES[name]]


def pool_size(threads: int, jobs: int, cpus: int) -> int:
    """Worker processes for a suite: no more than asked for, than there
    are cases, or than there are CPUs to run them.  Below 2, no pool."""
    return min(threads, jobs, cpus)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _run_job(job: tuple) -> VerificationReport:
    family, seed, cfg, options = job
    return run_case(sample_case(family, seed, cfg, **options))


def run_suite(suite: str, seeds: int, cfg: HarnessConfig | None = None) -> list[VerificationReport]:
    """Sample and run every case of suite at seeds 0..seeds-1, sorted by
    id.  When pool_size allows more than one worker, each case is sampled
    and run in a worker process; cases share no state, so the reports
    are the same as in this process."""
    cfg = cfg or HarnessConfig()
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    jobs = [(family, seed, cfg, options) for family, options in SUITES[suite] for seed in range(seeds)]
    workers = pool_size(cfg.threads, len(jobs), _usable_cpus())
    if workers > 1:
        # Imported here: multiprocessing costs every other caller start-up time.
        # The default start method, fork on Linux, hands workers the modules
        # already imported; spawn re-imports them for every suite.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_job, jobs))
    else:
        reports = [_run_job(job) for job in jobs]
    return sorted(reports, key=lambda r: r.id)


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)


def reports_to_csv(reports: list[VerificationReport]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(report_csv_row(rep) for rep in reports)
    return out.getvalue()
