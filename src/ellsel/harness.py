"""Identity registry, parameter samplers, case execution and report
emission.

Each family is one record in FAMILY_TABLE: a seeded sampler (drawing a
feasible parameter point for the identity, on the unit torus or a
residue-corrected contour) and an evaluator giving the integrand and
the closed-form side from gamma/Delta0 products.  run_case alone does
the adaptive quadrature and decides the status.  Reports carry both the identity residual and the quadrature doubling
estimate so formula errors and quadrature noise remain distinguishable.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from ellsel.binomials import BinomialQuery, TableCache, binomial, jackson_check
from ellsel.core import NomePair, elliptic_gamma, elliptic_gamma_multi, theta
from ellsel.densities import (
    FEASIBILITY_MARGIN,
    Contour,
    IntegrandDescriptor,
    InfeasibleError,
    ParamSet,
    an_selberg_gamma_args,
    an_selberg_rhs,
    contour_feasibility,
    feasibility_check,
    kappa,
    selberg_average_normalizer,
    vertex_unary_fn,
)
from ellsel.interpolation import (
    branching_residual,
    hybrid_branching_residual,
    interp_hybrid,
    interp_nonskew,
    interp_skew,
    pole_map,
)
from ellsel.kernel import ContourError, kernel_k1, kernel_k2
from ellsel.partitions import (
    ZERO,
    Bipartition,
    bipartition_strip,
    spectral_vector,
    sub_bipartitions,
)
from ellsel.quadrature import (
    GridSpec,
    QuadResult,
    TorusFactorizedIntegrand,
    integrate_adaptive,
)
from ellsel.symbols import SymbolContext, delta0_bi, gamma_delta_bridge

MARGIN = 1.0 - FEASIBILITY_MARGIN


@dataclass
class IdentityCase:
    id: str
    family: str
    seed: int
    grid: GridSpec
    tol: float
    params: dict = field(default_factory=dict)  # named complex values
    paramset: ParamSet | None = None
    shapes: tuple[Bipartition, Bipartition] | None = None
    extra: dict = field(default_factory=dict)
    contour: Contour = field(default_factory=Contour)  # density families only
    budget: int = 0  # evaluation cap of the main integral's adaptive quadrature


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


@dataclass
class VerificationReport:
    id: str
    family: str
    status: str  # pass | fail | infeasible | budget
    seed: int
    lhs: complex = 0.0
    rhs: complex = 0.0
    rel_err: float = math.inf
    doubling_estimate: float = math.inf
    grid: str = ""
    tol: float = 0.0
    n: int | None = None
    k: tuple[int, ...] | None = None
    params: dict = field(default_factory=dict)
    shapes: str = ""
    runtime_ms: int = 0
    notes: str = ""

    def to_json_dict(self) -> dict:
        def c2(z):
            z = complex(z)
            return [z.real, z.imag]

        return {
            "id": self.id,
            "family": self.family,
            "n": self.n,
            "k": list(self.k) if self.k else None,
            "params": {key: c2(val) for key, val in self.params.items()},
            "shapes": self.shapes,
            "grid": self.grid,
            "lhs": c2(self.lhs),
            "rhs": c2(self.rhs),
            "rel_err": self.rel_err,
            "doubling_estimate": self.doubling_estimate,
            "status": self.status,
            "seed": self.seed,
            "tol": self.tol,
            "runtime_ms": self.runtime_ms,
            "notes": self.notes,
        }


CSV_COLUMNS = [
    "id",
    "family",
    "n",
    "k",
    "shapes",
    "grid",
    "lhs_re",
    "lhs_im",
    "rhs_re",
    "rhs_im",
    "rel_err",
    "doubling_estimate",
    "status",
    "seed",
    "tol",
    "runtime_ms",
    "notes",
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


def interp_b_window(mu: Bipartition, ctx: SymbolContext):
    """Admissible modulus window for the pole-carrying parameter b of an
    interpolation factor living on a unit-circle variable: every inward
    pole tower member must stay below the margin."""
    pm = pole_map(mu, 1.0 + 0.0j, ctx)
    lo, hi = 0.0, math.inf
    for loc, label in pm.inward:
        # towers scale either like b (second kind) or like 1/b (first);
        # pole_map was called with b = 1 so the location is the scale.
        if "b^-1" in label:
            lo = max(lo, abs(loc) / MARGIN)
        else:
            hi = min(hi, MARGIN / abs(loc))
    return lo, hi


def _draw_in_window(rng, lo, hi) -> complex | None:
    if lo >= hi:
        return None
    return _draw(rng, lo, hi)


def _margins_ok(values) -> list[str]:
    """values: iterable of (complex, label); each must have modulus
    below the margin (inward) -- reciprocals are implied."""
    bad = []
    for val, label in values:
        if abs(val) >= MARGIN:
            bad.append(f"{label}: modulus {abs(val):.4g} >= {MARGIN}")
    return bad


def _interp_pole_entries(mu: Bipartition, b: complex, ctx: SymbolContext):
    pm = pole_map(mu, b, ctx)
    return [(loc, label) for loc, label in pm.inward]


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


def _vertex_pair_gamma(tlist, c, x1, nomes: NomePair) -> complex:
    """Gamma product over t_r t_s (r < s) and c t_r x1^(+-1): the closed
    form's factor for a rank-one integral whose kernel carries c, x1."""
    gargs = []
    for r, tr in enumerate(tlist):
        gargs += [tr * ts for ts in tlist[r + 1 :]]
        gargs += [c * tr * x1, c * tr / x1]
    return elliptic_gamma_multi(gargs, nomes)


def _hybrid_mu_fn(mu, ts6, ctx: SymbolContext, cache: TableCache):
    """Hybrid factor R*_mu(z; t4/t, t5/t; t tau, t6), tau = t3 t4 t5 / t^2,
    of a rank-one parameter list ts6 = (t1..t6); a rank-n caller passes
    its last six parameters t_(2n-1)..t_(2n+4)."""
    t = ctx.t
    tau = ts6[2] * ts6[3] * ts6[4] / t**2

    def fn(z):
        return interp_hybrid(mu, (z,), (ts6[3] / t, ts6[4] / t), t * tau, ts6[5], ctx, cache)

    return fn


def _one_variable_integrand(nomes: NomePair, *fns) -> TorusFactorizedIntegrand:
    """Product of fns on one circle, with the rank-one density constant."""
    return TorusFactorizedIntegrand(
        nvars=1, unary=[(0, fn) for fn in fns], prefactor=kappa(1, nomes)
    )


# ---------------------------------------------------------------------------
# Family: beta_k1 / selberg_A1
# ---------------------------------------------------------------------------


def _sample_rank1(k: int, rng) -> ParamSet:
    """Feasible rank-one parameter set; windows shift with k to satisfy
    |pq| = |t|^(2k-2) |t_1..t_6| inside the unit polydisc."""
    if k == 1:
        pw, tw, ww = (0.1, 0.2), (0.2, 0.4), (0.3, 0.6)
    else:
        pw, tw, ww = (0.12, 0.18), (0.4, 0.5), (0.6, 0.78)
    for _ in range(400):
        p, q, t = _draw(rng, *pw), _draw(rng, *pw), _draw(rng, *tw)
        ts = [_draw(rng, *ww) for _ in range(5)]
        t6 = p * q / (t ** (2 * k - 2) * math.prod(ts))
        if not 0.05 <= abs(t6) <= 0.8:
            continue
        try:
            params = ParamSet(1, (k,), p, q, t, tuple(ts) + (t6,))
        except ValueError:
            continue
        if feasibility_check(params).ok:
            return params
    raise InfeasibleError(f"no rank-one draw for k={k}")


def _eval_density(case: IdentityCase, rhs: complex) -> Evaluation:
    """Density integral on the case's contour: the torus part plus its
    residue terms, each on the case's per-dimension grid."""
    integrand = IntegrandDescriptor(case.paramset).build_on(case.contour)
    notes = f"contour: {case.contour.describe()}" if case.contour.residues else ""
    return Evaluation(rhs, integrand, notes=notes)


def _eval_selberg(case: IdentityCase) -> Evaluation:
    params = case.paramset
    rhs = selberg_average_normalizer(params.k[0], params.ts, params.t, params.nomes)
    return _eval_density(case, rhs)


def _one_dim_case(case_id: str, family: str, seed: int, cfg, tol: float, **fields) -> IdentityCase:
    """A case with one variable on the 1-d grid, allowed two doublings."""
    return IdentityCase(
        id=case_id,
        family=family,
        seed=seed,
        grid=GridSpec((cfg.grid_1d,)),
        tol=tol,
        budget=4 * cfg.grid_1d,
        **fields,
    )


def _sample_beta_k1(seed: int, cfg) -> IdentityCase:
    params = _sample_rank1(1, np.random.default_rng([seed, 101]))
    return _one_dim_case(f"beta_k1-s{seed}", "beta_k1", seed, cfg, cfg.tol_1d, paramset=params)


def _sample_selberg_A1(seed: int, cfg, k: int = 2) -> IdentityCase:
    rng = np.random.default_rng([seed, 102, k])
    params = _sample_rank1(k, rng)
    grid = GridSpec((cfg.grid_1d,) if k == 1 else (cfg.grid_2d,) * k)
    tol = cfg.tol_2d if k > 1 else cfg.tol_1d
    return IdentityCase(
        id=f"selberg_A1-k{k}-s{seed}",
        family="selberg_A1",
        seed=seed,
        grid=grid,
        tol=tol,
        paramset=params,
        budget=math.prod(grid.dims),
    )


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
# (1|1) is torus-infeasible: diagnosed, not verified
VDBULT_SHAPES = KEY_SHAPES + [Bipartition.of((1,), (1,))]


def _shape_nome_windows(r1: int, r2: int) -> tuple[tuple, tuple]:
    """Nome windows for an interpolation factor whose components have
    max row lengths r1, r2.  The nome carrying an l-box row needs
    |b| < margin * |nome|^l to keep the pole towers inside, so deeper
    rows want a larger nome while the idle nome shrinks to keep |pq|
    and the balancing budgets workable."""
    two_box = max(r1, r2) >= 2

    def one(r):
        if r >= 2:
            return (0.42, 0.5)
        if r == 1:
            return (0.25, 0.35)
        return (0.05, 0.1) if two_box else (0.1, 0.2)

    return one(r1), one(r2)


def _sample_vdbult(seed: int, cfg, mu: Bipartition | None = None) -> IdentityCase:
    rng = np.random.default_rng([seed, 103])
    if mu is None:
        mu = VDBULT_SHAPES[seed % len(VDBULT_SHAPES)]
    r1, r2 = mu.first[0], mu.second[0]
    pw, qw = _shape_nome_windows(r1, r2)
    two_box = max(r1, r2) >= 2
    heavy = (0.6, 0.88) if two_box else (0.5, 0.85)
    tw = (0.05, 0.1) if two_box else (0.1, 0.25)
    reason = ""
    for _ in range(400):
        p, q = _draw(rng, *pw), _draw(rng, *qw)
        t = _draw(rng, *tw)
        if abs(p * q / t) >= 0.9:
            continue
        ctx = SymbolContext(NomePair(p, q), t)
        lo, hi = interp_b_window(mu, ctx)
        t2 = _draw_in_window(rng, max(lo, 0.02), min(hi, 0.9))
        if t2 is None:
            reason = "empty admissible window for the pole-carrying parameter"
            continue
        t1, t3 = _draw(rng, *heavy), _draw(rng, *heavy)
        t4 = t / (t1 * t2 * t3)
        c = cmath.sqrt(p * q / t)
        x1 = _unit(rng)
        checks = [
            (t, "t"),
            (t1, "t1"),
            (t2, "t2"),
            (t3, "t3"),
            (t4, "t4"),
            (c, "c x^+-"),
        ]
        checks += _interp_pole_entries(mu, t2, ctx)
        bad = _margins_ok(checks)
        if bad:
            reason = bad[0]
            continue
        return _one_dim_case(
            f"vdBult-{mu}-s{seed}", "vdBult", seed, cfg, 1e-8,
            params={"p": p, "q": q, "t": t, "t1": t1, "t2": t2, "t3": t3, "t4": t4, "c": c, "x1": x1},
            shapes=(mu, ZERO),
        )
    return _infeasible_case("vdBult", seed, f"no feasible draw for mu={mu}: {reason}")


def _eval_vdbult(case: IdentityCase) -> Evaluation:
    pr = case.params
    p, q, t = pr["p"], pr["q"], pr["t"]
    t1, t2, t3, t4, c, x1 = pr["t1"], pr["t2"], pr["t3"], pr["t4"], pr["c"], pr["x1"]
    mu = case.shapes[0]
    ctx = SymbolContext(NomePair(p, q), t)
    nomes = ctx.nomes
    cache = TableCache(seed=case.seed)

    def interp_fn(z):
        return interp_nonskew(mu, (z,), t1, t2, ctx, cache)

    unary = vertex_unary_fn((t1, t2, t3, t4, c * x1, c / x1), t, nomes)
    integrand = _one_variable_integrand(nomes, unary, interp_fn)
    rhs = interp_nonskew(mu, (x1,), c * t1, c * t2, ctx, cache)
    rhs *= delta0_bi(mu, t1 / t2, [t1 * t3, t1 * t4], ctx)
    rhs *= _vertex_pair_gamma((t1, t2, t3, t4), c, x1, nomes)
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Family: kernel_decomp (theorem and corollary variants at k = l = 1)
# ---------------------------------------------------------------------------


def _sample_kernel_decomp(seed: int, cfg, variant: str | None = None) -> IdentityCase:
    rng = np.random.default_rng([seed, 104])
    variant = variant or ("theorem" if seed % 2 == 0 else "corollary")
    for _ in range(400):
        p, q = _draw(rng, 0.1, 0.14), _draw(rng, 0.1, 0.14)
        b = _draw(rng, 0.35, 0.6)
        d = _draw(rng, 0.55, 0.75)
        x1, y1 = _unit(rng), _unit(rng)
        if variant == "theorem":
            t = _draw(rng, 0.25, 0.45)
            c = _draw(rng, 0.55, 0.75)
            spectator = p * q / (b * c**2 * d**2)
        else:
            t = _draw(rng, 0.04, 0.08)
            c = cmath.sqrt(p * q / t)
            spectator = t / (b * d**2)
        checks = [
            (t, "t"),
            (p * q / t, "pq/t"),
            (b, "b"),
            (spectator, "second vertex parameter"),
            (c, "c x^+-"),
            (d, "d y^+-"),
        ]
        if _margins_ok(checks):
            continue
        return _one_dim_case(
            f"kernel_decomp-{variant}-s{seed}", "kernel_decomp", seed, cfg, 1e-8,
            params={"p": p, "q": q, "t": t, "b": b, "c": c, "d": d, "x1": x1, "y1": y1},
            extra={"variant": variant},
        )
    return _infeasible_case("kernel_decomp", seed, f"no feasible {variant} draw")


def _eval_kernel_decomp(case: IdentityCase) -> Evaluation:
    pr = case.params
    p, q, t = pr["p"], pr["q"], pr["t"]
    b, c, d, x1, y1 = pr["b"], pr["c"], pr["d"], pr["x1"], pr["y1"]
    ctx = SymbolContext(NomePair(p, q), t)
    nomes = ctx.nomes
    variant = case.extra["variant"]

    if variant == "theorem":
        unaries = [
            lambda z: kernel_k1(z, x1, c, ctx),
            lambda z: kernel_k1(z, y1, d, ctx),
            vertex_unary_fn((b, p * q / (b * c**2 * d**2)), t, nomes),
        ]
        rhs = kernel_k1(x1, y1, c * d, ctx)
        rhs *= elliptic_gamma_multi(
            _gamma_pm_list(b * c, x1) + _gamma_pm_list(b * d, y1), nomes
        )
        rhs /= elliptic_gamma_multi(
            _gamma_pm_list(b * c * d**2, x1) + _gamma_pm_list(b * c**2 * d, y1), nomes
        )
    else:

        def edge_fn(z):
            return (
                elliptic_gamma(c * z * x1, nomes)
                * elliptic_gamma(c * z / x1, nomes)
                * elliptic_gamma(c * x1 / z, nomes)
                * elliptic_gamma(c / (z * x1), nomes)
            )

        unaries = [
            lambda z: kernel_k1(z, y1, d, ctx),
            vertex_unary_fn((b, t / (b * d**2)), t, nomes),
            edge_fn,
        ]
        rhs = kernel_k1(x1, y1, c * d, ctx)
        rhs *= elliptic_gamma_multi(
            _gamma_pm_list(b * d, y1) + _gamma_pm_list(t / (b * d), y1), nomes
        )
        rhs /= elliptic_gamma_multi(
            _gamma_pm_list(b * c * d**2, x1) + _gamma_pm_list(c * t / b, x1), nomes
        )

    return Evaluation(rhs, _one_variable_integrand(nomes, *unaries))


# ---------------------------------------------------------------------------
# Family: key_theorem (k = 1, hybrid interpolation factor)
# ---------------------------------------------------------------------------


def _sample_key_theorem(seed: int, cfg, mu: Bipartition | None = None) -> IdentityCase:
    rng = np.random.default_rng([seed, 105])
    mu = mu if mu is not None else KEY_SHAPES[seed % len(KEY_SHAPES)]
    r1, r2 = mu.first[0], mu.second[0]
    pw, qw = _shape_nome_windows(r1, r2)
    heavy = (0.75, 0.9) if max(r1, r2) >= 2 else (0.65, 0.88)
    for _ in range(400):
        p, q = _draw(rng, *pw), _draw(rng, *qw)
        t = _draw(rng, 0.25, 0.4)
        ctx = SymbolContext(NomePair(p, q), t)
        lo, hi = interp_b_window(mu, ctx)
        hi = min(hi, 0.9)
        # bias the pole-carrying parameter upward: |c| shrinks with it
        t2 = _draw_in_window(rng, max(lo, 0.05, 0.55 * hi), hi)
        if t2 is None:
            continue
        v1 = _draw(rng, 0.7, 0.95)
        v2 = _draw(rng, 0.4, 0.9)
        t1, t3 = _draw(rng, *heavy), _draw(rng, *heavy)
        t4 = t * v1
        c = cmath.sqrt(p * q / (t1 * t2 * t3 * t4))
        x1 = _unit(rng)
        checks = [(t, "t"), (t1, "t1"), (t2, "t2"), (t3, "t3"), (t4, "t4"), (c, "c x^+-")]
        checks += _interp_pole_entries(mu, t2, ctx)
        if abs(c) < 0.1 or _margins_ok(checks):
            continue
        return _one_dim_case(
            f"key_theorem-{mu}-s{seed}", "key_theorem", seed, cfg, 1e-8,
            params={
                "p": p, "q": q, "t": t, "t1": t1, "t2": t2, "t3": t3, "t4": t4,
                "v1": v1, "v2": v2, "c": c, "x1": x1,
            },
            shapes=(mu, ZERO),
        )
    return _infeasible_case("key_theorem", seed, f"no feasible draw for mu={mu}")


def _eval_key_theorem(case: IdentityCase) -> Evaluation:
    pr = case.params
    p, q, t = pr["p"], pr["q"], pr["t"]
    t1, t2, t3, t4 = pr["t1"], pr["t2"], pr["t3"], pr["t4"]
    v1, v2, c, x1 = pr["v1"], pr["v2"], pr["c"], pr["x1"]
    mu = case.shapes[0]
    ctx = SymbolContext(NomePair(p, q), t)
    nomes = ctx.nomes
    cache = TableCache(seed=case.seed)
    a_hyb = t * t1 * v1 * v2

    def interp_fn(z):
        return interp_hybrid(mu, (z,), (v1, v2), a_hyb, t2, ctx, cache)

    integrand = _one_variable_integrand(
        nomes,
        lambda z: kernel_k1(z, x1, c, ctx),
        interp_fn,
        vertex_unary_fn((t1, t2, t3, t4), t, nomes),
    )
    rhs = _vertex_pair_gamma((t1, t2, t3, t4), c, x1, nomes)
    head = t * t1 * v1 * v2 / t2
    rhs *= delta0_bi(mu, head, [t * t1 * v1], ctx)
    rhs /= delta0_bi(mu, head, [c**2 * t * t1 * v1], ctx)
    rhs *= interp_hybrid(mu, (x1,), (c * v1, v2 / c), c * a_hyb, c * t2, ctx, cache)
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Family: prop_RK (k = 1)
# ---------------------------------------------------------------------------


def _sample_prop_rk(seed: int, cfg, mu: Bipartition | None = None) -> IdentityCase:
    rng = np.random.default_rng([seed, 106])
    mu = mu if mu is not None else KEY_SHAPES[seed % len(KEY_SHAPES)]
    r1, r2 = mu.first[0], mu.second[0]
    pw, qw = _shape_nome_windows(r1, r2)
    heavy = (0.75, 0.9) if max(r1, r2) >= 2 else (0.45, 0.7)
    for _ in range(400):
        p, q = _draw(rng, *pw), _draw(rng, *qw)
        t = _draw(rng, 0.2, 0.35)
        ctx = SymbolContext(NomePair(p, q), t)
        lo, hi = interp_b_window(mu, ctx)
        t2 = _draw_in_window(rng, max(lo, 0.02), min(hi, 0.9))
        if t2 is None:
            continue
        t1 = _draw(rng, 0.4, 0.8)
        t3, t4, t5 = (_draw(rng, *heavy) for _ in range(3))
        c = cmath.sqrt(p * q / (t2 * t3 * t4 * t5))
        x1 = _unit(rng)
        checks = [(t, "t"), (t2, "t2"), (t3, "t3"), (t4, "t4"), (t5, "t5"), (c, "c x^+-")]
        checks += _interp_pole_entries(mu, t2, ctx)
        if abs(c) < 0.1 or _margins_ok(checks):
            continue
        return _one_dim_case(
            f"prop_RK-{mu}-s{seed}", "prop_RK", seed, cfg, 1e-8,
            params={
                "p": p, "q": q, "t": t, "t1": t1, "t2": t2, "t3": t3,
                "t4": t4, "t5": t5, "c": c, "x1": x1,
            },
            shapes=(mu, ZERO),
        )
    return _infeasible_case("prop_RK", seed, f"no feasible draw for mu={mu}")


def _eval_prop_rk(case: IdentityCase) -> Evaluation:
    pr = case.params
    p, q, t = pr["p"], pr["q"], pr["t"]
    t1, t2, t3, t4, t5 = pr["t1"], pr["t2"], pr["t3"], pr["t4"], pr["t5"]
    c, x1 = pr["c"], pr["x1"]
    mu = case.shapes[0]
    ctx = SymbolContext(NomePair(p, q), t)
    nomes = ctx.nomes
    cache = TableCache(seed=case.seed)

    def interp_fn(z):
        return interp_nonskew(mu, (z,), t1, t2, ctx, cache)

    integrand = _one_variable_integrand(
        nomes,
        lambda z: kernel_k1(z, x1, c, ctx),
        interp_fn,
        vertex_unary_fn((t2, t3, t4, t5), t, nomes),
    )
    rhs = _vertex_pair_gamma((t2, t3, t4, t5), c, x1, nomes)
    total = 0.0
    bracket = (t1 * t3, t1 * t4, t1 * t5)
    for nu in sub_bipartitions(mu):
        coeff = binomial(BinomialQuery(mu, nu, t1 / t2, c**2, ctx, bracket=bracket), cache)
        if coeff == 0.0:
            continue
        total += coeff * interp_nonskew(nu, (x1,), t1 / c, c * t2, ctx, cache)
    rhs *= total
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Families: an_selberg, an_aflt, an_kadell, an_hua_kadell
# ---------------------------------------------------------------------------

N2_K11_WINDOWS = {
    "p": (0.3, 0.36),
    "q": (0.3, 0.36),
    "t": (0.18, 0.25),
    "odd": [(0.35, 0.48), (0.25, 0.4)],
    "shared": (0.72, 0.8),
}

# k = (1, 2) has no unit-torus draw: the balancing gives
# |t1/c| |t2/c| = 1 / |t5 t6 t7 t8| > 1, so a level-1 tower always lies
# outside the circle and the case runs on the residue-corrected contour.
# These windows put |t1/c| and |t2/c| near 2, with their p- and q-shifts
# and the towers t_a and c^2/t_a of the residue terms well inside.
N2_K12_WINDOWS = {
    "p": (0.28, 0.32),
    "q": (0.28, 0.32),
    "t": (0.6, 0.75),
    "odd": [(0.62, 0.78), (0.62, 0.78)],
    "shared": (0.68, 0.76),
}

# (windows, corrected contour, tower reach) per rank-two k; other k use
# the k = (1, 1) entry.  The trapezoid tail at N points per dimension
# decays like rho^N in the radius rho of the nearest tower: 0.85 clears
# the 1e-6 tolerance at 128^2, while 48^3 at 1e-4 needs about 0.78.
AN_SELBERG_N2 = {
    (1, 1): (N2_K11_WINDOWS, False, 0.85),
    (1, 2): (N2_K12_WINDOWS, True, 0.78),
}


def _window_for(windows: dict, key: str, index: int):
    """windows[key] is either one (lo, hi) pair or a list with one pair
    per position."""
    spec = windows[key]
    if isinstance(spec[0], (tuple, list)):
        return spec[index]
    return spec


def sample_an_params(
    n: int,
    k: tuple[int, ...],
    rng,
    windows: dict,
    hua: bool = False,
    accept=None,
    cap: int = 400,
    corrected: bool = False,
) -> tuple[ParamSet, Contour]:
    """Rank-n rejection sampler: draw p, q, t, the four shared parameters
    and one member of each vertex pair, and solve the partner from the
    balancing relation; returns the draw and its contour.  windows maps
    "p", "q", "t", "odd" and "shared" to a modulus window, or to one
    window per position.  hua imposes t_(2n+2) t_(2n+3) = t.  With
    corrected, a draw need only be feasible on the residue-corrected
    contour; otherwise the contour is the unit torus.  When no draw is
    accepted, the error names the conditions the last draw violated."""
    check = contour_feasibility if corrected else feasibility_check
    kk = (0,) + tuple(k)
    last: list[str] = []

    for _ in range(cap):
        p = _draw(rng, *windows["p"])
        q = _draw(rng, *windows["q"])
        t = _draw(rng, *windows["t"])
        shared = [_draw(rng, *_window_for(windows, "shared", i)) for i in range(4)]
        if hua:
            shared[2] = t / shared[1]
        tail = math.prod(shared)
        ts: list[complex] = []
        for r in range(1, n + 1):
            odd = _draw(rng, *_window_for(windows, "odd", r - 1))
            expo = kk[r] - kk[r - 1] + kk[n] - 2
            ts.extend([odd, p * q / (t**expo * odd * tail)])
        ts.extend(shared)
        try:
            params = ParamSet(n=n, k=tuple(k), p=p, q=q, t=t, ts=tuple(ts))
        except ValueError as exc:
            last = [str(exc)]
            continue
        feas = check(params)
        if not feas.ok:
            last = feas.violations
            continue
        if accept is not None and not accept(params):
            last = ["rejected by the sampler's acceptance test"]
            continue
        return params, feas.contour
    raise InfeasibleError(
        f"no feasible rank-{n} draw for k={k} after {cap} tries (last violations: {last[:3]})"
    )


def _tower_radius(v: complex, nomes: NomePair) -> float:
    """How near the tower v p^i q^j comes to the unit circle, as the
    largest min(|x|, 1/|x|) over its members: |v| for a base inside the
    circle; for a base outside it, 1/|v| and the moduli of its first p-
    and q-shifts, which lie inside."""
    if abs(v) <= 1.0:
        return abs(v)
    return max(1.0 / abs(v), abs(v * nomes.p), abs(v * nomes.q))


def _sample_an_selberg(seed: int, cfg, n: int = 2, k: tuple[int, ...] = (1, 1)) -> IdentityCase:
    rng = np.random.default_rng([seed, 107, n, *k])
    kid = "".join(str(v) for v in k)
    total = sum(k)
    per_dim = {1: cfg.grid_1d, 2: cfg.grid_2d, 3: cfg.grid_3d}.get(total)
    tol = {1: cfg.tol_1d, 2: cfg.tol_2d, 3: cfg.tol_3d}.get(total)
    note_id = f"an_selberg-n{n}k{kid}-s{seed}"
    if per_dim is None:
        return _infeasible_case(
            "an_selberg", seed, f"total dimension {total} beyond suite caps", note_id
        )
    if n > 2:
        return _infeasible_case(
            "an_selberg", seed, f"no sampling windows exist for rank n={n} > 2", note_id
        )
    windows, corrected, reach = AN_SELBERG_N2.get(tuple(k), AN_SELBERG_N2[(1, 1)])

    def tight(params: ParamSet) -> bool:
        # every pole tower within reach of the circle, on whichever side;
        # a tower u outside it leaves c u and c / u in its residue term
        towers = [v for r in range(1, n + 1) for v in params.vertex_params(r)]
        towers += [params.c * f for v in towers if abs(v) > 1.0 for f in (v, 1.0 / v)]
        return all(_tower_radius(v, params.nomes) <= reach for v in towers)

    try:
        if n == 1:
            params, contour = _sample_rank1(k[0], rng), Contour()
        else:
            params, contour = sample_an_params(
                n, k, rng, windows, accept=tight, corrected=corrected
            )
    except InfeasibleError as exc:
        return _infeasible_case("an_selberg", seed, str(exc), note_id)
    dims = (per_dim,) * total
    return IdentityCase(
        id=note_id,
        family="an_selberg",
        seed=seed,
        grid=GridSpec(dims),
        tol=tol,
        paramset=params,
        budget=math.prod(dims),
        contour=contour,
    )


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


def _sample_aflt_n1_params(rng, lam, mu, hua, accept):
    """Rank-one sampler for interpolation-weighted averages: the two
    pole-carrying slots t2 (for lam) and t6 (for mu) are drawn inside
    their admissible windows and t5 (never a pole carrier) is solved
    from the balancing; under the hua constraint t4 t5 = t the solved
    slot becomes t3 instead."""
    r1 = max(lam.first[0], mu.first[0])
    r2 = max(lam.second[0], mu.second[0])
    depth = lam.first[0] + mu.first[0] + lam.second[0] + mu.second[0]
    if r1 and r2:
        raise InfeasibleError(
            "boxes in both components: the b-slot pole caps multiply to "
            "m^2 |p| |q| while the balancing needs the product above |pq|"
        )
    boxed = (0.44, 0.5) if max(r1, r2) >= 2 else (0.3, 0.36)
    idle = (0.08, 0.14) if depth <= 1 else ((0.06, 0.11) if depth == 2 else (0.04, 0.08))
    if hua and depth:
        # t4 t5 = t removes one free slot: the balancing budget shrinks
        # by |t|, which the idle nome must absorb.
        idle = (0.38 * idle[0], 0.42 * idle[1])
    pw, qw = (boxed, idle) if r1 else ((idle, boxed) if r2 else ((0.12, 0.2), (0.12, 0.2)))
    for _ in range(500):
        p, q, t = _draw(rng, *pw), _draw(rng, *qw), _draw(rng, 0.2, 0.35)
        ctx = SymbolContext(NomePair(p, q), t)
        lo2, hi2 = interp_b_window(lam, ctx)
        hi2 = min(hi2, 0.85)
        t2 = _draw_in_window(rng, max(lo2, 0.05, 0.55 * hi2), hi2)
        lo6, hi6 = interp_b_window(mu, ctx)
        hi6 = min(hi6, 0.85)
        t6 = _draw_in_window(rng, max(lo6, 0.05, 0.55 * hi6), hi6)
        if t2 is None or t6 is None:
            continue
        t1 = _draw(rng, 0.55, 0.85)
        if hua:
            t4 = _draw(rng, 0.5, 0.85)
            t5 = t / t4
            t3 = p * q / (t1 * t2 * t4 * t5 * t6)
            solved = t3
        else:
            t3, t4 = _draw(rng, 0.55, 0.85), _draw(rng, 0.55, 0.85)
            t5 = p * q / (t1 * t2 * t3 * t4 * t6)
            solved = t5
        if not 0.05 <= abs(solved) <= 0.88:
            continue
        try:
            params = ParamSet(1, (1,), p, q, t, (t1, t2, t3, t4, t5, t6))
        except ValueError:
            continue
        if not feasibility_check(params).ok:
            continue
        if accept is not None and not accept(params):
            continue
        return params
    raise InfeasibleError("no feasible rank-one interpolation-average draw")

AFLT_N2_SHAPES = [
    (Bipartition.of((), (1,)), Bipartition.of((), (1,))),
    (Bipartition.of((), (1,)), ZERO),
    (ZERO, Bipartition.of((), (1,))),
]


def _an_interp_accept(lam, mu, n):
    """Feasibility hook adding the interpolation pole towers of both
    factors to the density margins."""

    def accept(params: ParamSet) -> bool:
        ctx = SymbolContext(params.nomes, params.t)
        b_lam = params.c ** (1 - n) * params.ts[1]
        entries = _interp_pole_entries(lam, b_lam, ctx)
        entries += _interp_pole_entries(mu, params.ts[2 * n + 3], ctx)
        return not _margins_ok(entries)

    return accept


def _sample_an_aflt(
    seed: int,
    cfg,
    n: int = 1,
    family: str = "an_aflt",
    shapes: tuple[Bipartition, Bipartition] | None = None,
    tag: int = 1,
) -> IdentityCase:
    """Sampler shared by an_aflt, an_kadell and an_hua_kadell; tag keeps
    their random streams apart."""
    if n > 2:
        return _infeasible_case(
            family, seed, f"no sampling windows exist for rank n={n} > 2", f"{family}-n{n}-s{seed}"
        )
    rng = np.random.default_rng([seed, 108, n, tag])
    hua = family == "an_hua_kadell"
    if shapes is None:
        if family == "an_kadell":
            lam = AFLT_N1_SHAPES[seed % len(AFLT_N1_SHAPES)][0]
            mu = ZERO
        else:
            pool = AFLT_N1_SHAPES if n == 1 else AFLT_N2_SHAPES
            lam, mu = pool[seed % len(pool)]
    else:
        lam, mu = shapes
    k = (1,) * n
    accept = _an_interp_accept(lam, mu, n)
    try:
        if n == 1:
            params = _sample_aflt_n1_params(rng, lam, mu, hua, accept)
        else:
            # Interpolation pole towers at rank two force the boxes of
            # both shapes into one component and a strongly asymmetric
            # nome pair; see the contour analysis in the ledger.
            qboxes = lam.first.size + mu.first.size == 0
            small, large = ((0.1, 0.13), (0.48, 0.52))
            base = {
                "p": small if qboxes else large,
                "q": large if qboxes else small,
                "t": (0.07, 0.09),
                "odd": [(0.6, 0.78), (0.1, 0.2)],
                "shared": [(0.78, 0.86), (0.78, 0.86), (0.78, 0.86), (0.3, 0.44)],
            }
            params, _ = sample_an_params(2, k, rng, base, hua=hua, accept=accept)
    except InfeasibleError as exc:
        return _infeasible_case(family, seed, str(exc), note_id=f"{family}-n{n}-s{seed}")
    grid_n = cfg.grid_1d if n == 1 else cfg.grid_2d_aflt
    tol = 1e-8 if n == 1 else 1e-5
    return IdentityCase(
        id=f"{family}-n{n}-{lam}-{mu}-s{seed}",
        family=family,
        seed=seed,
        grid=GridSpec((grid_n,) * n),
        tol=tol,
        paramset=params,
        shapes=(lam, mu),
        budget=grid_n**n,
    )


def _aflt_integrand(params: ParamSet, lam, mu, ctx, cache, plain_mu=False):
    n, ts, c = params.n, params.ts, params.c

    def lam_fn(z):
        return interp_nonskew(lam, (z,), c ** (1 - n) * ts[0], c ** (1 - n) * ts[1], ctx, cache)

    if plain_mu:

        def mu_fn(z):
            return interp_nonskew(mu, (z,), ts[2 * n], ts[2 * n + 3], ctx, cache)

    else:
        mu_fn = _hybrid_mu_fn(mu, ts[2 * n - 2 :], ctx, cache)

    extra = {1: [lam_fn]} if n > 1 else {1: [lam_fn, mu_fn]}
    if n > 1:
        extra[n] = [mu_fn]
    return IntegrandDescriptor(params, extra_unary=extra).build()


def _eval_an_aflt(case: IdentityCase) -> Evaluation:
    """The integral over the density's normalizer is compared with the
    closed form of the interpolation-function average."""
    params = case.paramset
    lam, mu = case.shapes
    ctx = SymbolContext(params.nomes, params.t)
    cache = TableCache(seed=case.seed)
    hua = case.family == "an_hua_kadell"
    integrand = _aflt_integrand(params, lam, mu, ctx, cache, plain_mu=hua)
    notes = ""
    if hua:
        notes = (
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
    rng = np.random.default_rng([seed, 109])
    variant = variant or ("base" if seed % 2 == 0 else "recursion")
    shapes = [ZERO, Bipartition.of((1,), ()), Bipartition.of((), (1,))]
    mu = shapes[seed % len(shapes)]
    r1, r2 = mu.first[0], mu.second[0]
    if variant == "base":
        pw = (0.25, 0.35) if r1 >= 1 else (0.12, 0.2)
        qw = (0.25, 0.35) if r2 >= 1 else (0.12, 0.2)
    else:
        # the recursion needs |t8| >= ~0.3 for T > |t|, so a box on the
        # last node demands the matching nome near 0.4
        pw = (0.38, 0.45) if r1 >= 1 else (0.1, 0.2)
        qw = (0.38, 0.45) if r2 >= 1 else (0.1, 0.2)

    if variant == "base":
        k0 = (seed // 2) % 2
        for _ in range(400):
            p, q = _draw(rng, *pw), _draw(rng, *qw)
            t = _draw(rng, 0.25, 0.4)
            ctx = SymbolContext(NomePair(p, q), t)
            lo, hi = interp_b_window(mu, ctx)
            t6 = _draw_in_window(rng, max(lo, 0.05), min(hi, 0.75))
            if t6 is None:
                continue
            t3, t4, t5 = (_draw(rng, 0.45, 0.7) for _ in range(3))
            d = cmath.sqrt(p * q / (t3 * t4 * t5 * t6))
            t1 = _draw(rng, 0.3, 0.7)
            t2 = d**2 * t**k0 / t1
            x1 = _unit(rng)
            checks = [(t, "t"), (t3, "t3"), (t4, "t4"), (t5, "t5"), (t6, "t6"), (d, "d x^+-")]
            checks += _interp_pole_entries(mu, t6, ctx)
            if abs(d) < 0.1 or _margins_ok(checks):
                continue
            return _one_dim_case(
                f"prop_xselberg-base-k0{k0}-{mu}-s{seed}", "prop_xselberg_base", seed, cfg, 1e-6,
                params={
                    "p": p, "q": q, "t": t, "t1": t1, "t2": t2, "t3": t3,
                    "t4": t4, "t5": t5, "t6": t6, "d": d, "x1": x1,
                },
                shapes=(mu, ZERO),
                extra={"variant": "base", "k0": k0},
            )
        return _infeasible_case("prop_xselberg_base", seed, "no feasible base draw")

    # recursion variant: n = 2, (k0, k1, k2) = (0, 1, 1).  The recursed
    # kernel parameter obeys |d| = sqrt(|t|/T) with T = |t5 t6 t7 t8|,
    # so T must exceed |t|.
    for _ in range(400):
        p, q = _draw(rng, *pw), _draw(rng, *qw)
        t = _draw(rng, 0.14, 0.2)
        c = cmath.sqrt(p * q / t)
        ctx = SymbolContext(NomePair(p, q), t)
        lo, hi = interp_b_window(mu, ctx)
        t8 = _draw_in_window(rng, max(lo, 0.3), min(hi, 0.6))
        if t8 is None:
            continue
        t5, t6, t7 = (_draw(rng, 0.72, 0.86) for _ in range(3))
        tail = t5 * t6 * t7 * t8
        t1 = _draw(rng, 0.35, 0.6)
        t2 = p * q / (t1 * tail)
        t3 = _draw(rng, 0.3, 0.6)
        t4 = p * q * t / (t3 * tail)
        d = cmath.sqrt(t1 * t2) / c
        x1 = _unit(rng)
        checks = [
            (t, "t"), (c, "c"), (p * q / t, "pq/t"),
            (t * c / t3, "t c / t3"), (t * c / t4, "t c / t4"),
            (t3, "t3"), (t4, "t4"), (t5, "t5"), (t6, "t6"), (t7, "t7"), (t8, "t8"),
            (d, "d x^+-"), (c * d, "c d (recursed kernel)"),
        ]
        checks += _interp_pole_entries(mu, t8, ctx)
        if abs(d) < 0.08 or _margins_ok(checks):
            continue
        ts = (t1, t2, t3, t4, t5, t6, t7, t8)
        return IdentityCase(
            id=f"prop_xselberg-rec-{mu}-s{seed}",
            family="prop_xselberg_base",
            seed=seed,
            grid=GridSpec((cfg.grid_2d_rec,) * 2),
            tol=1e-6,
            params={f"t{i + 1}": v for i, v in enumerate(ts)}
            | {"p": p, "q": q, "t": t, "c": c, "d": d, "x1": x1},
            shapes=(mu, ZERO),
            extra={"variant": "recursion"},
            budget=cfg.grid_2d_rec**2,
        )
    return _infeasible_case("prop_xselberg_base", seed, "no feasible recursion draw")


def _eval_xselberg(case: IdentityCase) -> Evaluation:
    pr = case.params
    mu = case.shapes[0]
    p, q, t = pr["p"], pr["q"], pr["t"]
    ctx = SymbolContext(NomePair(p, q), t)
    nomes = ctx.nomes
    cache = TableCache(seed=case.seed)
    x1, d = pr["x1"], pr["d"]

    if case.extra["variant"] == "base":
        ts6 = tuple(pr[f"t{i}"] for i in range(1, 7))
        mu_fn = _hybrid_mu_fn(mu, ts6, ctx, cache)
        integrand = _one_variable_integrand(
            nomes,
            lambda z: kernel_k1(z, x1, d, ctx),
            mu_fn,
            vertex_unary_fn(ts6[2:], t, nomes),
        )
        return Evaluation(xselberg_rhs(1, (1,), (x1,), ts6, d, mu, ctx, 1.0), integrand)

    ts = tuple(pr[f"t{i}"] for i in range(1, 9))
    c = pr["c"]
    params = ParamSet(2, (1, 1), p, q, t, ts)

    def kern_fn(z):
        return kernel_k1(z, x1, d, ctx)

    mu_fn = _hybrid_mu_fn(mu, ts[2:], ctx, cache)
    descriptor = IntegrandDescriptor(
        params,
        extra_unary={1: [kern_fn], 2: [mu_fn]},
        drop_vertex_params={1: (0, 1)},
    )
    pref_args = [c * d * t * x1 / ts[2], c * d * t / (x1 * ts[2])]
    pref_args += [c * d * t * x1 / ts[3], c * d * t / (x1 * ts[3])]
    rhs = elliptic_gamma_multi(pref_args, nomes)
    rhs *= xselberg_rhs(1, (1,), (x1,), ts[2:], c * d, mu, ctx, 1.0)
    return Evaluation(rhs, descriptor.build())


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
    rng = np.random.default_rng([seed, 110])
    lam, mu = EQK_SHAPES[seed % len(EQK_SHAPES)]
    for _ in range(600):
        p = _draw(rng, 0.1, 0.15)
        q = _draw(rng, 0.42, 0.5) if (lam.second.size or mu.second.size) else _draw(rng, 0.2, 0.3)
        t = _draw(rng, 0.1, 0.16)
        c = cmath.sqrt(p * q / t)
        ctx = SymbolContext(NomePair(p, q), t)
        t5, t6, t7 = (_draw(rng, 0.75, 0.88) for _ in range(3))
        lo8, hi8 = interp_b_window(mu, ctx)
        t8 = _draw_in_window(rng, max(lo8, 0.38), min(hi8, 0.8))
        if t8 is None:
            continue
        tail = t5 * t6 * t7 * t8
        lo2, hi2 = interp_b_window(lam, ctx)
        # lam rides on level 1 through c^(-1) t2 and on the recursed
        # rank-one side through t2 itself; respect both windows.
        t1 = _draw(rng, 0.55, 0.8)
        t2 = p * q / (t1 * tail)
        t3 = _draw(rng, math.sqrt(abs(t * t1 * t2)) * 0.8, math.sqrt(abs(t * t1 * t2)) * 1.25)
        t4 = t * t1 * t2 / t3
        params_ok = True
        b_lam_level = t2 / c
        checks = [
            (t, "t"), (c, "c"), (p * q / t, "pq/t"),
            (t1 / c, "c^-1 t1"), (t2 / c, "c^-1 t2"),
            (t * c / t3, "t c/t3"), (t * c / t4, "t c/t4"),
            (t3, "t3"), (t4, "t4"), (t5, "t5"), (t6, "t6"), (t7, "t7"), (t8, "t8"),
            (t1, "t1 (rank-one side)"), (t2, "t2 (rank-one side)"),
        ]
        checks += _interp_pole_entries(lam, b_lam_level, ctx)
        checks += _interp_pole_entries(lam, t2, ctx)
        checks += _interp_pole_entries(mu, t8, ctx)
        if not (lo2 <= abs(t2) <= hi2) or _margins_ok(checks):
            continue
        ts = (t1, t2, t3, t4, t5, t6, t7, t8)
        try:
            ParamSet(2, (1, 1), p, q, t, ts)
        except ValueError:
            continue
        return IdentityCase(
            id=f"equal_k-{lam}-{mu}-s{seed}",
            family="equal_k_recursion",
            seed=seed,
            grid=GridSpec((cfg.grid_2d_rec,) * 2),
            tol=1e-6,
            params={f"t{i + 1}": v for i, v in enumerate(ts)}
            | {"p": p, "q": q, "t": t, "c": c},
            shapes=(lam, mu),
            extra={"grid_1d": cfg.grid_1d},
            budget=cfg.grid_2d_rec**2,
        )
    return _infeasible_case("equal_k_recursion", seed, "no feasible draw")


def _eval_equal_k(case: IdentityCase) -> Evaluation:
    pr = case.params
    lam, mu = case.shapes
    p, q, t, c = pr["p"], pr["q"], pr["t"], pr["c"]
    ts = tuple(pr[f"t{i}"] for i in range(1, 9))
    ctx = SymbolContext(NomePair(p, q), t)
    nomes = ctx.nomes
    cache = TableCache(seed=case.seed)
    params = ParamSet(2, (1, 1), p, q, t, ts)

    def lam_fn(z):
        return interp_nonskew(lam, (z,), ts[0] / c, ts[1] / c, ctx, cache)

    mu_fn = _hybrid_mu_fn(mu, ts[2:], ctx, cache)
    integrand = IntegrandDescriptor(params, extra_unary={1: [lam_fn], 2: [mu_fn]}).build()

    # Right side: prefactor times the rank-one integral with t3, t4 removed.
    pref_num = [ts[0] * ts[1] / c**2]
    pref_den = [ts[0] * ts[1]]
    for r in (0, 1):
        for s in (2, 3):
            pref_num.append(t * ts[r] / ts[s])
    rhs = elliptic_gamma_multi(pref_num, nomes) / elliptic_gamma_multi(pref_den, nomes)
    rhs *= delta0_bi(lam, ts[0] / ts[1], [t * ts[0] / ts[2], t * ts[0] / ts[3]], ctx)

    def lam1_fn(z):
        return interp_nonskew(lam, (z,), ts[0], ts[1], ctx, cache)

    unary = vertex_unary_fn((ts[0], ts[1], ts[4], ts[5], ts[6], ts[7]), t, nomes)
    inner = _one_variable_integrand(nomes, unary, lam1_fn, mu_fn)
    inner_res = integrate_adaptive(
        inner, GridSpec((case.extra["grid_1d"],)), case.tol * 0.1, 4 * case.extra["grid_1d"]
    )
    rhs *= inner_res.value
    return Evaluation(rhs, integrand)


# ---------------------------------------------------------------------------
# Family: kernel_consistency
# ---------------------------------------------------------------------------


def _sample_kernel_consistency(seed: int, cfg, variant: str | None = None) -> IdentityCase:
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
    return IdentityCase(
        id=f"kernel_consistency-{variant}-s{seed}",
        family="kernel_consistency",
        seed=seed,
        grid=GridSpec((cfg.grid_1d,)),
        tol=1e-6,
        params=params,
        extra={"variant": variant, "inner_grid": cfg.grid_1d},
    )


def _eval_kernel_consistency(case: IdentityCase) -> Evaluation:
    pr = case.params
    ctx = SymbolContext(NomePair(pr["p"], pr["q"]), pr["t"])
    nomes = ctx.nomes
    c = pr["c"]
    x = (pr["x1"], pr["x2"])
    variant = case.extra["variant"]
    inner = case.extra["inner_grid"]
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

    from ellsel.binomials import draw_generic_ab, endpoint_full, endpoint_zero, solve_binomial_table

    ga, gb = draw_generic_ab(lam, ctx, rng)
    table = solve_binomial_table(lam, ga, gb, ctx, rng_seed=seed)
    out.append(("binomial_endpoint_zero", rel(table[ZERO], endpoint_zero(lam, ga, gb, ctx)), 1e-8))
    out.append(("binomial_endpoint_full", rel(table[lam], endpoint_full(lam, ga, gb, ctx)), 1e-8))
    out.append(("binomial_table_residual", table.residual, 1e-9))

    mu_b1 = sub_bipartitions(lam)[1]
    b1 = binomial(BinomialQuery(lam, mu_b1, ga, 1.0, ctx, bracket=(0.5,)), cache)
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
        res, ratio = branching_residual(
            lam2, ZERO, vs, w, _draw(rng, 0.4, 0.9), a, b, ctx, cache, with_ratio=True
        )
        if ratio <= 50:
            break
    out.append(("skew_branching", res, 1e-8))
    for _ in range(40):
        res, ratio = hybrid_branching_residual(
            lam2, (_unit(rng),), _draw(rng, 0.4, 0.9), _draw(rng, 0.4, 0.9), a, b, ctx, cache,
            with_ratio=True,
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
    return IdentityCase(
        id=f"algebraic-s{seed}",
        family="algebraic_suite",
        seed=seed,
        grid=GridSpec((8,)),
        tol=1.0,
    )


# ---------------------------------------------------------------------------
# Case plumbing
# ---------------------------------------------------------------------------


def _shapes_str(case: IdentityCase) -> str:
    if not case.shapes:
        return ""
    return ";".join(str(s) for s in case.shapes)


def _infeasible_case(family: str, seed: int, reason: str, note_id: str = "") -> IdentityCase:
    return IdentityCase(
        id=note_id or f"{family}-s{seed}",
        family=family,
        seed=seed,
        grid=GridSpec((8,)),
        tol=1.0,
        extra={"infeasible": reason},
    )


def _infeasible_report(case: IdentityCase, reason: str) -> VerificationReport:
    return VerificationReport(
        id=case.id,
        family=case.family,
        status="infeasible",
        seed=case.seed,
        grid="x".join(str(n) for n in case.grid.dims),
        tol=case.tol,
        params=case.params,
        shapes=_shapes_str(case),
        notes=reason,
    )


def _report(case: IdentityCase, ev: Evaluation, res: QuadResult) -> VerificationReport:
    lhs = res.value if ev.norm is None else res.value / ev.norm
    rhs = ev.rhs
    rel = ev.rel_err if ev.rel_err is not None else abs(lhs - rhs) / max(abs(rhs), 1e-300)
    if res.budget_exhausted and rel > case.tol:
        status = "budget"
    else:
        status = "pass" if rel <= case.tol and np.isfinite(rel) else "fail"
    rep = VerificationReport(
        id=case.id,
        family=case.family,
        status=status,
        seed=case.seed,
        lhs=lhs,
        rhs=rhs,
        rel_err=rel,
        doubling_estimate=res.doubling_estimate,
        grid=ev.grid or "x".join(str(n) for n in case.grid.dims),
        tol=case.tol,
        params=dict(case.params),
        shapes=_shapes_str(case),
        runtime_ms=res.runtime_ms,
        notes=ev.notes,
    )
    ps = case.paramset
    if ps is not None:
        rep.n = ps.n
        rep.k = ps.k
        rep.params = {
            "p": ps.p,
            "q": ps.q,
            "t": ps.t,
            "c": ps.c,
            **{f"t{i + 1}": v for i, v in enumerate(ps.ts)},
        }
    return rep


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
    threads: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "HarnessConfig":
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
    and `evaluate(case)` gives its Evaluation.  `residues`: the main
    integrand is the bare density on case.contour, so residue terms apply.
    `shapes_option`: the sampler option that `ellsel case --shapes` fills,
    "mu" for one bipartition or "shapes" for a pair."""

    sample: Callable[..., IdentityCase]
    evaluate: Callable[[IdentityCase], Evaluation]
    residues: bool = False
    shapes_option: str | None = None


FAMILY_TABLE = {
    "beta_k1": Family(_sample_beta_k1, _eval_selberg, residues=True),
    "selberg_A1": Family(_sample_selberg_A1, _eval_selberg, residues=True),
    "vdBult": Family(_sample_vdbult, _eval_vdbult, shapes_option="mu"),
    "kernel_decomp": Family(_sample_kernel_decomp, _eval_kernel_decomp),
    "key_theorem": Family(_sample_key_theorem, _eval_key_theorem, shapes_option="mu"),
    "prop_RK": Family(_sample_prop_rk, _eval_prop_rk, shapes_option="mu"),
    "an_selberg": Family(_sample_an_selberg, _eval_an_selberg, residues=True),
    "an_aflt": Family(
        partial(_sample_an_aflt, family="an_aflt", tag=1), _eval_an_aflt, shapes_option="shapes"
    ),
    "an_kadell": Family(
        partial(_sample_an_aflt, family="an_kadell", tag=2), _eval_an_aflt, shapes_option="shapes"
    ),
    "an_hua_kadell": Family(
        partial(_sample_an_aflt, family="an_hua_kadell", tag=3),
        _eval_an_aflt,
        shapes_option="shapes",
    ),
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


def params_options(family: str, params: ParamSet) -> dict:
    """Sampler options that size an an_selberg case for an explicit
    parameter set: its grid dimension and tolerance follow n and k."""
    if family == "an_selberg":
        return {"n": params.n, "k": tuple(params.k)}
    return {}


def place_params(case: IdentityCase, params: ParamSet) -> None:
    """Run case at an explicit parameter set.  The contour-aware check
    picks its contour, or marks the case infeasible naming each violated
    condition; a set that needs residue terms is infeasible for families
    whose integrand carries factors beyond the density."""
    case.paramset = params
    feas = contour_feasibility(params)
    if not feas.ok:
        case.extra["infeasible"] = "; ".join(feas.violations)
    elif feas.contour.residues and not FAMILY_TABLE[case.family].residues:
        case.extra["infeasible"] = (
            f"{case.family} is evaluated on the unit torus only; these parameters "
            f"need the contour {feas.contour.describe()}"
        )
    else:
        case.contour = feas.contour


def run_case(case: IdentityCase) -> VerificationReport:
    """Evaluate one case: the family's Evaluation, then the main integral
    by adaptive quadrature on case.grid (runtime_ms times the quadrature;
    for a family without one, the evaluation), then the status."""
    if "infeasible" in case.extra:
        return _infeasible_report(case, case.extra["infeasible"])
    start = time.perf_counter()
    try:
        ev = FAMILY_TABLE[case.family].evaluate(case)
        if ev.integrand is None:
            res = QuadResult(ev.lhs, 0.0, 0, int((time.perf_counter() - start) * 1000))
        else:
            res = integrate_adaptive(ev.integrand, case.grid, case.tol * 0.1, case.budget)
    except (ContourError, InfeasibleError) as exc:
        return _infeasible_report(case, str(exc))
    return _report(case, ev, res)


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


def run_suite(suite: str, seeds: int, cfg: HarnessConfig | None = None) -> list[VerificationReport]:
    cfg = cfg or HarnessConfig()
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    cases = []
    for family, options in SUITES[suite]:
        for seed in range(seeds):
            cases.append(sample_case(family, seed, cfg, **options))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            reports = list(pool.map(run_case, cases))
    else:
        reports = [run_case(case) for case in cases]
    return sorted(reports, key=lambda r: r.id)


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)


def reports_to_csv(reports: list[VerificationReport]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(report_csv_row(rep) for rep in reports)
    return out.getvalue()
