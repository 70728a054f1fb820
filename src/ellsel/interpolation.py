"""BC-symmetric elliptic interpolation functions.

Three evaluators are provided, all routed through numerically solved
binomial tables:

* interp_nonskew  -- R*_lam(x_1..x_k; a, b), via the connection sum that
  expands in the Cauchy-type basis (so the constrained locus
  t^k a b = pq collapses to a single fully factored term);
* interp_skew     -- R*_{lam/nu}([v_1..v_2k]; a, b), the double-binomial
  sum over intermediate shapes;
* interp_hybrid   -- R*_mu(x_1..x_k; v_1..v_2l; a, b), the normalised
  skew value on the doubled alphabet [t^(1/2) x^+-, t^(1/2) v].

The x arguments may be numpy arrays; everything downstream broadcasts,
which is what the quadrature grids rely on.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from ellsel.binomials import BinomialQuery, TableCache, binomial
from ellsel.partitions import ZERO, Bipartition, sub_bipartitions
from ellsel.symbols import SymbolContext, delta0_bi

TOWER_FLOOR = 1e-6


def interp_nonskew(lam: Bipartition, xs, a, b, ctx: SymbolContext, cache: TableCache | None = None):
    """R*_lam(x_1..x_k; a, b); zero when a component of lam is longer
    than k.  Entries of xs may be arrays."""
    cache = cache if cache is not None else TableCache()
    k = len(xs)
    if lam.max_length > k:
        return 0.0
    if lam.is_zero():
        shape = np.broadcast(*[np.asarray(x) for x in xs]).shape if xs else ()
        return 1.0 if shape == () else np.ones(shape, dtype=np.complex128)
    t, pq = ctx.t, ctx.pq
    big_a = t ** (k - 1) * a / b
    big_b = t**k * a * b / pq
    w0 = pq * a / (t * b)
    args = []
    for x in xs:
        args.append(pq * np.asarray(x) / (t * b))
        args.append(pq / (t * b * np.asarray(x)))
    total = 0.0
    for mu in sub_bipartitions(lam):
        coeff = binomial(BinomialQuery(lam, mu, big_a, big_b, ctx, bracket=(w0,)), cache)
        if coeff == 0.0:
            continue
        total = total + coeff * delta0_bi(mu, pq / (t * b**2), args, ctx)
    return total


def interp_skew(
    lam: Bipartition,
    nu: Bipartition,
    vs,
    a,
    b,
    ctx: SymbolContext,
    cache: TableCache | None = None,
    V=None,
):
    """Skew interpolation function R*_{lam/nu}([v_1..v_2k]; a, b).

    V, the product of all bracket variables, may be passed explicitly;
    that is required when some entries are arrays whose product is known
    to be a constant (the hybrid evaluator does this)."""
    cache = cache if cache is not None else TableCache()
    if not lam.contains(nu):
        return 0.0
    if V is None:
        V = 1.0
        for v in vs:
            V = V * v
        if np.asarray(V).ndim != 0:
            raise ValueError("array-valued bracket variables need an explicit scalar V")
        V = complex(V)
    pq = ctx.pq
    args = [pq / (b * np.asarray(v)) for v in vs]
    total = 0.0
    for mu in sub_bipartitions(lam):
        if not mu.contains(nu):
            continue
        outer = binomial(BinomialQuery(lam, mu, a / b, a * b / pq, ctx), cache)
        if outer == 0.0:
            continue
        inner = binomial(
            BinomialQuery(mu, nu, pq / b**2, pq * V / (a * b), ctx), cache
        )
        if inner == 0.0:
            continue
        total = total + delta0_bi(mu, pq / b**2, args, ctx) * outer * inner
    return total


def interp_hybrid(
    lam: Bipartition,
    xs,
    vs,
    a,
    b,
    ctx: SymbolContext,
    cache: TableCache | None = None,
    branch: int = +1,
    check_branch: bool = False,
):
    """Hybrid interpolation function R*_lam(x_1..x_k; v_1..v_2l; a, b).

    branch picks the square root of t; the value is branch independent,
    which check_branch asserts by evaluating both."""
    if len(vs) % 2 != 0:
        raise ValueError("hybrid variables come in pairs")
    cache = cache if cache is not None else TableCache()
    k, ell = len(xs), len(vs) // 2
    t = ctx.t
    vprod = 1.0 + 0.0j
    for v in vs:
        vprod *= complex(v)
    val = _hybrid_branch(lam, xs, vs, a, b, ctx, cache, branch * cmath.sqrt(t), vprod, k, ell)
    if check_branch:
        other = _hybrid_branch(
            lam, xs, vs, a, b, ctx, cache, -branch * cmath.sqrt(t), vprod, k, ell
        )
        scale = max(float(np.max(np.abs(np.asarray(val)))), 1e-300)
        diff = float(np.max(np.abs(np.asarray(val) - np.asarray(other))))
        if diff > 1e-8 * scale:
            raise AssertionError(
                f"hybrid value depends on the branch of t^(1/2): rel diff {diff / scale:.3g}"
            )
    return val


def _hybrid_branch(lam, xs, vs, a, b, ctx, cache, rt, vprod, k, ell):
    skew_vars = []
    for x in xs:
        skew_vars.append(rt * np.asarray(x))
        skew_vars.append(rt / np.asarray(x))
    for v in vs:
        skew_vars.append(rt * np.asarray(v))
    t = ctx.t
    big_v = t ** (k + ell) * vprod  # x^+- pairs cancel exactly
    num = interp_skew(
        lam, ZERO, skew_vars, t ** (k - 1) * rt * a, rt * b, ctx, cache, V=big_v
    )
    den = delta0_bi(lam, t ** (k - 1) * a / b, [big_v], ctx)
    return num / den


def branching_residual(
    lam: Bipartition,
    nu: Bipartition,
    vs,
    w1: complex,
    w2: complex,
    a: complex,
    b: complex,
    ctx: SymbolContext,
    cache: TableCache | None = None,
    with_ratio: bool = False,
):
    """Relative residual of the skew branching rule: peeling the pair
    (w1, w2) off the bracket list equals a binomial-weighted sum of skew
    values at the shifted parameter a/(w1 w2).

    with_ratio also returns the cancellation ratio (total term magnitude
    over the result), the measure of how much precision survives."""
    cache = cache if cache is not None else TableCache()
    lhs = interp_skew(lam, nu, tuple(vs) + (w1, w2), a, b, ctx, cache)
    rhs = 0.0
    total = 0.0
    for mu in sub_bipartitions(lam):
        if not mu.contains(nu):
            continue
        coeff = binomial(
            BinomialQuery(lam, mu, a / b, w1 * w2, ctx, bracket=(a / w1, a / w2)), cache
        )
        if coeff == 0.0:
            continue
        term = coeff * interp_skew(mu, nu, vs, a / (w1 * w2), b, ctx, cache)
        rhs += term
        total += abs(term)
    scale = max(abs(rhs), abs(lhs), 1e-300)
    residual = abs(lhs - rhs) / scale
    if with_ratio:
        return residual, total / scale
    return residual


def hybrid_branching_residual(
    lam: Bipartition,
    xs,
    v1: complex,
    v2: complex,
    a: complex,
    b: complex,
    ctx: SymbolContext,
    cache: TableCache | None = None,
    with_ratio: bool = False,
):
    """Relative residual of the hybrid branching rule: R*_lam(x; v1, v2;
    a t, b) expands over binomials times plain R*_mu(x; a/(v1 v2), b)."""
    cache = cache if cache is not None else TableCache()
    k = len(xs)
    t, pq = ctx.t, ctx.pq
    lhs = interp_hybrid(lam, xs, (v1, v2), a * t, b, ctx, cache)
    rhs = 0.0
    total = 0.0
    for mu in sub_bipartitions(lam):
        coeff = binomial(
            BinomialQuery(
                lam,
                mu,
                t**k * a / b,
                t * v1 * v2,
                ctx,
                bracket=(t**k * a / v1, t**k * a / v2, pq * a / (t * b * v1 * v2)),
            ),
            cache,
        )
        if coeff == 0.0:
            continue
        term = coeff * interp_nonskew(mu, xs, a / (v1 * v2), b, ctx, cache)
        rhs += term
        total += abs(term)
    scale = max(abs(rhs), abs(lhs), 1e-300)
    residual = abs(lhs - rhs) / scale
    if with_ratio:
        return residual, total / scale
    return residual


@dataclass
class PoleMap:
    """Pole locations of an interpolation factor in each variable:
    sequences converging to zero plus their diverging reciprocals."""

    inward: list = field(default_factory=list)  # (location, label)
    outward: list = field(default_factory=list)


def pole_map(mu: Bipartition, b: complex, ctx: SymbolContext) -> PoleMap:
    """Poles of R*_mu(..; a, b) (plain or hybrid) in each variable,
    under an integrand that also carries the univariate factor
    Gamma(b z^+-) (as all the densities here do).

    Component 1 contributes b^-1 t^(1-j) q^(N+1) p^l and b t^(j-1) q^N p^-l
    towers (l up to the row length); component 2 swaps p and q.  Rows
    populated in BOTH components additionally leave a net cross pole at
    b t^(i-1) p^-l1 q^-l2 (the single Gamma(b/z) zero there cancels only
    one of the two theta-denominator zeros); the contour induced by the
    kernel derivation must enclose it, which no unit torus can do while
    keeping its reciprocal outside.  Towers are truncated once the shift
    factor drops below TOWER_FLOOR."""
    p, q, t = ctx.p, ctx.q, ctx.t
    pm = PoleMap()

    for i in range(1, min(mu.first.length, mu.second.length) + 1):
        for l1 in range(1, mu.first[i - 1] + 1):
            for l2 in range(1, mu.second[i - 1] + 1):
                loc = b * t ** (i - 1) * p ** (-l1) * q ** (-l2)
                label = f"cross row {i}: b t^({i}-1) p^-{l1} q^-{l2}"
                pm.inward.append((loc, label))
                pm.outward.append((1.0 / loc, label + " (reciprocal)"))

    def add_towers(comp, s, o, s_name, o_name, tag):
        # s climbs the tower (powers N, N+1, ...); o carries the finite
        # exponent up to the row length.
        for j in range(1, comp.length + 1):
            for ell in range(1, comp[j - 1] + 1):
                for n in range(201):
                    shift = s ** (n + 1) * o**ell
                    if abs(shift) < TOWER_FLOOR and n > 0:
                        break
                    loc = t ** (1 - j) / b * shift
                    label = f"{tag}: b^-1 t^(1-{j}) {s_name}^{n + 1} {o_name}^{ell}"
                    pm.inward.append((loc, label))
                    pm.outward.append((1.0 / loc, label + " (reciprocal)"))
                for n in range(201):
                    shift = s**n * o ** (-ell)
                    if abs(shift) < TOWER_FLOOR and n > 0:
                        break
                    loc = b * t ** (j - 1) * shift
                    label = f"{tag}: b t^({j}-1) {s_name}^{n} {o_name}^-{ell}"
                    pm.inward.append((loc, label))
                    pm.outward.append((1.0 / loc, label + " (reciprocal)"))

    add_towers(mu.first, q, p, "q", "p", "comp1")
    add_towers(mu.second, p, q, "p", "q", "comp2")
    return pm
