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
which is what the quadrature grids rely on.  pole_bases lists the pole
towers of R*_mu as monomials and pole_map evaluates them at b.  An
InterpFactor declares one factor of a case's integrands; the samplers'
log-modulus polytope (ellsel.polytope) bounds its pole_map.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ellsel.binomials import TableCache, binomial_column, binomial_row
from ellsel.densities import monomial
from ellsel.partitions import ZERO, Bipartition, sub_bipartitions
from ellsel.symbols import SymbolContext, delta0_bi, delta0_bi_shapes


def interp_nonskew(lam: Bipartition, xs, a, b, ctx: SymbolContext, cache: TableCache | None = None):
    """R*_lam(x_1..x_k; a, b); zero when a component of lam is longer
    than k.  Entries of xs may be arrays."""
    cache = cache if cache is not None else TableCache()
    k = len(xs)
    if lam.max_length > k or lam.is_zero():
        shape = np.broadcast(*[np.asarray(x) for x in xs]).shape if xs else ()
        fill = 0.0 if lam.max_length > k else 1.0
        return fill if shape == () else np.full(shape, fill, dtype=np.complex128)
    t, pq = ctx.t, ctx.pq
    big_a = t ** (k - 1) * a / b
    big_b = t**k * a * b / pq
    w0 = pq * a / (t * b)
    args = []
    for x in xs:
        args.append(pq * np.asarray(x) / (t * b))
        args.append(pq / (t * b * np.asarray(x)))
    mus = sub_bipartitions(lam)
    coeffs = binomial_row(lam, mus, big_a, big_b, ctx, cache, bracket=(w0,))
    live = [(mu, coeff) for mu, coeff in zip(mus, coeffs) if coeff != 0.0]
    deltas = delta0_bi_shapes([mu for mu, _ in live], pq / (t * b**2), args, ctx)
    total = 0.0
    for (_, coeff), delta in zip(live, deltas):
        total = total + coeff * delta
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
    mus = [mu for mu in sub_bipartitions(lam) if mu.contains(nu)]
    outers = binomial_row(lam, mus, a / b, a * b / pq, ctx, cache)
    kept = [(mu, outer) for mu, outer in zip(mus, outers) if outer != 0.0]
    inners = binomial_column([mu for mu, _ in kept], nu, pq / b**2, pq * V / (a * b), ctx, cache)
    live = [(mu, outer, inner) for (mu, outer), inner in zip(kept, inners) if inner != 0.0]
    deltas = delta0_bi_shapes([mu for mu, _, _ in live], pq / b**2, args, ctx)
    total = 0.0
    for (_, outer, inner), delta in zip(live, deltas):
        total = total + delta * outer * inner
    return total


def interp_hybrid(
    lam: Bipartition,
    xs,
    vs,
    a,
    b,
    ctx: SymbolContext,
    cache: TableCache | None = None,
    check_branch: bool = False,
):
    """Hybrid interpolation function R*_lam(x_1..x_k; v_1..v_2l; a, b).

    Evaluated on the principal square root of t; the value is branch
    independent, which check_branch asserts by evaluating both."""
    if len(vs) % 2 != 0:
        raise ValueError("hybrid variables come in pairs")
    cache = cache if cache is not None else TableCache()
    k, ell = len(xs), len(vs) // 2
    t = ctx.t
    vprod = 1.0 + 0.0j
    for v in vs:
        vprod *= complex(v)
    rt = cmath.sqrt(t)
    val = _hybrid_branch(lam, xs, vs, a, b, ctx, cache, rt, vprod, k, ell)
    if check_branch:
        other = _hybrid_branch(lam, xs, vs, a, b, ctx, cache, -rt, vprod, k, ell)
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
) -> tuple[float, float]:
    """(residual, ratio) of the skew branching rule: peeling the pair
    (w1, w2) off the bracket list equals a binomial-weighted sum of skew
    values at the shifted parameter a/(w1 w2).  residual is relative;
    ratio is the cancellation ratio (total term magnitude over the
    result), the measure of how much precision survives."""
    cache = cache if cache is not None else TableCache()
    lhs = interp_skew(lam, nu, tuple(vs) + (w1, w2), a, b, ctx, cache)
    rhs = 0.0
    total = 0.0
    mus = [mu for mu in sub_bipartitions(lam) if mu.contains(nu)]
    coeffs = binomial_row(lam, mus, a / b, w1 * w2, ctx, cache, bracket=(a / w1, a / w2))
    for mu, coeff in zip(mus, coeffs):
        if coeff == 0.0:
            continue
        term = coeff * interp_skew(mu, nu, vs, a / (w1 * w2), b, ctx, cache)
        rhs += term
        total += abs(term)
    scale = max(abs(rhs), abs(lhs), 1e-300)
    return abs(lhs - rhs) / scale, total / scale


def hybrid_branching_residual(
    lam: Bipartition,
    xs,
    v1: complex,
    v2: complex,
    a: complex,
    b: complex,
    ctx: SymbolContext,
    cache: TableCache | None = None,
) -> tuple[float, float]:
    """(residual, ratio) of the hybrid branching rule, as for
    branching_residual: R*_lam(x; v1, v2; a t, b) expands over binomials
    times plain R*_mu(x; a/(v1 v2), b)."""
    cache = cache if cache is not None else TableCache()
    k = len(xs)
    t, pq = ctx.t, ctx.pq
    lhs = interp_hybrid(lam, xs, (v1, v2), a * t, b, ctx, cache)
    rhs = 0.0
    total = 0.0
    mus = sub_bipartitions(lam)
    bracket = (t**k * a / v1, t**k * a / v2, pq * a / (t * b * v1 * v2))
    coeffs = binomial_row(lam, mus, t**k * a / b, t * v1 * v2, ctx, cache, bracket=bracket)
    for mu, coeff in zip(mus, coeffs):
        if coeff == 0.0:
            continue
        term = coeff * interp_nonskew(mu, xs, a / (v1 * v2), b, ctx, cache)
        rhs += term
        total += abs(term)
    scale = max(abs(rhs), abs(lhs), 1e-300)
    return abs(lhs - rhs) / scale, total / scale


def pole_bases(mu: Bipartition) -> list[tuple[tuple[int, int, int], int, str]]:
    """The base of each inward pole tower of R*_mu(..; a, b), plain or
    hybrid, in each variable, under an integrand that also carries the
    univariate factor Gamma(b z^+-) (as all the densities here do): the
    base t^i p^j q^l b^power as ((i, j, l), power, label), each label
    naming the base's monomial.  The reciprocal of each inward pole is a
    pole too, so the unit circle separates the two families when every
    inward pole lies inside it.

    Component 1 contributes the towers b^-1 t^(1-j) q^(N+1) p^l and
    b t^(j-1) q^N p^-l (N >= 0, l up to the row length); component 2
    swaps p and q.  Every member is its base (N = 0) times a nonnegative
    power of a nome, so the base alone decides the margin, as for the
    density towers in densities.feasibility_check.  Rows populated in
    BOTH components additionally leave a net cross pole at
    b t^(i-1) p^-l1 q^-l2 (the single Gamma(b/z) zero there cancels only
    one of the two theta-denominator zeros); the contour induced by the
    kernel derivation must enclose it, which no unit torus can do while
    keeping its reciprocal outside."""
    bases = []
    for i in range(1, min(mu.first.length, mu.second.length) + 1):
        for l1 in range(1, mu.first[i - 1] + 1):
            for l2 in range(1, mu.second[i - 1] + 1):
                bases.append(((i - 1, -l1, -l2), 1, f"cross row {i}: b t^({i}-1) p^-{l1} q^-{l2}"))
    for comp, s, o, s_name, o_name, tag in (
        (mu.first, (0, 1), (1, 0), "q", "p", "comp1"),
        (mu.second, (1, 0), (0, 1), "p", "q", "comp2"),
    ):
        for j in range(1, comp.length + 1):
            for ell in range(1, comp[j - 1] + 1):
                label = f"{tag}: b^-1 t^(1-{j}) {s_name}^1 {o_name}^{ell}"
                bases.append(((1 - j, s[0] + ell * o[0], s[1] + ell * o[1]), -1, label))
                label = f"{tag}: b t^({j}-1) {s_name}^0 {o_name}^-{ell}"
                bases.append(((j - 1, -ell * o[0], -ell * o[1]), 1, label))
    return bases


def pole_map(mu: Bipartition, b, t, p, q) -> list[tuple[complex, str]]:
    """The pole_bases of R*_mu(..; a, b) at b as (location, label) pairs,
    over complex b, t, p, q or their polytope.LogModulus rows."""
    return [(monomial((t, p, q), expo) * b**power, label) for expo, power, label in pole_bases(mu)]


@dataclass(frozen=True)
class InterpFactor:
    """One interpolation factor of a case's integrands, declared where the
    case builds its density sets: R*_shape(z; a, b), or R*_shape(z; v1,
    v2; a, b) when vs = (v1, v2), on the variable of each (set, level) in
    places.  On polytope.LogModulus rows only its poles at b are read."""

    shape: Bipartition
    a: object
    b: object
    vs: tuple | None
    places: tuple

    def __post_init__(self):
        if self.vs is None and self.shape.max_length > 1:
            raise ValueError(f"the one-variable factor R*_{self.shape}(z; a, b) takes one row per component at most")

    def poles(self, v: dict) -> list[tuple[object, str]]:
        """Its pole_map at b over the t, p and q of the values v, labelled."""
        towers = pole_map(self.shape, self.b, v["t"], v["p"], v["q"])
        return [(value, f"interpolation pole of R_{self.shape} {label}") for value, label in towers]

    def value(self, z, ctx: SymbolContext, cache: TableCache):
        if self.vs is None:
            return interp_nonskew(self.shape, (z,), self.a, self.b, ctx, cache)
        return interp_hybrid(self.shape, (z,), self.vs, self.a, self.b, ctx, cache)
