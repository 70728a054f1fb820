"""The elliptic interpolation kernel: closed forms for zero and one
variable pairs, and the recursive contour-integral evaluation for two
pairs (one inner quadrature of the one-variable kernel against a Dixon
density on the unit circle)."""

from __future__ import annotations

import cmath

from ellsel.core import elliptic_gamma, elliptic_gamma_multi
from ellsel.densities import FEASIBILITY_MARGIN, dixon_unary_fn, kappa
from ellsel.quadrature import GridSpec, TorusFactorizedIntegrand, integrate_torus
from ellsel.symbols import SymbolContext

# Largest relative difference kernel_k2 allows between the values on
# the two branches of t^(1/2).
BRANCH_TOL = 1e-9


class ContourError(RuntimeError):
    """Inner contour of the branching rule is not torus-feasible."""


def kernel_k0() -> complex:
    return 1.0


def kernel_k1(x1, y1, cval: complex, ctx: SymbolContext):
    """Gamma(c x1^+- y1^+-) / (Gamma(t) Gamma(c^2)); either argument may
    be an array."""
    nomes = ctx.nomes
    num = (
        elliptic_gamma(cval * x1 * y1, nomes)
        * elliptic_gamma(cval * x1 / y1, nomes)
        * elliptic_gamma(cval * y1 / x1, nomes)
        * elliptic_gamma(cval / (x1 * y1), nomes)
    )
    return num / (elliptic_gamma(ctx.t, nomes) * elliptic_gamma(cval**2, nomes))


def branching_pole_report(x, y, cval: complex, ctx: SymbolContext, rt: complex) -> list[str]:
    """Violations of the inner-contour conditions on the unit circle for
    the two-pair branching integral (the self-referential pq/t condition
    drops for a one-dimensional inner integral)."""
    hi = 1.0 - FEASIBILITY_MARGIN
    bad = []

    def check(val, label):
        if abs(val) >= hi:
            bad.append(f"{label}: modulus {abs(val):.4g} >= {hi}")

    for i, xi in enumerate(x):
        check(rt * xi, f"t^(1/2) x{i + 1}")
        check(rt / xi, f"t^(1/2) / x{i + 1}")
    check(cval / rt * y[0], "c t^(-1/2) y1")
    check(cval / rt / y[0], "c t^(-1/2) / y1")
    pq = ctx.pq
    check(pq * y[1] / (cval * rt), "pq y2 / (c t^(1/2))")
    check(pq / (y[1] * cval * rt), "pq / (y2 c t^(1/2))")
    return bad


def kernel_k2(
    x,
    y,
    cval: complex,
    ctx: SymbolContext,
    inner_grid: int = 128,
    check_branch: bool = True,
) -> complex:
    """Two-pair kernel via the branching rule: a one-dimensional inner
    integral of the one-pair kernel against a six-parameter Dixon
    density, times an explicit gamma prefactor.

    check_branch evaluates both square roots of t and asserts they agree
    (the branching rule is branch independent)."""
    if len(x) != 2 or len(y) != 2:
        raise ValueError("kernel_k2 needs two x and two y values")
    if abs(ctx.pq / ctx.t) >= 1.0:
        raise ValueError("recursive evaluation requires |pq/t| < 1")
    rt = cmath.sqrt(ctx.t)
    val = _kernel_k2_branch(x, y, cval, ctx, rt, inner_grid)
    if check_branch:
        other = _kernel_k2_branch(x, y, cval, ctx, -rt, inner_grid)
        rel = abs(val - other) / max(abs(val), 1e-300)
        if rel > BRANCH_TOL:
            raise AssertionError(
                f"branching value depends on the t^(1/2) branch: rel diff {rel:.3g}"
            )
    return val


def _kernel_k2_branch(x, y, cval, ctx, rt, inner_grid) -> complex:
    bad = branching_pole_report(x, y, cval, ctx, rt)
    if bad:
        raise ContourError("; ".join(bad))
    nomes = ctx.nomes
    pq = ctx.pq
    x1, x2 = x
    y1, y2 = y

    dixon_params = (
        rt * x1,
        rt / x1,
        rt * x2,
        rt / x2,
        pq * y2 / (cval * rt),
        pq / (y2 * cval * rt),
    )
    inner_c = cval / rt
    unary = dixon_unary_fn(dixon_params, nomes)

    def kern(z):
        return kernel_k1(z, y1, inner_c, ctx)

    integrand = TorusFactorizedIntegrand(
        nvars=1, unary=[(0, unary), (0, kern)], prefactor=kappa(1, nomes)
    )
    integral = integrate_torus(integrand, GridSpec((inner_grid,))).value

    pref_num = []
    for xi in (x1, x2):
        pref_num += [cval * xi * y2, cval * xi / y2, cval * y2 / xi, cval / (xi * y2)]
    pref_den = [ctx.t, ctx.t, cval**2]
    pref_den += [ctx.t * x1 * x2, ctx.t * x1 / x2, ctx.t * x2 / x1, ctx.t / (x1 * x2)]
    prefactor = elliptic_gamma_multi(pref_num, nomes) / elliptic_gamma_multi(
        pref_den, nomes
    )
    return prefactor * integral


def kernel_t_reflection_residual(
    x, y, cval: complex, ctx: SymbolContext, inner_grid: int = 128
) -> float:
    """Relative residual of the t -> pq/t reflection:

    K_c(x; y; pq/t) = Gamma(t)^(2k) K_c(x; y; t)
                      prod_{i<j} Gamma(t x_i^+- x_j^+-, t y_i^+- y_j^+-).
    """
    nomes = ctx.nomes
    k = len(x)
    tread = ctx.pq / ctx.t
    ctx_ref = SymbolContext(nomes, tread)
    if k == 1:
        lhs = kernel_k1(x[0], y[0], cval, ctx_ref)
        rhs = elliptic_gamma(ctx.t, nomes) ** 2 * kernel_k1(x[0], y[0], cval, ctx)
    elif k == 2:
        lhs = kernel_k2(x, y, cval, ctx_ref, inner_grid, check_branch=False)
        rhs = elliptic_gamma(ctx.t, nomes) ** 4 * kernel_k2(
            x, y, cval, ctx, inner_grid, check_branch=False
        )
        args = []
        for pair in (x, y):
            a, b = pair
            args += [ctx.t * a * b, ctx.t * a / b, ctx.t * b / a, ctx.t / (a * b)]
        rhs *= elliptic_gamma_multi(args, nomes)
    else:
        raise ValueError("reflection check implemented for k <= 2")
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)
