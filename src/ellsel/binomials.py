"""Numerical elliptic binomial coefficients.

The coefficients <lam over mu>_[a,b] are pinned down numerically as the
unique solution of the nu = 0 case of the Jackson-type summation

    sum_{mu <= lam} Delta0_mu(a/b | d, e, c/b) X_mu = Delta0_lam(a | bd, be, c),
    e = a p q / (b c d),

sampled at twice as many random (c, d) pairs as unknowns and solved by
least squares.  Correctness is certified post hoc: the table endpoints,
the b = 1 and b = t degenerations, held-out Jackson equations and the
two-matrix inverse identity are all asserted by the test suite.

Batching: a solve attempt takes its neq rows, the HOLDOUT rows after them
in the table's (c, d) stream and both endpoints from one delta0_bi_groups
call; a rejected attempt moves neq pairs on, so its holdout pairs recur.

A table is solved only when an interior coefficient is read.  The
endpoints <lam over 0> = Delta0_lam(a | b) and <lam over lam> =
C+_lam(a)/C+_lam(a/b) are read from those closed forms (binomial_row
for a row of endpoints, binomial_column for a nu = 0 column), the same
products the solve pins, so an endpoint read no longer raises the
table's ConditioningError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ellsel.partitions import ZERO, Bipartition, sub_bipartitions
from ellsel.symbols import SymbolContext, delta0_bi, delta0_bi_groups, delta0_bi_shapes

COND_CAP = 1e8
MAX_RESAMPLE = 5
OVERSAMPLE = 2
HOLDOUT = 5
# Largest term-cancellation ratio (total term magnitude over the result)
# at which jackson_check accepts a (c, d) draw as generic.
MAX_CANCELLATION = 1e3
# Draws jackson_check and draw_generic_ab try before settling.
GENERIC_TRIES = 60


class ConditioningError(ArithmeticError):
    """Jackson system stayed ill-conditioned after all resampling rounds."""


@dataclass
class BinomialTable:
    """All binomials <lam over mu>_[a,b] for mu inside lam."""

    lam: Bipartition
    a: complex
    b: complex
    ctx: SymbolContext
    values: dict[Bipartition, complex]
    residual: float
    condition: float
    resamples: int = 0

    def __getitem__(self, mu: Bipartition) -> complex:
        return self.values.get(mu, 0.0)


def _table_seed(lam: Bipartition, a: complex, b: complex, ctx: SymbolContext, seed: int):
    payload = (
        lam.first.parts,
        lam.second.parts,
        a.real,
        a.imag,
        b.real,
        b.imag,
        ctx.t.real,
        ctx.t.imag,
        ctx.p.real,
        ctx.p.imag,
        ctx.q.real,
        ctx.q.imag,
    )
    return [seed & 0xFFFFFFFF, hash(payload) & 0xFFFFFFFF]


def _draw_pairs(rng, count: int) -> np.ndarray:
    """count (c, d) rows, moduli in [0.3, 0.9] and uniform phases, from one call."""
    draws = rng.uniform([0.3, 0.3, 0.0, 0.0], [0.9, 0.9, 2.0 * math.pi, 2.0 * math.pi], (count, 4))
    units = [complex(math.cos(ph), math.sin(ph)) for ph in draws[:, 2:].ravel().tolist()]
    return draws[:, :2] * np.array(units, dtype=np.complex128).reshape(count, 2)


def solve_binomial_table(
    lam: Bipartition,
    a: complex,
    b: complex,
    ctx: SymbolContext,
    rng_seed: int = 0,
) -> BinomialTable:
    """Solve the nu = 0 Jackson system for the full table of lam.

    The two endpoints <lam over 0> and <lam over lam> have explicit
    closed forms and are pinned exactly; the least squares covers only
    the interior coefficients.  Held-out equations then certify the
    whole table, endpoints included.  binomial_row and binomial_column
    call this only when they read an interior coefficient.
    """
    subs = sub_bipartitions(lam)
    if len(subs) == 1:
        return BinomialTable(lam, a, b, ctx, {lam: 1.0 + 0.0j}, 0.0, 1.0)

    pq = ctx.pq
    interior = [mu for mu in subs if mu != lam and not mu.is_zero()]
    nunk = len(interior)

    rng = np.random.default_rng(_table_seed(lam, a, b, ctx, rng_seed))
    neq = OVERSAMPLE * nunk
    pairs = np.empty((0, 2), dtype=np.complex128)  # the table's (c, d) stream, in row order

    last_cond = math.inf
    for attempt in range(MAX_RESAMPLE):
        start = attempt * neq  # a rejected attempt moves neq pairs on
        pairs = np.concatenate([pairs, _draw_pairs(rng, start + neq + HOLDOUT - len(pairs))])
        c, d = pairs[start : start + neq + HOLDOUT].T
        e = a * pq / (b * c * d)
        right = ([lam], a, [b * d, b * e, c])
        left = ([ZERO, lam, *interior], a / b, [d, e, c / b])
        (val_zero,), (full_rhs,), (t_zero, t_full, *cols), (num, den) = delta0_bi_groups(
            [([lam], a, [b]), right, left], ctx, plus=(lam, np.array([a, a / b]))
        )
        val_full = complex(num / den)
        t_zero, t_full = t_zero * val_zero, t_full * val_full
        rows = np.array(cols, dtype=np.complex128).reshape(nunk, neq + HOLDOUT).T.copy()
        rhs = full_rhs - t_zero - t_full
        scales = np.abs(full_rhs) + np.abs(t_zero) + np.abs(t_full)

        if nunk == 0:
            values = {Bipartition(): val_zero, lam: val_full}
            sol = np.empty(0, dtype=np.complex128)
        else:
            mat, vec = rows[:neq], rhs[:neq]
            row_scale = np.maximum(np.abs(mat).max(axis=1), 1e-300)
            mat = mat / row_scale[:, None]
            vec = vec / row_scale
            col_scale = np.maximum(np.abs(mat).max(axis=0), 1e-300)
            mat = mat / col_scale[None, :]

            sing = np.linalg.svd(mat, compute_uv=False)
            last_cond = float(sing[0] / max(sing[-1], 1e-300))
            if last_cond > COND_CAP:
                continue

            sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
            sol = sol / col_scale
            values = {mu: complex(sol[i]) for i, mu in enumerate(interior)}
            values[Bipartition()] = val_zero
            values[lam] = val_full

        # Backward-style holdout residual: relative to the total term
        # magnitude, so a near-cancelling right-hand side cannot inflate it.
        hrows, hrhs, hscales = rows[neq:], rhs[neq:], scales[neq:]
        hold_res = 0.0
        for r in range(HOLDOUT):
            pred = hrows[r] @ sol if nunk else 0.0
            scale = float(np.abs(hrows[r] * sol).sum()) + hscales[r] if nunk else hscales[r]
            hold_res = max(hold_res, abs(pred - hrhs[r]) / max(scale, 1e-300))

        cond = last_cond if nunk else 1.0
        return BinomialTable(lam, a, b, ctx, values, hold_res, cond, attempt)

    raise ConditioningError(
        f"Jackson system for lam={lam} stayed ill-conditioned "
        f"(cond={last_cond:.3g} > {COND_CAP:.0g}) after {MAX_RESAMPLE} resamples"
    )


@dataclass
class TableCache:
    """Per-case table cache keyed by the exact bit patterns of
    (lam, a, b, t, p, q).  Never persisted across cases: the parameters
    are continuous, so cross-case reuse would never hit."""

    seed: int = 0
    tables: dict = field(default_factory=dict)

    def get(self, lam: Bipartition, a: complex, b: complex, ctx: SymbolContext) -> BinomialTable:
        key = (
            lam,
            complex(a),
            complex(b),
            complex(ctx.t),
            complex(ctx.p),
            complex(ctx.q),
        )
        table = self.tables.get(key)
        if table is None:
            table = solve_binomial_table(lam, a, b, ctx, rng_seed=self.seed)
            self.tables[key] = table
        return table


def binomial(
    lam: Bipartition,
    mu: Bipartition,
    a: complex,
    b: complex,
    ctx: SymbolContext,
    cache: TableCache | None = None,
    bracket: tuple = (),
) -> complex:
    """Bracketed elliptic binomial <lam over mu>_[a,b](v1..vk), with the
    bracket variables v1..vk; unbracketed when bracket is empty.

    Zero whenever mu is not contained in lam; exactly the Kronecker
    delta at b = 1.  For mu = 0 or lam, the closed-form endpoint: no
    table is solved, so no ConditioningError is raised.
    """
    return binomial_row(lam, [mu], a, b, ctx, cache, bracket)[0]


def binomial_row(
    lam: Bipartition,
    mus,
    a: complex,
    b: complex,
    ctx: SymbolContext,
    cache: TableCache | None = None,
    bracket: tuple = (),
) -> list:
    """[binomial(lam, mu, a, b, ctx, cache, bracket) for mu in mus]: one
    table lookup, and the bracket's Delta0_mu(a/b | v) of every mu with
    a nonzero coefficient from one delta0_bi_shapes call.

    The table of lam is solved only when some mu is an interior shape
    of lam.  When every mu inside lam is 0 or lam, the row is read from
    endpoint_zero and endpoint_full, the products the solve pins its
    endpoints to, and that table's ConditioningError cannot be raised."""
    if b == 1:
        # the bracketed coefficient trivialises outright: the bracket
        # ratio is identically one at b = 1, so skip it for exactness
        return [1.0 if lam == mu else 0.0 for mu in mus]
    inside = [lam.contains(mu) for mu in mus]
    if not any(inside):
        return [0.0] * len(mus)
    wanted = {mu for mu, ok in zip(mus, inside) if ok}
    ends = {ZERO: endpoint_zero, lam: endpoint_full}
    if wanted <= ends.keys():
        values = {mu: end(lam, a, b, ctx) for mu, end in ends.items() if mu in wanted}
    else:
        cache = cache if cache is not None else TableCache()
        values = cache.get(lam, a, b, ctx).values
    base = [values[mu] if ok else 0.0 for mu, ok in zip(mus, inside)]
    live = [mu for mu, val in zip(mus, base) if val != 0.0]
    if not bracket or not live:
        return base
    (num,), dens = delta0_bi_groups([([lam], a, list(bracket)), (live, a / b, list(bracket))], ctx)
    den = dict(zip(live, dens))
    return [val if val == 0.0 else val * num / den[mu] for mu, val in zip(mus, base)]


def binomial_column(mus, nu: Bipartition, a: complex, b: complex, ctx: SymbolContext, cache: TableCache) -> list:
    """[binomial(mu, nu, a, b, ctx, cache) for mu in mus].  With nu = 0
    and b != 1, every <mu over 0> is its closed form Delta0_mu(a | b),
    all from one delta0_bi_shapes call, and no table is solved."""
    if nu.is_zero() and b != 1:
        return delta0_bi_shapes(mus, a, [b], ctx)
    return [binomial(mu, nu, a, b, ctx, cache) for mu in mus]


def jackson_residual(
    lam: Bipartition,
    nu: Bipartition,
    a: complex,
    b: complex,
    c: complex,
    d: complex,
    ctx: SymbolContext,
    cache: TableCache | None = None,
) -> tuple[float, float]:
    """Relative residual of the full Jackson summation with general nu,
    and its term-cancellation ratio sum |term| / |rhs|.

    End-to-end consistency check: every binomial involved comes from an
    independently solved table.
    """
    cache = cache if cache is not None else TableCache()
    pq = ctx.pq
    e = a * pq / (b * c * d)
    lhs = 0.0 + 0.0j
    total = 0.0
    mus = [mu for mu in sub_bipartitions(lam) if mu.contains(nu)]
    deltas = delta0_bi_shapes(mus, a / b, [d, e], ctx)
    outer = binomial_row(lam, mus, a, b, ctx, cache)
    inner = binomial_column(mus, nu, a / b, c / b, ctx, cache)
    for delta, coeff, coeff_inner in zip(deltas, outer, inner):
        term = delta * coeff * coeff_inner
        lhs += term
        total += abs(term)
    rhs = binomial(lam, nu, a, c, ctx, cache, bracket=(b * d, b * e))
    residual = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    ratio = total / max(abs(rhs), 1e-300)
    return residual, ratio


def jackson_check(
    lam: Bipartition,
    nu: Bipartition,
    a: complex,
    b: complex,
    ctx: SymbolContext,
    rng,
    cache: TableCache | None = None,
) -> float:
    """Jackson residual at a generically positioned (c, d) pair.

    Draws are rejected while the term-cancellation ratio exceeds
    MAX_CANCELLATION: the identity is exact, but double precision cannot
    witness it through arbitrarily violent cancellation, and such draws
    are exactly the non-generic ones the theory excludes anyway.
    """
    cache = cache if cache is not None else TableCache()
    best = math.inf
    for _ in range(GENERIC_TRIES):
        ((c, d),) = _draw_pairs(rng, 1)
        res, ratio = jackson_residual(lam, nu, a, b, c, d, ctx, cache)
        if ratio <= MAX_CANCELLATION:
            return res
        best = min(best, res)
    return best


def draw_generic_ab(lam: Bipartition, ctx: SymbolContext, rng) -> tuple[complex, complex]:
    """Draw (a, b) with both table endpoints at a generic magnitude.

    A per-box geometric mean outside [1e-2, 1e2] signals proximity to a
    vanishing locus, where relative tolerances become meaningless."""
    boxes = max(lam.size, 1)
    a = b = 0.5 + 0.0j
    for _ in range(GENERIC_TRIES):
        ((a, b),) = _draw_pairs(rng, 1)
        z = abs(endpoint_zero(lam, a, b, ctx)) ** (1.0 / boxes)
        f = abs(endpoint_full(lam, a, b, ctx)) ** (1.0 / boxes)
        if 1e-2 <= z <= 1e2 and 1e-2 <= f <= 1e2:
            return a, b
    return a, b


def endpoint_zero(lam: Bipartition, a: complex, b: complex, ctx: SymbolContext) -> complex:
    """Closed form for <lam over 0>: Delta0_lam(a | b)."""
    return delta0_bi(lam, a, [b], ctx)


def endpoint_full(lam: Bipartition, a: complex, b: complex, ctx: SymbolContext) -> complex:
    """Closed form for <lam over lam>: C+_lam(a) / C+_lam(a/b), both
    from one C+ evaluation on the pair (a, a/b)."""
    ((num, den),) = delta0_bi_groups([], ctx, plus=(lam, np.array([a, a / b])))
    return complex(num / den)
