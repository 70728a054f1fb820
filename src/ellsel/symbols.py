"""Partition-indexed theta symbols C0/C+/C-, the well-poised ratio
Delta0, their bipartition lifts, and the gamma/Delta0 bridge identity.

Role convention: a single-partition symbol in role "q" uses series base
q with theta nome p; role "p" swaps the two.  The bipartition lift puts
the first component in role "p" and the second in role "q", so swapping
the nomes is the same as swapping the components.

Batching: a C0 cell factor depends only on its cell, so Delta0_mu(a | bs)
for every mu inside some lam is a product over a subset of lam's
per-cell theta ratios.  delta0_bi_groups evaluates the ratios of several
(shapes, a, bs) groups under one hull, and optionally a C+ pair, with
one theta call per component, and hands each shape its own cells; the
other Delta0 functions are its one-group case, so there is one code
path.  Each shape is still checked on its own: its PoleError names the
first argument index and cell of that shape, its OverflowError the first
argument index, and the first failing shape in list order raises.  The
checks run only on failure, for a shape whose product is not finite, as
a vanishing denominator makes it; any other shape is its product.
Table solves and bracketed binomial rows make one grouped call each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ellsel.core import DomainError, NomePair, PoleError, elliptic_gamma_multi, theta
from ellsel.partitions import Bipartition, Partition


@dataclass(frozen=True)
class SymbolContext:
    """Nome pair plus the deformation parameter t shared by all symbols."""

    nomes: NomePair
    t: complex

    @property
    def p(self) -> complex:
        return self.nomes.p

    @property
    def q(self) -> complex:
        return self.nomes.q

    @property
    def pq(self) -> complex:
        return self.nomes.pq

    def roles(self, series: str) -> tuple[complex, complex]:
        """(series base, theta nome) for the requested role."""
        if series == "q":
            return self.q, self.p
        if series == "p":
            return self.p, self.q
        raise ValueError(f"series role must be 'p' or 'q', got {series!r}")


def _c0_exponents(i, j, lam):
    return j - 1, 1 - i


def _cplus_exponents(i, j, lam):
    return lam[i - 1] + j - 1, 2 - sum(part >= j for part in lam) - i  # the sum is lam'_j


def _cell_thetas(blocks, ctx: SymbolContext, series: str) -> list:
    """For each block (lam, z, exponents): theta(z base^be t^te) for every
    cell (i, j) of lam, with (be, te) = exponents(i, j, lam), the
    cells along a new leading axis.  Every block's arguments go into one
    theta call, made when some block has a cell."""
    base, nome = ctx.roles(series)
    cells, args = [], []
    for lam, z, exponents in blocks:
        cells.append(list(lam.cells()))
        z = np.asarray(z, dtype=np.complex128)
        expo = [exponents(i, j, lam) for i, j in cells[-1]]
        shifts = np.array([base**be * ctx.t**te for be, te in expo], dtype=np.complex128)
        args.append(shifts.reshape((len(cells[-1]),) + (1,) * z.ndim) * z)
    if not any(cells):  # no theta factors to evaluate
        return args
    try:
        values = theta(np.concatenate([arg.reshape(-1) for arg in args]), nome)
    except DomainError as exc:  # a zero argument: name the first block's first such cell
        k = next(k for k, arg in enumerate(args) if np.any(arg == 0))
        i, j = cells[k][next(c for c, cell in enumerate(args[k]) if np.any(cell == 0))]
        raise DomainError(f"cell (i={i}, j={j}): {exc}") from exc
    ends = np.cumsum([arg.size for arg in args])
    return [values[end - arg.size : end].reshape(arg.shape) for end, arg in zip(ends, args)]


def _cell_product(lam: Partition, z, exponents, ctx: SymbolContext, series: str):
    z = np.asarray(z, dtype=np.complex128)
    result = np.prod(_cell_thetas([(lam, z, exponents)], ctx, series)[0], axis=0)
    return complex(result) if z.ndim == 0 else result


def c0(lam: Partition, z, ctx: SymbolContext, series: str = "q"):
    """C0_lam(z): product of theta(z q^(j-1) t^(1-i)) over the cells."""
    return _cell_product(lam, z, _c0_exponents, ctx, series)


def cplus(lam: Partition, z, ctx: SymbolContext, series: str = "q"):
    """C+_lam(z): product of theta(z q^(lam_i+j-1) t^(2-lam'_j-i))."""
    return _cell_product(lam, z, _cplus_exponents, ctx, series)


def cminus(lam: Partition, z, ctx: SymbolContext, series: str = "q"):
    """C-_lam(z): product of theta(z q^(lam_i-j) t^(lam'_j-i))."""
    conj = lam.conjugate()
    return _cell_product(lam, z, lambda i, j, l: (l[i - 1] - j, conj[j - 1] - i), ctx, series)


def c0_bi(lam: Bipartition, z, ctx: SymbolContext):
    return c0(lam.first, z, ctx, "p") * c0(lam.second, z, ctx, "q")


def cplus_bi(lam: Bipartition, z, ctx: SymbolContext):
    return cplus(lam.first, z, ctx, "p") * cplus(lam.second, z, ctx, "q")


def cminus_bi(lam: Bipartition, z, ctx: SymbolContext):
    return cminus(lam.first, z, ctx, "p") * cminus(lam.second, z, ctx, "q")


def _delta0_each(groups, ctx: SymbolContext, series: str, plus=None) -> list:
    """For each group (lams, a, bs), [Delta0_mu(a | bs) for mu in lams], each
    entry the value or the error delta0 raises for that mu; with plus =
    (lam, z), C+_lam(z) last.  The per-cell ratios prod_i theta(b_i x_c) /
    theta(pq a x_c / b_i), x_c = base^(j-1) t^(1-i), of every group come
    from one theta call over the hull of all the shapes, C+'s cells with
    them; each mu multiplies its own cells' ratios in its cell order, then
    runs a product over its arguments.  Only a mu whose last running
    product is not finite goes through _delta0_checked; a group whose
    arguments are all scalars needs no broadcast."""
    shapes = [mu for lams, _, _ in groups for mu in lams]
    rows = max((mu.length for mu in shapes), default=0)
    hull = Partition(tuple(max(mu[i] for mu in shapes) for i in range(rows)))
    # cell (i, j) of any mu is entry offset[i - 1] + j - 1 of the hull's
    offset = list(itertools.accumulate(hull.parts, initial=0))
    points, blocks = [], []
    for _, a, bs in groups:
        if all(np.ndim(v) == 0 for v in (a, *bs)):
            a, bs = np.asarray(a, dtype=np.complex128), np.array(bs, dtype=np.complex128)
        else:
            a, *bs = np.broadcast_arrays(*(np.asarray(v, dtype=np.complex128) for v in (a, *bs)))
            bs = np.array(bs).reshape((len(bs),) + a.shape)
        points.append(a)
        blocks.append((hull, [bs, ctx.pq * a / bs], _c0_exponents))
    if plus is not None:
        blocks.append((*plus, _cplus_exponents))
    thetas = _cell_thetas(blocks, ctx, series)
    out = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for (lams, _, _), a, cells in zip(groups, points, thetas):
            num, den = cells.swapaxes(0, 1)  # each (cell, argument, *a.shape)
            ratio = num / den
            out.append([])
            for mu in lams:
                sel = [offset[i] + j for i, part in enumerate(mu.parts) for j in range(part)]
                running = np.cumprod(np.prod(ratio[sel], axis=0), axis=0)
                # a vanishing denominator makes its ratio non-finite, and a
                # non-finite product stays non-finite down the arguments
                if not np.isfinite(running[-1:]).all():
                    vanishing = (den[sel] == 0).reshape(len(sel), len(running), a.size).any(axis=2)
                    out[-1].append(_delta0_checked(running, vanishing, mu, a))
                else:
                    out[-1].append(_delta0_value(running, a))
    if plus is not None:
        out.append(np.prod(thetas[-1], axis=0))
    return out


def _delta0_checked(running, vanishing, mu: Partition, a):
    """The last running product over the arguments, or the PoleError or
    OverflowError of the first failure in (argument, cell) order."""
    nargs = len(running)
    pole = vanishing.any(axis=0)
    fail = pole | np.isinf(running).reshape(nargs, a.size).any(axis=1)
    if fail.any():
        idx = int(np.argmax(fail))
        if pole[idx]:
            i, j = list(mu.cells())[int(np.argmax(vanishing[:, idx]))]
            return PoleError(
                f"Delta0 denominator vanishes for argument index {idx} at cell ({i},{j})"
            )
        return OverflowError(f"Delta0 overflow at argument index {idx}")
    return _delta0_value(running, a)


def _delta0_value(running, a):
    """The last running product over the arguments; one with no arguments."""
    result = running[-1] if len(running) else np.ones(a.shape, dtype=np.complex128)
    return complex(result) if a.ndim == 0 else result


def _raise_first(values):
    for val in values:
        if isinstance(val, Exception):
            raise val
    return values


def delta0_shapes(lams, a, bs, ctx: SymbolContext, series: str = "q") -> list:
    """[delta0(mu, a, bs, ctx, series) for mu in lams] from one theta
    call; each mu is checked as delta0 checks it, and the first mu in
    list order that fails raises."""
    return _raise_first(_delta0_each([(lams, a, bs)], ctx, series)[0])


def delta0(lam: Partition, a, bs, ctx: SymbolContext, series: str = "q"):
    """Well-poised ratio prod_i C0_lam(b_i) / C0_lam(pq a / b_i).

    Taken as a product of per-cell theta ratios, which keeps the
    intermediate magnitudes near one even for long b-lists.  The
    numerator and denominator factors of every (argument, cell) pair come
    from one theta call; a and the b_i broadcast against each other.
    """
    return delta0_shapes([lam], a, bs, ctx, series)[0]


def delta0_bi_groups(groups, ctx: SymbolContext, plus=None) -> list:
    """[delta0_bi_shapes(lams, a, bs, ctx) for lams, a, bs in groups],
    and with plus = (lam, z) then cplus_bi(lam, z, ctx) as an array, all
    from one theta call per component over the distinct first and second
    components; the groups raise in list order, as delta0_bi_shapes
    would one after another."""
    by_role = []
    for role, series in (("first", "p"), ("second", "q")):
        comps = [list(dict.fromkeys(getattr(mu, role) for mu in lams)) for lams, _, _ in groups]
        part = None if plus is None else (getattr(plus[0], role), plus[1])
        each = _delta0_each([(c, a, bs) for c, (_, a, bs) in zip(comps, groups)], ctx, series, part)
        by_role.append([dict(zip(c, values)) for c, values in zip(comps, each)] + each[len(groups) :])
    out = []
    for (lams, _, _), by_first, by_second in zip(groups, *by_role):
        pairs = [_raise_first([by_first[mu.first], by_second[mu.second]]) for mu in lams]
        out.append([first * second for first, second in pairs])
    if plus is not None:
        out.append(by_role[0][-1] * by_role[1][-1])
    return out


def delta0_bi_shapes(lams, a, bs, ctx: SymbolContext) -> list:
    """[delta0_bi(mu, a, bs, ctx) for mu in lams] from one theta call per
    component, over the distinct first and second components; the first
    mu in list order that fails raises, its first component first."""
    return delta0_bi_groups([(lams, a, bs)], ctx)[0]


def delta0_bi(lam: Bipartition, a, bs, ctx: SymbolContext):
    """Bipartition lift of Delta0: first component in role p, second in q."""
    return delta0_bi_shapes([lam], a, bs, ctx)[0]


def gamma_delta_bridge(
    lam: Bipartition, n: int, a: complex, b: complex, ctx: SymbolContext
) -> tuple[complex, complex]:
    """Both sides of the gamma-ratio/Delta0 bridge

    prod_i Gamma(a t^(1-i) p^lam1_i q^lam2_i, b t^(i-1) p^-lam1_i q^-lam2_i)
           / Gamma(a t^(1-i), b t^(i-1))
      = (pq/ab)^(sum_i lam1_i lam2_i) * Delta0_lam(a/b | a).
    """
    if lam.max_length > n:
        raise ValueError("bipartition longer than n")
    p, q, t = ctx.p, ctx.q, ctx.t
    num_args = []
    den_args = []
    for i in range(1, n + 1):
        l1, l2 = lam.first[i - 1], lam.second[i - 1]
        num_args.append(a * t ** (1 - i) * p**l1 * q**l2)
        num_args.append(b * t ** (i - 1) * p ** (-l1) * q ** (-l2))
        den_args.append(a * t ** (1 - i))
        den_args.append(b * t ** (i - 1))
    lhs = elliptic_gamma_multi(num_args, ctx.nomes) / elliptic_gamma_multi(
        den_args, ctx.nomes
    )
    expo = sum(lam.first[i] * lam.second[i] for i in range(n))
    rhs = (ctx.pq / (a * b)) ** expo * delta0_bi(lam, a / b, [a], ctx)
    return lhs, rhs
