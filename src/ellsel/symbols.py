"""Partition-indexed theta symbols C0/C+/C-, the well-poised ratio
Delta0, their bipartition lifts, and the gamma/Delta0 bridge identity.

Role convention: a single-partition symbol in role "q" uses series base
q with theta nome p; role "p" swaps the two.  The bipartition lift puts
the first component in role "p" and the second in role "q", so swapping
the nomes is the same as swapping the components.

Batching: a C0 cell factor depends only on its cell, so Delta0_mu(a | bs)
for every mu inside some lam is a product over a subset of lam's
per-cell theta ratios.  delta0_shapes and delta0_bi_shapes evaluate
those ratios with one theta call per component and hand each shape its
own cells; delta0 and delta0_bi are their one-shape case, so there is
one code path.  Each shape is still checked on its own: its PoleError
names the first argument index and cell of that shape, its
OverflowError the first argument index, and a list of shapes raises the
error of the first failing shape in list order.  Callers that sum over
mu (Jackson rows, interpolation sums) take all their shapes from one
call.
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


def _c0_exponents(i, j, lam, conj):
    return j - 1, 1 - i


def _cell_thetas(lam: Partition, z, ctx: SymbolContext, series: str, exponents=_c0_exponents):
    """theta(z base^be t^te) for every cell (i, j) of lam, with (be, te)
    = exponents(i, j, lam, lam'), from one theta call on the whole stack
    of arguments z.  The cells run along a new leading axis."""
    base, nome = ctx.roles(series)
    conj = lam.conjugate()
    cells = list(lam.cells())
    z = np.asarray(z, dtype=np.complex128)
    shifts = np.array(
        [base**be * ctx.t**te for be, te in (exponents(i, j, lam, conj) for i, j in cells)],
        dtype=np.complex128,
    )
    args = shifts.reshape((len(cells),) + (1,) * z.ndim) * z
    if not cells:  # no theta factors to evaluate
        return args
    try:
        return theta(args, nome)
    except DomainError as exc:  # a zero argument: name its first cell
        zero = np.any((args == 0).reshape(len(cells), z.size), axis=1)
        i, j = cells[int(np.argmax(zero))]
        raise DomainError(f"cell (i={i}, j={j}): {exc}") from exc


def _cell_product(lam: Partition, z, exponents, ctx: SymbolContext, series: str):
    z = np.asarray(z, dtype=np.complex128)
    result = np.prod(_cell_thetas(lam, z, ctx, series, exponents), axis=0)
    return complex(result) if z.ndim == 0 else result


def c0(lam: Partition, z, ctx: SymbolContext, series: str = "q"):
    """C0_lam(z): product of theta(z q^(j-1) t^(1-i)) over the cells."""
    return _cell_product(lam, z, _c0_exponents, ctx, series)


def cplus(lam: Partition, z, ctx: SymbolContext, series: str = "q"):
    """C+_lam(z): product of theta(z q^(lam_i+j-1) t^(2-lam'_j-i))."""
    return _cell_product(
        lam, z, lambda i, j, l, c: (l[i - 1] + j - 1, 2 - c[j - 1] - i), ctx, series
    )


def cminus(lam: Partition, z, ctx: SymbolContext, series: str = "q"):
    """C-_lam(z): product of theta(z q^(lam_i-j) t^(lam'_j-i))."""
    return _cell_product(
        lam, z, lambda i, j, l, c: (l[i - 1] - j, c[j - 1] - i), ctx, series
    )


def c0_bi(lam: Bipartition, z, ctx: SymbolContext):
    return c0(lam.first, z, ctx, "p") * c0(lam.second, z, ctx, "q")


def cplus_bi(lam: Bipartition, z, ctx: SymbolContext):
    return cplus(lam.first, z, ctx, "p") * cplus(lam.second, z, ctx, "q")


def cminus_bi(lam: Bipartition, z, ctx: SymbolContext):
    return cminus(lam.first, z, ctx, "p") * cminus(lam.second, z, ctx, "q")


def _delta0_each(lams, a, bs, ctx: SymbolContext, series: str) -> list:
    """Delta0_mu(a | bs) for every mu in lams, each entry the value or the
    error delta0 raises for that mu.

    The per-cell ratios prod_i theta(b_i x_c) / theta(pq a x_c / b_i),
    x_c = base^(j-1) t^(1-i), depend only on the cell c = (i, j), so they
    come from one theta call over the cells of the hull of lams, the
    smallest partition containing them all; each mu multiplies the
    ratios of its own cells, in its own cell order."""
    a, *bs = np.broadcast_arrays(*(np.asarray(v, dtype=np.complex128) for v in (a, *bs)))
    nargs = len(bs)
    rows = max((mu.length for mu in lams), default=0)
    hull = Partition(tuple(max(mu[i] for mu in lams) for i in range(rows)))
    # cell (i, j) of any mu is entry offset[i - 1] + j - 1 of the hull's
    offset = list(itertools.accumulate(hull.parts, initial=0))
    bs = np.array(bs).reshape((nargs,) + a.shape)
    num, den = _cell_thetas(hull, [bs, ctx.pq * a / bs], ctx, series).swapaxes(0, 1)
    vanishing = (den == 0).reshape(hull.size, nargs, a.size).any(axis=2)
    out = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = num / den
        for mu in lams:
            sel = [offset[i] + j for i, part in enumerate(mu.parts) for j in range(part)]
            running = np.cumprod(np.prod(ratio[sel], axis=0), axis=0)
            out.append(_delta0_checked(running, vanishing[sel], mu, a))
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
    result = running[-1] if nargs else np.ones(a.shape, dtype=np.complex128)
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
    return _raise_first(_delta0_each(lams, a, bs, ctx, series))


def delta0(lam: Partition, a, bs, ctx: SymbolContext, series: str = "q"):
    """Well-poised ratio prod_i C0_lam(b_i) / C0_lam(pq a / b_i).

    Taken as a product of per-cell theta ratios, which keeps the
    intermediate magnitudes near one even for long b-lists.  The
    numerator and denominator factors of every (argument, cell) pair come
    from one theta call; a and the b_i broadcast against each other.
    """
    return delta0_shapes([lam], a, bs, ctx, series)[0]


def delta0_bi_shapes(lams, a, bs, ctx: SymbolContext) -> list:
    """[delta0_bi(mu, a, bs, ctx) for mu in lams] from one theta call per
    component, over the distinct first and second components; the first
    mu in list order that fails raises, its first component first."""
    firsts = list(dict.fromkeys(mu.first for mu in lams))
    seconds = list(dict.fromkeys(mu.second for mu in lams))
    by_first = dict(zip(firsts, _delta0_each(firsts, a, bs, ctx, "p")))
    by_second = dict(zip(seconds, _delta0_each(seconds, a, bs, ctx, "q")))
    out = []
    for mu in lams:
        first, second = _raise_first([by_first[mu.first], by_second[mu.second]])
        out.append(first * second)
    return out


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
