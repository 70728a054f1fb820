"""Partition-indexed theta symbols C0/C+/C-, the well-poised ratio
Delta0, their bipartition lifts, and the gamma/Delta0 bridge identity.

Role convention: a single-partition symbol in role "q" uses series base
q with theta nome p; role "p" swaps the two.  The bipartition lift puts
the first component in role "p" and the second in role "q", so swapping
the nomes is the same as swapping the components.
"""

from __future__ import annotations

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


def delta0(lam: Partition, a, bs, ctx: SymbolContext, series: str = "q"):
    """Well-poised ratio prod_i C0_lam(b_i) / C0_lam(pq a / b_i).

    Taken as a product of per-cell theta ratios, which keeps the
    intermediate magnitudes near one even for long b-lists.  The
    numerator and denominator factors of every (argument, cell) pair come
    from one theta call; a and the b_i broadcast against each other.
    """
    a, *bs = np.broadcast_arrays(*(np.asarray(v, dtype=np.complex128) for v in (a, *bs)))
    nargs, ncells = len(bs), lam.size
    bs = np.array(bs).reshape((nargs,) + a.shape)
    num, den = _cell_thetas(lam, [bs, ctx.pq * a / bs], ctx, series).swapaxes(0, 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        running = np.cumprod(np.prod(num / den, axis=0), axis=0)
    # Report the first failure in (argument, cell) order.
    vanishing = np.any((den == 0).reshape(ncells, nargs, a.size), axis=2)
    overflow = np.any(np.isinf(running).reshape(nargs, a.size), axis=1)
    cells = list(lam.cells())
    for idx in range(nargs):
        if vanishing[:, idx].any():
            i, j = cells[int(np.argmax(vanishing[:, idx]))]
            raise PoleError(
                f"Delta0 denominator vanishes for argument index {idx} at cell ({i},{j})"
            )
        if overflow[idx]:
            raise OverflowError(f"Delta0 overflow at argument index {idx}")
    result = running[-1] if nargs else np.ones(a.shape, dtype=np.complex128)
    return complex(result) if a.ndim == 0 else result


def delta0_bi(lam: Bipartition, a, bs, ctx: SymbolContext):
    """Bipartition lift of Delta0: first component in role p, second in q."""
    return delta0(lam.first, a, bs, ctx, "p") * delta0(lam.second, a, bs, ctx, "q")


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
