"""Multidimensional trapezoid quadrature on products of unit tori.

The integrands here are analytic and periodic on the torus, so the
equispaced trapezoid rule converges exponentially; no adaptive meshes
are needed.  One ladder of grids, the start grid and its doublings up
to MAX_POINTS, serves both the adaptive integrator and the convergence
table; each grid carries a subgrid-based error estimate.

The 1/(2*pi*i)^d normalisation of all contour measures dz/z lives in
the quadrature weight (each circle contributes a plain mean over its
sample points); density factors therefore never carry imaginary-unit
bookkeeping.

Two integrand forms are accepted:

* a TorusFactorizedIntegrand, a product of unary and pairwise factors:
  each factor function is evaluated on at most three N-point circles per
  grid whatever the dimension; its tables (a pair's as two circles) take
  O(N) memory each and are contracted one variable at a time, not as N^d;
* an IntegrandSum of factorised integrands of different dimensions (a
  residue-corrected contour), integrated part by part on one
  per-variable grid size.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ellsel.core import circle

MAX_POINTS = 20_000_000
PAIR_BLOCK_ENTRIES = 4_096  # 64 kB: under the C allocator's threshold for fresh mapped pages


class BudgetError(RuntimeError):
    """Requested grid has more than MAX_POINTS points."""


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension point counts, at most MAX_POINTS in all; every
    circle is sampled at a phase offset of a quarter step of the first
    dimension.

    That offset avoids sampling exactly at z = 1 (where several densities
    have removable structure) AND keeps the subgrid error estimate alive:
    at a half-step offset the N vs N/2 difference vanishes identically
    for every integrand with the inversion symmetry c_m = c_(-m), which
    all BC-symmetric densities have."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(n < 2 for n in self.dims):
            raise ValueError(f"grid dims must all be >= 2, got {self.dims}")
        if math.prod(self.dims) > MAX_POINTS:
            raise BudgetError(f"grid {self.dims} exceeds {MAX_POINTS} points")

    @property
    def phase(self) -> float:
        return 0.5 * math.pi / self.dims[0]


def doubling_ladder(start: GridSpec) -> Iterator[GridSpec]:
    """start, then start with every dimension doubled, and so on while
    the grid has at most MAX_POINTS points."""
    grid = start
    while True:
        yield grid
        dims = tuple(2 * n for n in grid.dims)
        if math.prod(dims) > MAX_POINTS:
            return
        grid = GridSpec(dims)


@dataclass
class QuadResult:
    value: complex
    doubling_estimate: float
    evals: int
    budget_exhausted: bool = False


@dataclass(frozen=True)
class PairTable:
    """A pair factor's n x n table, kept as its two circle vectors: entry
    [s, t] is at_prod[(s + t) % n] * at_ratio[(s - t) % n]."""

    at_prod: np.ndarray
    at_ratio: np.ndarray

    @functools.cached_property
    def windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Two n x n sliding-window views of the wrapped vectors whose product is the table."""
        n = len(self.at_prod)
        hankel = sliding_window_view(np.concatenate([self.at_prod, self.at_prod[:-1]]), n)
        toeplitz = sliding_window_view(np.concatenate([self.at_ratio[1:], self.at_ratio]), n)
        return hankel, toeplitz[:, ::-1]


@dataclass
class TorusFactorizedIntegrand:
    """Integrand of the form

        prefactor * prod(unary) * prod(pair factors)

    over nvars torus variables.  The pair factor of variables i < j is
    fn(z_i z_j) * fn(z_i / z_j); on a shared uniform grid fn only ever
    sees the N distinct circle points exp(i(2 pi s / N + 2 phase)) and
    exp(2 pi i s / N), and a unary factor the N grid points, so each
    factor function is needed on whole circles only.  A function with an
    on_circle(n, phase) method (densities.GammaFactor) returns a whole
    circle at once, from one FFT of its folded Laurent coefficients; any
    other callable is called at the circle's points.
    """

    nvars: int
    unary: list = field(default_factory=list)  # (var, fn)
    pairs: list = field(default_factory=list)  # (vi, vj, fn) with vi < vj
    prefactor: complex = 1.0

    def values(self, n: int, phase: float) -> list[tuple[np.ndarray | PairTable, tuple[int, ...]]]:
        """(table, variables) on the n-point grid: per variable the
        product of its unary factors, a length-n vector, then per pair
        (vi, vj) a PairTable indexed [vi, vj], one record per distinct
        function.  The integrand is the prefactor times the product of the tables."""
        # a factor with an on_circle method evaluates a whole circle at
        # once; any other function is called on the circle's points, a pair
        # function once on the product and ratio circles together
        def on_circles(fn, *phases):
            if hasattr(fn, "on_circle"):
                return [fn.on_circle(n, at) for at in phases]
            return np.split(fn(np.concatenate([circle(n, at) for at in phases])), len(phases))

        # a factor function shared by several variables or pairs (a
        # level's vertex factor) is evaluated once per grid
        unary_vals, pair_vals = {}, {}
        per_var = [np.ones(n, dtype=np.complex128) for _ in range(self.nvars)]
        for var, fn in self.unary:
            if id(fn) not in unary_vals:
                (unary_vals[id(fn)],) = on_circles(fn, phase)
            per_var[var] *= unary_vals[id(fn)]
        tables = [(vals, (var,)) for var, vals in enumerate(per_var)]

        for vi, vj, fn in self.pairs:
            if id(fn) not in pair_vals:
                pair_vals[id(fn)] = PairTable(*on_circles(fn, 2.0 * phase, 0.0))
            tables.append((pair_vals[id(fn)], (vi, vj)))
        return tables


@dataclass
class IntegrandSum:
    """Sum of factorised integrands over different numbers of torus
    variables, such as the torus part of a deformed contour plus its
    residue terms.  The first part spans every grid dimension; each
    part is integrated on the same per-variable point count over its
    own leading variables, and a part without variables contributes its
    prefactor exactly."""

    parts: list  # TorusFactorizedIntegrand, the full-dimension one first


def _integrate_sum(f: IntegrandSum, grid: GridSpec) -> QuadResult:
    """Sum of the parts' trapezoid values; the doubling estimate bounds
    the whole sum, sum_i |value_i| * estimate_i / |sum|, so a large part
    cancelling against the others cannot hide its own error."""
    if f.parts[0].nvars != len(grid.dims):
        raise ValueError(
            f"leading part has {f.parts[0].nvars} variables, grid has {len(grid.dims)}"
        )
    value, abs_err, evals = 0.0 + 0.0j, 0.0, 0
    for part in f.parts:
        if part.nvars == 0:
            value += complex(part.prefactor)
            evals += 1
            continue
        res = integrate_torus(part, GridSpec(grid.dims[: part.nvars]))
        value += res.value
        abs_err += res.doubling_estimate * abs(res.value)
        evals += res.evals
    estimate = abs_err / max(abs(value), 1e-300)
    return QuadResult(value, estimate, evals)


def _first_nonfinite(table) -> tuple[int, ...] | None:
    """Row-major index of the table's first non-finite entry, or None."""
    if not isinstance(table, PairTable):
        return next(((int(i),) for i in np.flatnonzero(~np.isfinite(table))), None)
    rows = (np.flatnonzero(~np.isfinite(hank * toep)) for hank, toep in zip(*table.windows))
    return next(((s, int(bad[0])) for s, bad in enumerate(rows) if len(bad)), None)


def _eliminate(var: int, bucket: list) -> tuple[np.ndarray, tuple[int, ...]]:
    """Sum over var of the product of the bucket's operands, a table over the rest of
    their variables, built in one reused buffer of PAIR_BLOCK_ENTRIES, rows summed pairwise."""
    order = (*sorted({w for _, axes in bucket for w in axes} - {var}), var)
    n, scope = len(bucket[0][0]), len(order) - 1
    ops = []  # pair rows first, each spread over `order` as a broadcast view
    for table, axes in sorted(bucket, key=lambda factor: -len(factor[1])):
        perm = sorted(range(len(axes)), key=lambda i: order.index(axes[i]))
        spread = tuple(slice(None) if w in axes else None for w in order)
        ops.append(np.broadcast_to(table.transpose(perm)[spread], (n,) * len(order)))
    rows = max(1, int((PAIR_BLOCK_ENTRIES // n) ** (1 / scope))) if scope else n
    buf, out = np.empty((min(rows, n),) * scope + (n,), complex), np.empty((n,) * scope, complex)
    for starts in itertools.product(range(0, n, rows), repeat=scope):
        block = tuple(slice(start, start + rows) for start in starts)
        acc = buf[tuple(slice(0, min(rows, n - start)) for start in starts)]
        prod = functools.reduce(lambda a, v: np.multiply(a, v, out=acc), [op[block] for op in ops])
        out[block] = prod.sum(axis=-1)
    return out, order[:-1]


def _contract(tables, step: int) -> complex:
    """Sum over every step-th grid point per variable of the product of the tables: one
    unoptimised einsum for vectors alone, else min-degree elimination, ties to the lower index."""
    factors = []  # a pair table as its two window views, each at every step-th point
    for table, axes in tables:
        views = table.windows if isinstance(table, PairTable) else [table]
        factors += [(view[(slice(None, None, step),) * len(axes)], axes) for view in views]
    if all(len(axes) == 1 for _, axes in factors):
        operands = [x for table, axes in factors for x in (table, list(axes))]
        return complex(np.einsum(*operands, [], optimize=False))
    while any(axes for _, axes in factors):
        variables = {v for _, axes in factors for v in axes}
        near = {v: {w for _, axes in factors if v in axes for w in axes} for v in variables}
        var = min(near, key=lambda v: (len(near[v]), v))
        bucket = [f for f in factors if var in f[1]]
        factors = [f for f in factors if var not in f[1]] + [_eliminate(var, bucket)]
    return complex(math.prod(complex(table) for table, _ in factors))


def integrate_torus(f, grid: GridSpec) -> QuadResult:
    """Trapezoid approximation of (1/(2 pi i))^d times the contour
    integral of f over the product of unit circles with measure dz/z.

    A factorised integrand is summed by contracting its factor tables
    (`TorusFactorizedIntegrand.values`) one variable at a time: no N^d
    tensor or N x N pair table is built, and the sum runs in numpy's own
    loops, not BLAS, so it is deterministic for a fixed grid and
    independent of any thread count.
    """
    if isinstance(f, IntegrandSum):
        return _integrate_sum(f, grid)
    if not isinstance(f, TorusFactorizedIntegrand):
        raise TypeError(f"cannot integrate a {type(f).__name__}")
    dims = grid.dims
    if len(set(dims)) != 1:
        raise ValueError("factorised integrands require equal dims per variable")
    if f.nvars != len(dims):
        raise ValueError(f"integrand has {f.nvars} variables, grid has {len(dims)}")
    tables = f.values(dims[0], grid.phase)
    npts = math.prod(dims)
    value = complex(f.prefactor) * _contract(tables, 1) / npts
    # a non-finite entry always reaches the sum; finite factors can overflow in it
    if not cmath.isfinite(value):
        for table, axes in tables:
            if (bad := _first_nonfinite(table)) is not None:
                where = f"variable {axes[0]}" if len(axes) == 1 else f"pair {axes}"
                raise ArithmeticError(f"non-finite integrand factor on {where} at grid index {bad}")
        raise ArithmeticError(f"integrand sum over grid {dims} is not finite")

    if all(n % 2 == 0 for n in dims):
        sub_value = complex(f.prefactor) * _contract(tables, 2) * (2 ** len(dims)) / npts
        estimate = abs(value - sub_value) / max(abs(value), 1e-300)
    else:
        estimate = math.inf

    return QuadResult(value, estimate, npts)


def integrate_adaptive(f, start: GridSpec, target_rel: float, doublings: int) -> QuadResult:
    """Walk the doubling ladder from start, at most `doublings` steps,
    until the subgrid estimate meets target_rel.  The last grid's result
    is returned either way, with evals summed over every grid, and
    flagged budget_exhausted when the estimate was never met.

    Each level samples at its own quarter-step offset, but its [::2] subgrid
    keeps that phase, an eighth of its own step, so the estimate mostly reads high."""
    evals = 0
    for _, grid in zip(range(doublings + 1), doubling_ladder(start)):
        result = integrate_torus(f, grid)
        evals += result.evals
        if result.doubling_estimate <= target_rel:
            break
    else:
        result.budget_exhausted = True
    result.evals = evals
    return result


def convergence_table(f, start: GridSpec, levels: int) -> list[dict]:
    """One row per grid of the first `levels` of the doubling ladder; the
    rows' keys, in order, are convergence_csv's columns."""
    rows = []
    for _, grid in zip(range(levels), doubling_ladder(start)):
        t0 = time.perf_counter()
        res = integrate_torus(f, grid)
        rows.append(
            {
                "grid": "x".join(str(n) for n in grid.dims),
                "value_re": res.value.real,
                "value_im": res.value.imag,
                "doubling_estimate": res.doubling_estimate,
                "evals": res.evals,
                "runtime_ms": int((time.perf_counter() - t0) * 1000),
            }
        )
    return rows


def convergence_csv(rows: list[dict]) -> str:
    """The rows, at least one, as CSV text: a header of the first row's
    keys, then the rows."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()
