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
  grid whatever the dimension, and its factor tables are contracted in
  place of a product tensor, so memory is O(pairs * N^2) instead of N^d;
* an IntegrandSum of factorised integrands of different dimensions (a
  residue-corrected contour), integrated part by part on one
  per-variable grid size.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ellsel.core import circle

MAX_POINTS = 20_000_000


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

    def values(self, n: int, phase: float) -> list[tuple[np.ndarray, tuple[int, ...]]]:
        """(table, variables) on the n-point grid: per variable the
        product of its unary factors, a length-n vector, then per pair
        (vi, vj) an n x n matrix indexed [vi, vj], one matrix object per
        distinct function.  The integrand is the prefactor times the
        product of the tables."""
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
                at_prod, at_ratio = on_circles(fn, 2.0 * phase, 0.0)
                # [s, t] -> at_prod[(s + t) % n] * at_ratio[(s - t) % n], read
                # through sliding windows of the wrapped vectors
                hankel = sliding_window_view(np.concatenate([at_prod, at_prod[:-1]]), n)
                toeplitz = sliding_window_view(np.concatenate([at_ratio[1:], at_ratio]), n)
                pair_vals[id(fn)] = hankel * toeplitz[:, ::-1]
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


def _contract(tables, step: int) -> complex:
    """Sum over the grid, every step-th point per variable, of the
    product of the tables."""
    operands = []
    for table, axes in tables:
        operands += [table[(slice(None, None, step),) * len(axes)], list(axes)]
    return complex(np.einsum(*operands, [], optimize=False))


def integrate_torus(f, grid: GridSpec) -> QuadResult:
    """Trapezoid approximation of (1/(2 pi i))^d times the contour
    integral of f over the product of unit circles with measure dz/z.

    A factorised integrand is summed by contracting its factor tables
    (`TorusFactorizedIntegrand.values`) with one unoptimised einsum: no
    N^d tensor is built, and the sum runs in numpy's own loops, not
    BLAS, so it is deterministic for a fixed grid and independent of
    any thread count.
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
    for table, axes in tables:
        if not np.all(np.isfinite(table)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(table))[0])
            where = f"variable {axes[0]}" if len(axes) == 1 else f"pair {axes}"
            raise ArithmeticError(f"non-finite integrand factor on {where} at grid index {bad}")

    npts = math.prod(dims)
    value = complex(f.prefactor) * _contract(tables, 1) / npts
    # finite factors can still overflow in their product
    if not cmath.isfinite(value):
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

    Each level samples at its own quarter-step offset, so the subgrid
    estimator never lands on its symmetric blind spot."""
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
    """One row per grid of the first `levels` of the doubling ladder;
    rows mirror the CSV schema."""
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
    """The rows as CSV text, header first."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.DictWriter(
        out, fieldnames=["grid", "value_re", "value_im", "doubling_estimate", "evals", "runtime_ms"]
    )
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()
