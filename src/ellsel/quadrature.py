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

Three integrand forms are accepted:

* any callable f(points) with points of shape (npts, d), evaluated on
  the full product grid;
* a TorusFactorizedIntegrand, whose unary/pairwise factor structure is
  exploited so that only O(N) special-function evaluations are needed
  per grid regardless of the dimension;
* an IntegrandSum of factorised integrands of different dimensions (a
  residue-corrected contour), integrated part by part on one
  per-variable grid size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

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
    exp(2 pi i s / N), which is what keeps the number of
    special-function evaluations linear in N.
    """

    nvars: int
    unary: list = field(default_factory=list)  # (var, fn)
    pairs: list = field(default_factory=list)  # (vi, vj, fn) with vi < vj
    prefactor: complex = 1.0

    def values(self, n: int, phase: float) -> np.ndarray:
        idx = np.arange(n)
        z = np.exp(1j * (2.0 * math.pi * idx / n + phase))
        circle_prod = np.exp(1j * (2.0 * math.pi * idx / n + 2.0 * phase))
        circle_ratio = np.exp(2j * math.pi * idx / n)

        shape = (n,) * self.nvars
        total = np.full(shape, complex(self.prefactor), dtype=np.complex128)

        # a factor function shared by several variables or pairs (a
        # level's vertex factor) is evaluated once per grid
        unary_vals, pair_vals = {}, {}
        per_var = [np.ones(n, dtype=np.complex128) for _ in range(self.nvars)]
        for var, fn in self.unary:
            if id(fn) not in unary_vals:
                unary_vals[id(fn)] = fn(z)
            per_var[var] *= unary_vals[id(fn)]
        for var, vals in enumerate(per_var):
            total *= vals.reshape((1,) * var + (n,) + (1,) * (self.nvars - var - 1))

        if self.pairs:
            sum_idx = (idx[:, None] + idx[None, :]) % n
            diff_idx = (idx[:, None] - idx[None, :]) % n
            both = np.concatenate([circle_prod, circle_ratio])
            for vi, vj, fn in self.pairs:
                if id(fn) not in pair_vals:
                    pair_vals[id(fn)] = np.split(fn(both), 2)
                at_prod, at_ratio = pair_vals[id(fn)]
                mat = at_prod[sum_idx]
                mat *= at_ratio[diff_idx]
                total *= mat.reshape(
                    tuple(n if k in (vi, vj) else 1 for k in range(self.nvars))
                )
        return total


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


def _callable_values(f: Callable, dims: tuple[int, ...], phase: float) -> np.ndarray:
    axes = [
        np.exp(1j * (2.0 * math.pi * np.arange(n) / n + phase)) for n in dims
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    vals = np.asarray(f(points), dtype=np.complex128)
    return vals.reshape(tuple(dims))


def integrate_torus(f, grid: GridSpec) -> QuadResult:
    """Trapezoid approximation of (1/(2 pi i))^d times the contour
    integral of f over the product of unit circles with measure dz/z.

    Deterministic for a fixed grid: summation is numpy's
    pairwise reduction over a fixed-shape tensor, independent of any
    thread count.
    """
    if isinstance(f, IntegrandSum):
        return _integrate_sum(f, grid)
    dims = grid.dims
    if isinstance(f, TorusFactorizedIntegrand):
        if len(set(dims)) != 1:
            raise ValueError("factorised integrands require equal dims per variable")
        if f.nvars != len(dims):
            raise ValueError(f"integrand has {f.nvars} variables, grid has {len(dims)}")
        tensor = f.values(dims[0], grid.phase)
    else:
        tensor = _callable_values(f, dims, grid.phase)

    if not np.all(np.isfinite(tensor)):
        bad = np.argwhere(~np.isfinite(tensor))[0]
        raise ArithmeticError(f"non-finite integrand sample at grid index {tuple(bad)}")

    npts = math.prod(dims)
    value = complex(tensor.sum() / npts)

    if all(n % 2 == 0 for n in dims):
        sub = tensor[tuple(slice(None, None, 2) for _ in dims)]
        sub_value = complex(sub.sum() * (2 ** len(dims)) / npts)
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
