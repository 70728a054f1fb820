"""Tests for the torus trapezoid quadrature."""

import math

import numpy as np
import pytest

from ellsel.quadrature import (
    MAX_POINTS,
    BudgetError,
    GridSpec,
    IntegrandSum,
    TorusFactorizedIntegrand,
    convergence_csv,
    convergence_table,
    doubling_ladder,
    integrate_adaptive,
    integrate_torus,
)


class TestLaurentExactness:
    def test_nonzero_modes_integrate_to_zero(self):
        grid = GridSpec((32,))
        for m in (1, -1, 5, -13, 31):
            res = integrate_torus(lambda pts, m=m: pts[:, 0] ** m, grid)
            assert abs(res.value) < 1e-14

    def test_constant_is_one(self):
        res = integrate_torus(lambda pts: np.ones(len(pts)), GridSpec((16, 16)))
        assert abs(res.value - 1.0) < 1e-15

    def test_2d_mixed_mode(self):
        grid = GridSpec((16, 16))
        res = integrate_torus(lambda pts: pts[:, 0] ** 3 * pts[:, 1] ** -2, grid)
        assert abs(res.value) < 1e-14


class TestDeterminism:
    def test_bit_identical_reruns(self):
        grid = GridSpec((64,))

        def f(pts):
            z = pts[:, 0]
            return np.exp(z) / (2.0 - z)

        a = integrate_torus(f, grid).value
        b = integrate_torus(f, grid).value
        assert a == b


class TestAdaptive:
    def test_geometric_error_decay(self):
        # Analytic periodic integrand: estimates fall by >= 5x per doubling.
        def f(pts):
            z = pts[:, 0]
            return 1.0 / ((1.0 - 0.6 * z) * (1.0 - 0.6 / z))

        rows = convergence_table(f, GridSpec((8,)), levels=5)
        ests = [r["doubling_estimate"] for r in rows[1:4]]
        for a, b in zip(ests, ests[1:]):
            assert b <= 0.2 * a

    def test_constant_terminates_at_start(self):
        res = integrate_adaptive(lambda pts: np.ones(len(pts)), GridSpec((8,)), 1e-12, 0)
        assert res.evals == 8
        assert not res.budget_exhausted

    def test_budget_flag(self):
        def f(pts):
            z = pts[:, 0]
            return 1.0 / ((1.0 - 0.999 * z) * (1.0 - 0.999 / z))

        res = integrate_adaptive(f, GridSpec((8,)), 1e-14, 3)
        assert res.evals == 8 + 16 + 32 + 64
        assert res.budget_exhausted

    def test_budget_error_on_oversized_grid(self):
        with pytest.raises(BudgetError):
            GridSpec((4096, 4096, 4096))

    def test_ladder_stops_at_max_points(self):
        dims = [grid.dims for grid in doubling_ladder(GridSpec((1024, 1024)))]
        assert dims == [(1024, 1024), (2048, 2048), (4096, 4096)]
        assert math.prod(dims[-1]) <= MAX_POINTS < math.prod(dims[-1]) * 4


class TestFactorizedIntegrand:
    def test_matches_callable_path(self):
        # f(z1, z2) = g(z1) g(z2) h(z1 z2) h2(z1/z2) assembled both ways.
        def g(z):
            return 1.0 + 0.3 * z + 0.1 / z

        def h(w):
            return 1.0 / (1.0 - 0.5 * w)

        fact = TorusFactorizedIntegrand(
            nvars=2,
            unary=[(0, g), (1, g)],
            pairs=[(0, 1, h)],
            prefactor=2.0,
        )

        def direct(pts):
            z1, z2 = pts[:, 0], pts[:, 1]
            return 2.0 * g(z1) * g(z2) * h(z1 * z2) * h(z1 / z2)

        grid = GridSpec((32, 32))
        a = integrate_torus(fact, grid)
        b = integrate_torus(direct, grid)
        assert abs(a.value - b.value) < 1e-13 * max(1.0, abs(b.value))

    def test_shared_factor_functions_run_once_per_grid(self):
        # one unary function on all three variables and one pair function
        # on all three pairs: each runs once, the pair function on the
        # product and ratio circles together
        calls = []

        def g(z):
            calls.append(("unary", z.size))
            return 1.0 + 0.3 * z + 0.1 / z

        def h(w):
            calls.append(("pair", w.size))
            return 1.0 / (1.0 - 0.5 * w)

        fact = TorusFactorizedIntegrand(
            nvars=3,
            unary=[(v, g) for v in range(3)],
            pairs=[(0, 1, h), (0, 2, h), (1, 2, h)],
        )
        n, phase = 8, 0.1
        got = fact.values(n, phase)
        assert sorted(calls) == [("pair", 2 * n), ("unary", n)]

        z = np.exp(1j * (2.0 * math.pi * np.arange(n) / n + phase))
        z1, z2, z3 = np.meshgrid(z, z, z, indexing="ij")
        want = g(z1) * g(z2) * g(z3)
        for zi, zj in ((z1, z2), (z1, z3), (z2, z3)):
            want *= h(zi * zj) * h(zi / zj)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_nonfinite_sample_reported(self):
        def f(pts):
            vals = np.ones(len(pts), dtype=complex)
            vals[3] = np.nan
            return vals

        with pytest.raises(ArithmeticError, match="grid index"):
            integrate_torus(f, GridSpec((8,)))


class TestIntegrandSum:
    # exp(a z) and exp(b / z) have circle mean 1, so each part's integral
    # is its prefactor.
    PARTS = [
        TorusFactorizedIntegrand(
            nvars=2,
            unary=[(0, lambda z: np.exp(0.7 * z)), (1, lambda z: np.exp(0.4j / z))],
            prefactor=2.0,
        ),
        TorusFactorizedIntegrand(nvars=1, unary=[(0, lambda z: np.exp(z))], prefactor=3.0),
        TorusFactorizedIntegrand(nvars=0, prefactor=0.5),
    ]

    def test_parts_of_every_dimension_add_up(self):
        res = integrate_torus(IntegrandSum(self.PARTS), GridSpec((32, 32)))
        assert abs(res.value - 5.5) < 1e-13
        assert res.evals == 32 * 32 + 32 + 1
        assert res.doubling_estimate < 1e-12

    def test_estimate_weighs_each_part_by_its_size(self):
        slow = TorusFactorizedIntegrand(
            nvars=1, unary=[(0, lambda z: 1.0 / (1.0 - 0.6 / z))], prefactor=3.0
        )
        grid = GridSpec((16,))
        alone = integrate_torus(slow, grid)
        summed = integrate_torus(IntegrandSum([slow, self.PARTS[2]]), grid)
        want = abs(alone.value) * alone.doubling_estimate / abs(alone.value + 0.5)
        assert summed.doubling_estimate == pytest.approx(want, rel=1e-12)

    def test_leading_part_must_span_the_grid(self):
        with pytest.raises(ValueError):
            integrate_torus(IntegrandSum(self.PARTS[1:]), GridSpec((32, 32)))


class TestCsv(object):
    def test_roundtrip(self):
        rows = convergence_table(lambda pts: np.ones(len(pts)), GridSpec((8,)), levels=2)
        text = convergence_csv(rows)
        assert text.splitlines()[0] == "grid,value_re,value_im,doubling_estimate,evals,runtime_ms"
        assert len(text.splitlines()) == 3
