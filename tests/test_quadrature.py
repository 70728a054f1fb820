"""Tests for the torus trapezoid quadrature."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsel import quadrature
from ellsel.quadrature import (
    MAX_POINTS,
    BudgetError,
    GridSpec,
    IntegrandSum,
    TorusFactorizedIntegrand,
    _contract,
    convergence_csv,
    convergence_table,
    doubling_ladder,
    integrate_adaptive,
    integrate_torus,
)
from oracles import expand_tables


class TestLaurentExactness:
    def test_nonzero_modes_integrate_to_zero(self):
        grid = GridSpec((32,))
        for m in (1, -1, 5, -13, 31):
            mode = TorusFactorizedIntegrand(nvars=1, unary=[(0, lambda z, m=m: z**m)])
            res = integrate_torus(mode, grid)
            assert abs(res.value) < 1e-14

    def test_constant_is_one(self):
        res = integrate_torus(TorusFactorizedIntegrand(nvars=2), GridSpec((16, 16)))
        assert abs(res.value - 1.0) < 1e-15

    def test_2d_mixed_mode(self):
        grid = GridSpec((16, 16))
        mode = TorusFactorizedIntegrand(
            nvars=2, unary=[(0, lambda z: z**3), (1, lambda z: z**-2)]
        )
        res = integrate_torus(mode, grid)
        assert abs(res.value) < 1e-14


class TestDeterminism:
    def test_bit_identical_reruns(self):
        grid = GridSpec((64,))
        f = TorusFactorizedIntegrand(nvars=1, unary=[(0, lambda z: np.exp(z) / (2.0 - z))])
        a = integrate_torus(f, grid).value
        b = integrate_torus(f, grid).value
        assert a == b


class TestAdaptive:
    def test_geometric_error_decay(self):
        # Analytic periodic integrand: estimates fall by >= 5x per doubling.
        f = TorusFactorizedIntegrand(
            nvars=1, unary=[(0, lambda z: 1.0 / ((1.0 - 0.6 * z) * (1.0 - 0.6 / z)))]
        )
        rows = convergence_table(f, GridSpec((8,)), levels=5)
        ests = [r["doubling_estimate"] for r in rows[1:4]]
        for a, b in zip(ests, ests[1:]):
            assert b <= 0.2 * a

    def test_constant_terminates_at_start(self):
        res = integrate_adaptive(TorusFactorizedIntegrand(nvars=1), GridSpec((8,)), 1e-12, 0)
        assert res.evals == 8
        assert not res.budget_exhausted

    def test_budget_flag(self):
        f = TorusFactorizedIntegrand(
            nvars=1, unary=[(0, lambda z: 1.0 / ((1.0 - 0.999 * z) * (1.0 - 0.999 / z)))]
        )
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


def _circle(n, phase):
    return np.exp(1j * (2.0 * math.pi * np.arange(n) / n + phase))


def g(z):
    return 1.0 + 0.3 * z + 0.1 / z


def h(w):
    return 1.0 / (1.0 - 0.5 * w)


class TestFactorizedIntegrand:
    def test_matches_callable_path(self):
        # f(z1, z2) = 2 g(z1) g(z2) h(z1 z2) h(z1/z2), contracted from its
        # factor tables and evaluated point by point on the grid
        fact = TorusFactorizedIntegrand(
            nvars=2,
            unary=[(0, g), (1, g)],
            pairs=[(0, 1, h)],
            prefactor=2.0,
        )
        grid = GridSpec((32, 32))
        z1, z2 = np.meshgrid(*[_circle(32, grid.phase)] * 2, indexing="ij")
        direct = np.mean(2.0 * g(z1) * g(z2) * h(z1 * z2) * h(z1 / z2))
        a = integrate_torus(fact, grid)
        assert abs(a.value - direct) < 1e-13 * max(1.0, abs(direct))

    def test_three_variables_match_meshgrid_value_and_estimate(self):
        # a chain of pairs (0, 1), (1, 2) with distinct factor functions
        def h2(w):
            return np.exp(0.4 * w)

        fact = TorusFactorizedIntegrand(
            nvars=3,
            unary=[(0, g), (2, lambda z: 1.0 / (1.0 - 0.3 / z))],
            pairs=[(0, 1, h), (1, 2, h2)],
            prefactor=0.5 - 1.5j,
        )
        grid = GridSpec((16, 16, 16))
        z1, z2, z3 = np.meshgrid(*[_circle(16, grid.phase)] * 3, indexing="ij")
        tensor = (0.5 - 1.5j) * g(z1) / (1.0 - 0.3 / z3)
        tensor *= h(z1 * z2) * h(z1 / z2) * h2(z2 * z3) * h2(z2 / z3)
        value, sub = np.mean(tensor), np.mean(tensor[::2, ::2, ::2])
        res = integrate_torus(fact, grid)
        assert abs(res.value - value) <= 1e-13 * abs(value)
        estimate = abs(value - sub) / abs(value)
        assert 1e-8 < estimate < 1.0
        assert abs(res.doubling_estimate - estimate) <= 1e-13

    def test_shared_factor_functions_run_once_per_grid(self):
        # one unary function on all three variables and one pair function
        # on all three pairs: each runs once, the pair function on the
        # product and ratio circles together
        calls = []

        def counted_g(z):
            calls.append(("unary", z.size))
            return g(z)

        def counted_h(w):
            calls.append(("pair", w.size))
            return h(w)

        fact = TorusFactorizedIntegrand(
            nvars=3,
            unary=[(v, counted_g) for v in range(3)],
            pairs=[(0, 1, counted_h), (0, 2, counted_h), (1, 2, counted_h)],
        )
        n, phase = 8, 0.1
        got = expand_tables(fact, n, phase)
        assert sorted(calls) == [("pair", 2 * n), ("unary", n)]

        z = _circle(n, phase)
        z1, z2, z3 = np.meshgrid(z, z, z, indexing="ij")
        want = g(z1) * g(z2) * g(z3)
        for zi, zj in ((z1, z2), (z1, z3), (z2, z3)):
            want *= h(zi * zj) * h(zi / zj)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_contraction_builds_no_grid_tensor(self):
        # the 256^3 product tensor alone would take 268 MB
        fact = TorusFactorizedIntegrand(
            nvars=3, unary=[(v, g) for v in range(3)], pairs=[(0, 2, h)]
        )
        grid = GridSpec((256, 256, 256))
        tracemalloc.start()
        try:
            res = integrate_torus(fact, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert res.evals == 256**3

    def test_one_pair_sum_builds_no_pair_table(self):
        # the 2048^2 pair table alone would take 64 MB; its circles take 64 kB
        fact = TorusFactorizedIntegrand(nvars=2, unary=[(0, g), (1, g)], pairs=[(0, 1, h)])
        grid = GridSpec((2048, 2048))
        tracemalloc.start()
        try:
            res = integrate_torus(fact, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert res.evals == 2048**2

    def test_nonfinite_sample_reported(self):
        def nan_at_3(z):
            vals = np.ones(z.size, dtype=complex)
            vals[3] = np.nan
            return vals

        f = TorusFactorizedIntegrand(nvars=2, unary=[(1, nan_at_3)])
        with pytest.raises(ArithmeticError, match=r"variable 1 at grid index \(3,\)"):
            integrate_torus(f, GridSpec((8, 8)))
        # the pair (0, 1) reads its function's product circle at s0 + s1
        f = TorusFactorizedIntegrand(nvars=2, pairs=[(0, 1, nan_at_3)])
        with pytest.raises(ArithmeticError, match=r"pair \(0, 1\) at grid index \(0, 3\)"):
            integrate_torus(f, GridSpec((8, 8)))

    def test_overflowing_pair_product_reports_index(self):
        # both circles are finite; only [s, t] with s + t = 5 and s - t = 1
        # (mod 8), that is (3, 2) and (7, 6), multiplies 1e200 by 1e200
        def peaks(z):
            vals = np.ones(z.size, dtype=complex)
            vals[[5, 8 + 1]] = 1e200  # product circle index 5, ratio circle index 1
            return vals

        f = TorusFactorizedIntegrand(nvars=3, unary=[(0, g)], pairs=[(0, 2, h), (1, 2, peaks)])
        with pytest.raises(ArithmeticError, match=r"pair \(1, 2\) at grid index \(3, 2\)"):
            integrate_torus(f, GridSpec((8, 8, 8)))

    def test_overflowing_product_raises(self):
        def big(z):
            return np.full(z.size, 1e200, dtype=complex)

        f = TorusFactorizedIntegrand(nvars=2, unary=[(0, big), (1, big)])
        with pytest.raises(ArithmeticError, match="not finite"):
            integrate_torus(f, GridSpec((8, 8)))

    def test_other_integrand_types_rejected(self):
        with pytest.raises(TypeError):
            integrate_torus(lambda pts: np.ones(len(pts)), GridSpec((8,)))


_COEFFICIENTS = st.lists(
    st.builds(complex, st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), min_size=3, max_size=3
)


@st.composite
def factorised_integrands(draw):
    """1-4 variables whose pairs form a chain, a triangle, a star, two
    disconnected edges or a complete graph, some pairs sharing one
    function, some variables with no factor at all."""
    nvars = draw(st.integers(1, 4))
    graphs = {
        "chain": [(v, v + 1) for v in range(nvars - 1)],
        "triangle": [(0, 1), (0, 2), (1, 2)] if nvars >= 3 else [],
        "star": [(0, v) for v in range(1, nvars)],
        "disconnected": [(0, 1), (2, 3)] if nvars == 4 else [(0, nvars - 1)] if nvars > 1 else [],
        "complete": [(vi, vj) for vi in range(nvars) for vj in range(vi + 1, nvars)],
    }
    edges = graphs[draw(st.sampled_from(sorted(graphs)))]
    nfns = draw(st.integers(1, max(1, len(edges))))
    fns = [
        (lambda w, a=a, b=b, c=c: (1.0 + a * w + b / w) / (1.0 - c * w))
        for a, b, c in (draw(_COEFFICIENTS) for _ in range(nfns))
    ]
    pairs = [(vi, vj, fns[draw(st.integers(0, nfns - 1))]) for vi, vj in edges]
    unary = [
        (v, lambda z, a=a, b=b, c=c: 1.0 + a * z + b / z + c * z * z)
        for v in range(nvars)
        if draw(st.booleans())
        for a, b, c in [draw(_COEFFICIENTS)]
    ]
    prefactor = complex(*draw(st.tuples(st.floats(0.5, 2.0), st.floats(-1.0, 1.0))))
    return TorusFactorizedIntegrand(nvars, unary, pairs, prefactor)


class TestElimination:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        factorised_integrands(),
        st.sampled_from([4, 6, 8, 10, 12]),
        st.floats(0.0, 1.0),
        st.sampled_from([quadrature.PAIR_BLOCK_ENTRIES, 30, 7]),
    )
    def test_matches_the_expanded_tensor(self, f, n, phase, block_entries):
        # the value and the step-2 subgrid value against the sum of the
        # broadcast product of the tables; small blocks leave partial ones
        tables = f.values(n, phase)
        tensor = expand_tables(f, n, phase)
        sub = tensor[(slice(None, None, 2),) * f.nvars]
        for step, want in ((1, tensor.sum()), (2, sub.sum())):
            with mock.patch.object(quadrature, "PAIR_BLOCK_ENTRIES", block_entries):
                got = f.prefactor * _contract(tables, step)
            if f.nvars == 1:
                # a single variable has no pairs: the one unoptimised einsum
                (vec, _), = tables
                want_bits = complex(np.einsum(vec[::step], [0], [], optimize=False))
                assert _contract(tables, step) == want_bits
            assert abs(got - want) <= 1e-13 * abs(want)


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
        rows = convergence_table(TorusFactorizedIntegrand(nvars=1), GridSpec((8,)), levels=2)
        text = convergence_csv(rows)
        assert text.splitlines()[0] == "grid,value_re,value_im,doubling_estimate,evals,runtime_ms"
        assert len(text.splitlines()) == 3
