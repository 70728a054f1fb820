"""Tests for densities, parameter sets, feasibility and the closed-form
torus-integral products."""

import cmath

import numpy as np
import pytest

from ellsel.core import NomePair
from ellsel.densities import (
    BalancingError,
    IntegrandDescriptor,
    ParamSet,
    an_density,
    an_selberg_rhs,
    dixon_density,
    feasibility_check,
    kappa,
    selberg_average_normalizer,
    selberg_edge_density,
    selberg_vertex_density,
)
from ellsel.harness import sample_an_params
from ellsel.quadrature import GridSpec, integrate_adaptive, integrate_torus

NOMES = NomePair(0.15, 0.2)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def make_balanced_n1(k=1, seed=0, twindow=None, window=None):
    """Draw a feasible rank-one parameter set with t_6 solved from the
    balancing relation.  Window defaults depend on k: the modulus budget
    |pq| = |t|^(2k-2) |t_1..t_6| shifts with the rank."""
    if twindow is None:
        twindow = (0.25, 0.4) if k == 1 else (0.42, 0.5)
    if window is None:
        window = (0.35, 0.6) if k == 1 else (0.62, 0.8)
    rng = np.random.default_rng(seed)
    for _ in range(500):
        t = rng.uniform(*twindow) * cmath.exp(2j * cmath.pi * rng.uniform())
        ts = [
            rng.uniform(*window) * cmath.exp(2j * cmath.pi * rng.uniform())
            for _ in range(5)
        ]
        t6 = NOMES.pq / (t ** (2 * k - 2) * np.prod(ts))
        if abs(t6) > 0.8 or abs(t6) < 0.05:
            continue
        try:
            params = ParamSet(1, (k,), NOMES.p, NOMES.q, t, tuple(ts) + (t6,))
        except (ValueError, BalancingError):
            continue
        if feasibility_check(params).ok:
            return params
    raise RuntimeError(f"no feasible rank-one draw for k={k}")


class TestPointDensities:
    def test_inversion_and_permutation_invariance(self):
        ts = (0.3, 0.4, 0.5, 0.45, 0.35, 0.55)
        z = (cmath.exp(0.7j), cmath.exp(2.1j))
        base = selberg_vertex_density(z, ts, 0.3, NOMES)
        assert rel_err(selberg_vertex_density((1 / z[0], z[1]), ts, 0.3, NOMES), base) < 1e-12
        assert rel_err(selberg_vertex_density((z[1], z[0]), ts, 0.3, NOMES), base) < 1e-12

    def test_dixon_invariances(self):
        ts = (0.3, 0.4, 0.5, 0.45)
        z = (cmath.exp(0.4j), cmath.exp(1.9j))
        base = dixon_density(z, ts, NOMES)
        assert rel_err(dixon_density((1 / z[0], z[1]), ts, NOMES), base) < 1e-12
        assert rel_err(dixon_density((z[1], z[0]), ts, NOMES), base) < 1e-12

    def test_selberg_dixon_relation(self):
        # Vertex density = Dixon density on the same parameter list,
        # times Gamma(t)^k prod_{i<j} Gamma(t z_i^+- z_j^+-).  (Appending
        # t to the Dixon list instead would insert a spurious
        # Gamma(t z_i^+-) per variable; the vertex definition has none.)
        from ellsel.core import elliptic_gamma

        t = 0.3 + 0.05j
        ts = (0.3, 0.4, 0.5, 0.45, 0.35, 0.55)
        for k, z in [(1, (cmath.exp(0.9j),)), (2, (cmath.exp(0.4j), cmath.exp(1.9j))), (3, (cmath.exp(0.4j), cmath.exp(1.3j), cmath.exp(2.6j)))]:
            zs = z[:k]
            lhs = selberg_vertex_density(zs, ts, t, NOMES)
            rhs = dixon_density(zs, ts, NOMES) * elliptic_gamma(t, NOMES) ** k
            for i in range(k):
                for j in range(i + 1, k):
                    for arg in (
                        t * zs[i] * zs[j],
                        t * zs[i] / zs[j],
                        t * zs[j] / zs[i],
                        t / (zs[i] * zs[j]),
                    ):
                        rhs *= elliptic_gamma(arg, NOMES)
            assert rel_err(lhs, rhs) < 1e-11

    def test_edge_density_symmetries(self):
        c = 0.4 + 0.1j
        z, w = (cmath.exp(0.5j),), (cmath.exp(1.2j),)
        assert selberg_edge_density(z, (), c, NOMES) == 1.0
        assert rel_err(
            selberg_edge_density(z, w, c, NOMES), selberg_edge_density(w, z, c, NOMES)
        ) < 1e-13

    def test_edge_density_is_unnormalised_kernel(self):
        # One-pair edge factor = one-pair kernel times Gamma(t) Gamma(c^2);
        # at c = (pq/t)^(1/2) the normalisation itself is exactly one.
        from ellsel.core import elliptic_gamma
        from ellsel.kernel import kernel_k1
        from ellsel.symbols import SymbolContext

        t = 0.35 + 0.02j
        ctx = SymbolContext(NOMES, t)
        z, w = cmath.exp(0.5j), cmath.exp(1.2j)
        for c in (0.4 + 0.1j, cmath.sqrt(NOMES.pq / t)):
            edge = selberg_edge_density((z,), (w,), c, NOMES)
            norm = elliptic_gamma(t, NOMES) * elliptic_gamma(c**2, NOMES)
            assert rel_err(edge, kernel_k1(z, w, c, ctx) * norm) < 1e-12
        factoring_norm = elliptic_gamma(t, NOMES) * elliptic_gamma(NOMES.pq / t, NOMES)
        assert abs(factoring_norm - 1.0) < 1e-12


class TestParamSet:
    def test_balancing_enforced(self):
        with pytest.raises(BalancingError):
            ParamSet(1, (1,), 0.15, 0.2, 0.3, (0.3, 0.4, 0.5, 0.45, 0.35, 0.55))

    def test_json_roundtrip(self):
        params = make_balanced_n1(seed=3)
        back = ParamSet.from_json(params.to_json())
        assert back == params

    def test_c_branch(self):
        params = make_balanced_n1(seed=4)
        assert abs(params.c**2 - params.p * params.q / params.t) < 1e-15

    def test_infeasible_draw_diagnosed(self):
        params = make_balanced_n1(seed=5)
        # An outward pole inside the 1 + delta margin must be flagged.
        bad = feasibility_check(params, extra_poles=[(1.02 + 0j, "test pole")])
        assert not bad.ok
        assert any("test pole" in v for v in bad.violations)
        # A vertex parameter pushed past 1 - delta must also be flagged.
        wide = feasibility_check(params, extra_poles=[(0.97 + 0j, "inward pole")])
        assert any("inward pole" in v for v in wide.violations)

    def test_large_vertex_parameter_named_in_diagnostics(self):
        # Scale t1 past the unit circle (and t2 inversely, preserving the
        # balancing): the report must name the offending vertex slot.
        params = make_balanced_n1(seed=6)
        scale = 1.2 / abs(params.ts[0])
        ts = (params.ts[0] * scale, params.ts[1] / scale) + params.ts[2:]
        big = ParamSet(1, params.k, params.p, params.q, params.t, ts)
        feas = feasibility_check(big)
        assert not feas.ok
        assert any("vertex r=1 parameter 1" in v for v in feas.violations)


class TestAnDensity:
    def test_n1_reduces_to_vertex(self):
        params = make_balanced_n1(seed=6)
        z = (cmath.exp(0.8j),)
        lhs = an_density((z,), params)
        rhs = selberg_vertex_density(z, params.ts, params.t, params.nomes)
        assert rel_err(lhs, rhs) < 1e-13

    def test_n2_composition(self):
        rng = np.random.default_rng(7)
        params, _ = sample_an_params(2, (1, 1), rng, N2_WINDOWS)
        z1, z2 = (cmath.exp(0.8j),), (cmath.exp(2.0j),)
        lhs = an_density((z1, z2), params)
        rhs = (
            selberg_vertex_density(z1, params.vertex_params(1), params.t, params.nomes)
            * selberg_edge_density(z1, z2, params.c, params.nomes)
            * selberg_vertex_density(z2, params.vertex_params(2), params.t, params.nomes)
        )
        assert rel_err(lhs, rhs) < 1e-13

    def test_descriptor_matches_point_density(self):
        rng = np.random.default_rng(8)
        params, _ = sample_an_params(2, (1, 1), rng, N2_WINDOWS)
        integrand = IntegrandDescriptor(params).build()
        n, phase = 8, 0.37
        tensor = integrand.values(n, phase)
        import math as _m

        for a, b in [(0, 0), (1, 5), (3, 2)]:
            z1 = cmath.exp(1j * (2 * _m.pi * a / n + phase))
            z2 = cmath.exp(1j * (2 * _m.pi * b / n + phase))
            want = an_density(((z1,), (z2,)), params)
            assert rel_err(tensor[a, b], want) < 1e-11


N2_WINDOWS = {
    "p": (0.28, 0.34),
    "q": (0.28, 0.34),
    "t": (0.2, 0.3),
    "odd": (0.42, 0.55),
    "shared": (0.72, 0.8),
}

WIDE_WINDOWS = {
    "p": (0.15, 0.3),
    "q": (0.15, 0.3),
    "t": (0.2, 0.45),
    "odd": (0.3, 0.6),
    "shared": (0.3, 0.6),
}


class TestNormalizer:
    def test_beta_integral_k1(self):
        # Torus quadrature of the rank-one vertex density against the
        # closed-form product (the k = 1 elliptic beta evaluation).
        params = make_balanced_n1(k=1, seed=9)
        integrand = IntegrandDescriptor(params).build()
        res = integrate_torus(integrand, GridSpec((256,)))
        rhs = selberg_average_normalizer(1, params.ts, params.t, params.nomes)
        assert rel_err(res.value, rhs) < 1e-10

    def test_selberg_k2(self):
        params = make_balanced_n1(k=2, seed=10)
        integrand = IntegrandDescriptor(params).build()
        res = integrate_torus(integrand, GridSpec((128, 128)))
        rhs = selberg_average_normalizer(2, params.ts, params.t, params.nomes)
        assert rel_err(res.value, rhs) < 1e-6

    def test_selberg_k2_adaptive_converges_within_128(self):
        params = make_balanced_n1(k=2, seed=14)
        integrand = IntegrandDescriptor(params).build()
        res = integrate_adaptive(integrand, GridSpec((32, 32)), 1e-6, max_budget=128 * 128)
        assert not res.budget_exhausted
        rhs = selberg_average_normalizer(2, params.ts, params.t, params.nomes)
        assert rel_err(res.value, rhs) < 1e-6

    def test_reflection_insensitivity(self):
        # Replacing t_6 by the solved partner leaves the value unchanged
        # (it already equals it); perturbing instead must raise.
        params = make_balanced_n1(seed=11)
        with pytest.raises(BalancingError):
            selberg_average_normalizer(
                1, params.ts[:5] + (params.ts[5] * 1.01,), params.t, params.nomes
            )

    def test_an_rhs_matches_normalizer_at_n1(self):
        params = make_balanced_n1(k=2, seed=12)
        lhs = an_selberg_rhs(params)
        rhs = selberg_average_normalizer(2, params.ts, params.t, params.nomes)
        assert rel_err(lhs, rhs) < 1e-12


class TestSampler:
    def test_n2_k11_feasible_draws(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            params, _ = sample_an_params(2, (1, 1), rng, N2_WINDOWS)
            assert feasibility_check(params).ok
            assert params.balancing_residual(1) < 1e-13
            assert params.balancing_residual(2) < 1e-13

    def test_n2_k12_is_torus_infeasible(self):
        # The balancing forces |t5 t6 t7 t8| > 1 whenever the rank-1
        # vertex parameters sit inside the unit circle, so no unit-torus
        # draw can exist for k = (1, 2).
        from ellsel.densities import InfeasibleError

        rng = np.random.default_rng(14)
        with pytest.raises(InfeasibleError):
            sample_an_params(2, (1, 2), rng, WIDE_WINDOWS, cap=60)
