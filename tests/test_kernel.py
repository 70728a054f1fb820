"""Tests for the elliptic interpolation kernel."""

import cmath

import numpy as np
import pytest

from ellsel.core import NomePair, elliptic_gamma
from ellsel.kernel import (
    ContourError,
    kernel_k1,
    kernel_k2,
    kernel_t_reflection_residual,
)
from ellsel.interpolation import interp_nonskew
from ellsel.partitions import Bipartition, spectral_vector
from ellsel.symbols import SymbolContext

CTX = SymbolContext(NomePair(0.18, 0.15), 0.4)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def unit(rng):
    return cmath.exp(2j * cmath.pi * rng.uniform())


class TestClosedForms:
    def test_k1_symmetries(self):
        rng = np.random.default_rng(1)
        x, y, c = unit(rng), unit(rng), 0.5 * unit(rng)
        base = kernel_k1(x, y, c, CTX)
        assert rel_err(kernel_k1(y, x, c, CTX), base) < 1e-12
        assert rel_err(kernel_k1(1 / x, y, c, CTX), base) < 1e-12
        swapped = SymbolContext(CTX.nomes.swapped(), CTX.t)
        assert rel_err(kernel_k1(x, y, c, swapped), base) < 1e-12
        assert rel_err(kernel_k1(-x, y, -c, CTX), base) < 1e-12

    def test_k1_c_factoring_normalisation(self):
        # At c = (pq/t)^(1/2): Gamma(t) Gamma(c^2) = Gamma(t) Gamma(pq/t) = 1
        # by reflection, so the kernel equals the bare gamma product.
        rng = np.random.default_rng(2)
        x, y = unit(rng), unit(rng)
        c = cmath.sqrt(CTX.pq / CTX.t)
        val = kernel_k1(x, y, c, CTX)
        prod = 1.0
        for arg in (c * x * y, c * x / y, c * y / x, c / (x * y)):
            prod *= elliptic_gamma(arg, CTX.nomes)
        assert rel_err(val, prod) < 1e-12
        norm = elliptic_gamma(CTX.t, CTX.nomes) * elliptic_gamma(c**2, CTX.nomes)
        assert abs(norm - 1.0) < 1e-12

    def test_k1_t_reflection(self):
        rng = np.random.default_rng(3)
        x, y, c = unit(rng), unit(rng), 0.5 * unit(rng)
        assert kernel_t_reflection_residual((x,), (y,), c, CTX) < 1e-10


class TestKernelK2:
    def test_c_factoring_locus(self):
        rng = np.random.default_rng(4)
        c = cmath.sqrt(CTX.pq / CTX.t)
        x = (unit(rng), unit(rng))
        y = (unit(rng), unit(rng))
        val = kernel_k2(x, y, c, CTX, inner_grid=128)
        prod = 1.0
        for xi in x:
            for yj in y:
                for arg in (c * xi * yj, c * xi / yj, c * yj / xi, c / (xi * yj)):
                    prod *= elliptic_gamma(arg, CTX.nomes)
        assert rel_err(val, prod) < 1e-7

    def test_spectral_specialisation(self):
        # y = a <lam>_2 / c reduces the kernel to an interpolation
        # function times an explicit gamma prefactor, with c^2 = t a b.
        # The inner contour needs |q| < t^2 m^2 and a in a window around
        # |c|^2 / (t^(3/2) p); the draw below sits inside it.
        rng = np.random.default_rng(5)
        ctx = SymbolContext(NomePair(0.2, 0.1), 0.45)
        lam = Bipartition.of((1,), ())
        t, p, q = ctx.t, ctx.p, ctx.q
        nomes = ctx.nomes
        a = 2.0 * unit(rng)
        c = 0.3 * unit(rng)
        b = c**2 / (t * a)
        x = (unit(rng), unit(rng))
        y = tuple(a * z / c for z in spectral_vector(lam, 2, t, p, q))
        val = kernel_k2(x, y, c, ctx, inner_grid=128)
        rstar = interp_nonskew(lam, x, a, b, ctx)
        pref = 1.0
        for i, xi in enumerate(x, start=1):
            expo = 2 * lam.first[i - 1] * lam.second[i - 1]
            pref *= (ctx.pq / (a * b)) ** expo
            for arg in (a * xi, a / xi, b * xi, b / xi):
                pref *= elliptic_gamma(arg, nomes)
            pref /= elliptic_gamma(t**i, nomes) * elliptic_gamma(
                t ** (i - 1) * a * b, nomes
            )
        assert rel_err(val, rstar * pref) < 1e-6

    def test_xy_swap(self):
        rng = np.random.default_rng(6)
        c = 0.5 * unit(rng)
        x = (unit(rng), unit(rng))
        y = (unit(rng), unit(rng))
        a = kernel_k2(x, y, c, CTX, inner_grid=128, check_branch=False)
        b = kernel_k2(y, x, c, CTX, inner_grid=128, check_branch=False)
        assert rel_err(a, b) < 1e-7

    def test_inner_grid_doubling(self):
        rng = np.random.default_rng(7)
        c = 0.5 * unit(rng)
        x = (unit(rng), unit(rng))
        y = (unit(rng), unit(rng))
        v128 = kernel_k2(x, y, c, CTX, inner_grid=128, check_branch=False)
        v256 = kernel_k2(x, y, c, CTX, inner_grid=256, check_branch=False)
        assert abs(v128 - v256) / abs(v256) < 1e-8

    def test_t_reflection_k2(self):
        rng = np.random.default_rng(8)
        # Both branchings must be feasible: |c| < m (pq/t)^(1/2) for the
        # reflected side and |pq|/|c (pq/t)^(1/2)| < m for its y2 tower.
        c = 0.2 * unit(rng)
        x = (unit(rng), unit(rng))
        y = (unit(rng), unit(rng))
        assert kernel_t_reflection_residual(x, y, c, CTX) < 1e-6

    def test_contour_violation_reported(self):
        with pytest.raises(ContourError):
            kernel_k2((0.2, 1.0), (1.0, 1.0), 0.5, CTX)
