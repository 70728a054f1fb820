"""Tests for theta, the elliptic gamma function and shifted factorials."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellsel import core
from ellsel.core import (
    THETA_TABLE_ENTRIES,
    DomainError,
    NomePair,
    PoleError,
    circle,
    elliptic_gamma,
    elliptic_gamma_circle,
    elliptic_gamma_multi,
    elliptic_shifted_factorial,
    theta,
)
from oracles import gamma_double_product, gamma_mp, theta_mp, theta_product


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _complex(modulus):
    return st.builds(
        lambda r, phase: r * cmath.exp(2j * cmath.pi * phase),
        modulus,
        st.floats(0.0, 1.0),
    )


# |z| in e^-6 .. e^6 with any phase: a dozen or more annuli at the larger nomes
_far_z = st.builds(
    lambda logr, phase: cmath.exp(logr + 2j * cmath.pi * phase),
    st.floats(-6.0, 6.0),
    st.floats(0.0, 1.0),
)


def _well_conditioned(f, z, cond=100.0, h=1e-7):
    """f changes by at most cond * h under a relative change h of z, and
    its value is a normal float: away from zeros and poles, where rounding
    of the argument alone decides the value, and away from over/underflow."""
    try:
        val, moved = f(z), f(z * (1 + h))
    except PoleError:
        return False
    return 1e-250 < abs(val) < 1e250 and abs(moved / val - 1) <= cond * h


class TestTheta:
    def test_against_direct_product_oracle(self):
        # 60 factors of the direct product bound the tail below 1e-18 here;
        # the frozen value below is that oracle's output.
        assert rel_err(theta(0.5, 0.1), theta_product(0.5, 0.1)) < 1e-14
        assert rel_err(theta(0.5, 0.1), 0.3695093618569191) < 1e-14

    def test_vanishes_at_one(self):
        for p in (0.1, 0.3, 0.2 + 0.1j):
            assert theta(1.0, p) == 0

    def test_quasi_periodicity(self):
        z, p = 0.4 + 0.1j, 0.2
        lhs = theta(p * z, p)
        rhs = -theta(z, p) / z
        assert rel_err(lhs, rhs) < 1e-13

    def test_inversion(self):
        z, p = 1.7 - 0.3j, 0.25
        assert rel_err(theta(1 / z, p), -theta(z, p) / z) < 1e-12

    def test_far_arguments_reduce_correctly(self):
        # Values far outside the annulus must agree with the raw product.
        z, p = 3000.0 + 11.0j, 0.3
        assert rel_err(theta(z, p), theta_product(z, p, 80)) < 1e-12
        assert rel_err(theta(1 / z, p), theta_product(1 / z, p, 80)) < 1e-12

    def test_array_matches_scalars(self):
        p = 0.22 + 0.05j
        zs = np.array([0.5, 2.0 + 1.0j, 0.01j, -4.0])
        vals = theta(zs, p)
        for z, v in zip(zs, vals):
            assert rel_err(v, theta(complex(z), p)) < 1e-13

    def test_empty_array(self):
        # a batched caller can have no points at all
        for p in (0.2, 0.0):
            out = theta(np.empty((0, 3), dtype=np.complex128), p)
            assert out.shape == (0, 3) and out.dtype == np.complex128

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta(0.0, 0.1)
        with pytest.raises(DomainError):
            theta(0.5, 1.2)

    def test_zero_nome_is_one_minus_z(self):
        zs = np.array([0.5, 2.0 + 1.0j, -3.0j])
        assert np.array_equal(theta(zs, 0.0), 1.0 - zs)
        val = theta(0.5 + 0.5j, 0)
        assert type(val) is complex and val == 0.5 - 0.5j


class TestThetaBlocks:
    """Arrays longer than one factor table are evaluated block by block."""

    P = 0.9 * cmath.exp(0.7j)
    # |p| = 0.9 needs over 300 product factors, so a block holds fewer
    # than THETA_TABLE_ENTRIES // 300 points and this many span three.
    NPTS = 2 * (THETA_TABLE_ENTRIES // 300) + 3

    def points(self, seed):
        rng = np.random.default_rng(seed)
        return np.exp(rng.uniform(-1.5, 1.5, self.NPTS) + 2j * np.pi * rng.uniform(size=self.NPTS))

    def test_long_array_matches_scalars(self):
        zs = self.points(0)
        vals = theta(zs, self.P)
        for z, v in zip(zs, vals):
            assert rel_err(v, theta(complex(z), self.P)) <= 1e-13

    def test_cell_stack_keeps_shape(self):
        stack = self.points(1)[: 3 * 4 * 18].reshape(3, 4, 18)
        vals = theta(stack, self.P)
        assert vals.shape == (3, 4, 18)
        assert np.array_equal(vals, theta(stack.ravel(), self.P).reshape(3, 4, 18))

    def test_exact_zero_past_first_block(self):
        zs = self.points(2)
        mid = self.NPTS - 2
        zs[mid] = 1.0
        vals = theta(zs, self.P)
        assert vals[mid] == 0
        assert np.count_nonzero(vals) == self.NPTS - 1


class TestMpmathOracles:
    """40-digit mpmath oracles from the literal definitions, over |p|, |q|
    up to 0.9 with complex phases and |z| across e^-6 .. e^6.  Draws where
    the function is ill-conditioned or leaves the normal float range are
    rejected: there the double-precision argument alone limits accuracy."""

    @settings(derandomize=True, deadline=None)
    @given(p=_complex(st.floats(0.05, 0.9)), z=_far_z)
    def test_theta(self, p, z):
        pytest.importorskip("mpmath")
        assume(_well_conditioned(lambda x: theta(x, p), z))
        assert rel_err(theta(z, p), theta_mp(z, p)) <= 1e-12

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(p=_complex(st.floats(0.05, 0.9)), q=_complex(st.floats(0.05, 0.9)), z=_far_z)
    def test_elliptic_gamma(self, p, q, z):
        pytest.importorskip("mpmath")
        nomes = NomePair(p, q)
        assume(_well_conditioned(lambda x: elliptic_gamma(x, nomes), z))
        assert rel_err(elliptic_gamma(z, nomes), gamma_mp(z, p, q)) <= 1e-12


class TestEllipticGamma:
    def test_against_double_product_oracle(self):
        nomes = NomePair(0.15, 0.25)
        for z in (0.3 - 0.2j, 0.9, 1.8 + 0.4j, 0.05 + 0.02j, -2.5):
            assert rel_err(elliptic_gamma(z, nomes), gamma_double_product(z, 0.15, 0.25)) < 1e-12
        frozen = 1.252203561831468 - 0.6746006596792646j
        assert rel_err(elliptic_gamma(0.3 - 0.2j, nomes), frozen) < 1e-13

    def test_reflection(self):
        nomes = NomePair(0.15, 0.25)
        z = 0.3 - 0.2j
        val = elliptic_gamma(z, nomes) * elliptic_gamma(nomes.pq / z, nomes)
        assert abs(val - 1.0) < 1e-12

    def test_pq_symmetry(self):
        z = 0.3 - 0.2j
        a = elliptic_gamma(z, NomePair(0.15, 0.25))
        b = elliptic_gamma(z, NomePair(0.25, 0.15))
        assert rel_err(a, b) < 1e-12

    def test_functional_equation(self):
        p, q = 0.1, 0.2
        nomes = NomePair(p, q)
        z = 0.5
        lhs = elliptic_gamma(p * z, nomes)
        rhs = theta(z, q) * elliptic_gamma(z, nomes)
        assert rel_err(lhs, rhs) < 1e-12

    def test_reflection_random_annulus(self):
        # |Gamma(z) Gamma(pq/z) - 1| <= 1e-11 on 1000 random draws in the
        # annulus 0.2 <= |z| <= 5 with |p|, |q| <= 0.4; the p <-> q
        # symmetry is checked on the same sample.
        rng = np.random.default_rng(7)
        for i in range(1000):
            pr, qr = rng.uniform(0.05, 0.4, size=2)
            p = pr * cmath.exp(2j * cmath.pi * rng.uniform())
            q = qr * cmath.exp(2j * cmath.pi * rng.uniform())
            nomes = NomePair(p, q)
            z = rng.uniform(0.2, 5.0) * cmath.exp(2j * cmath.pi * rng.uniform())
            val = elliptic_gamma(z, nomes) * elliptic_gamma(nomes.pq / z, nomes)
            assert abs(val - 1.0) <= 1e-11
            if i % 10 == 0:
                swapped = elliptic_gamma(z, nomes.swapped())
                direct = elliptic_gamma(z, nomes)
                assert abs(swapped - direct) <= 1e-12 * abs(direct)

    def test_quasi_periodicity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = rng.uniform(0.05, 0.4) * cmath.exp(2j * cmath.pi * rng.uniform())
            z = rng.uniform(0.2, 5.0) * cmath.exp(2j * cmath.pi * rng.uniform())
            resid = abs(theta(p * z, p) + theta(z, p) / z)
            assert resid <= 1e-12 * max(abs(theta(z, p)), 1e-30) + 1e-290

    def test_array_matches_scalars(self):
        nomes = NomePair(0.2, 0.3 + 0.1j)
        zs = np.array([0.4, 1.5 - 0.2j, 0.02, 6.0 + 1.0j])
        vals = elliptic_gamma(zs, nomes)
        for z, v in zip(zs, vals):
            assert rel_err(v, elliptic_gamma(complex(z), nomes)) < 1e-12

    def test_empty_array(self):
        out = elliptic_gamma(np.empty((2, 0)), NomePair(0.15, 0.25))
        assert out.shape == (2, 0) and out.dtype == np.complex128

    def test_pole_error(self):
        nomes = NomePair(0.15, 0.25)
        with pytest.raises(PoleError):
            elliptic_gamma(1.0 + 1e-13, nomes)
        with pytest.raises(PoleError):
            elliptic_gamma(1.0 / (0.15 * 0.25**2) * (1 + 1e-12), nomes)

    def test_zero_of_gamma_is_exact_zero_point(self):
        nomes = NomePair(0.15, 0.25)
        val = elliptic_gamma(0.15 * 0.25, nomes)
        assert abs(val) < 1e-12


class TestStackedGamma:
    """One elliptic_gamma call on a (rows, N) stack equals one call per
    row: the batched shift ladder and annulus series are pointwise."""

    NOMES = NomePair(0.15, 0.25)

    def test_rows_match_per_row_calls(self):
        rng = np.random.default_rng(3)
        npts = 16
        logr = np.stack(
            [
                rng.uniform(-6.0, -1.5, npts),  # below |pq|^(1/2): positive shifts
                rng.uniform(0.5, 5.0, npts),  # above it: negative shifts
                rng.uniform(-5.0, 5.0, npts),  # both
            ]
        )
        z = np.exp(logr + 2j * np.pi * rng.uniform(size=logr.shape))
        z[2, 5] = self.NOMES.pq  # an exact zero of Gamma, reached by a shift
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stacked = elliptic_gamma(z, self.NOMES)
            rows = [elliptic_gamma(row, self.NOMES) for row in z]
        assert not caught, [str(w.message) for w in caught]
        assert stacked.shape == z.shape
        assert stacked[2, 5] == 0 and rows[2][5] == 0
        for got, want in zip(stacked, rows):
            nonzero = want != 0
            assert np.all(np.abs(got - want)[nonzero] <= 1e-14 * np.abs(want[nonzero]))

    def test_exact_zero_in_an_array_with_negative_shifts(self):
        z = np.array([self.NOMES.pq, 3.0 + 1.0j, 0.5j, self.NOMES.pq * 0.25])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vals = elliptic_gamma(z, self.NOMES)
        assert not caught, [str(w.message) for w in caught]
        assert vals[0] == 0 and vals[3] == 0
        assert np.all(np.isfinite(vals)) and np.all(vals[1:3] != 0)


class TestGammaOnCircle:
    """elliptic_gamma_circle, a product of gamma factors on an equispaced
    circle from one FFT of its folded Laurent coefficients, against
    pointwise elliptic_gamma on the same points.  The accuracy tests lift
    the cost rule, which would send the 8-point circles to the pointwise
    path; the rule is tested on its own."""

    NOMES = {
        "small": NomePair(0.3 + 0.1j, 0.5j),
        "large": NomePair(0.9 * cmath.exp(0.4j), 0.85 * cmath.exp(-1.3j)),
    }
    # a radius above 1 midway, in log, between two moduli of the poles
    # p^-i q^-j: 1.054 lies between 1 and 1/0.9
    ABOVE = {"small": 1.2, "large": 1.054}

    @pytest.fixture
    def no_cost_rule(self, monkeypatch):
        monkeypatch.setattr(core, "CIRCLE_TERMS_PER_POINT", 10**6)

    @staticmethod
    def pointwise(factors, n, phase, nomes):
        z = circle(n, phase)
        return np.prod([elliptic_gamma(a * z**e, nomes) for a, e in factors], axis=0)

    def assert_matches(self, factors, n, phase, nomes):
        got = elliptic_gamma_circle(factors, n, phase, nomes)
        want = self.pointwise(factors, n, phase, nomes)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.usefixtures("no_cost_rule")
    @pytest.mark.parametrize("n", [8, 256, 2048])
    @pytest.mark.parametrize("name", ["small", "large"])
    @pytest.mark.parametrize("where", ["inside", "above", "below"])
    def test_radius_classes(self, name, n, where):
        # inside the annulus |pq| < r < 1, where Gamma has no zero or pole;
        # above 1, where towers are reflected; below |pq|, where the
        # reflected towers come from pq/a.  Exponents +-1 and +-2.
        nomes = self.NOMES[name]
        pq = abs(nomes.pq)
        above = self.ABOVE[name]
        r = {"inside": math.sqrt(pq), "above": above, "below": pq / above}[where]
        factors = [
            (r * cmath.exp(1j * arg), e) for arg, e in ((0.7, 1), (-2.1, -1), (1.3, 2), (-0.4, -2))
        ]
        self.assert_matches(factors, n, 0.5 * math.pi / n, nomes)

    @pytest.mark.usefixtures("no_cost_rule")
    @pytest.mark.parametrize("n", [8, 256, 2048])
    @pytest.mark.parametrize("e", [1, 2])
    def test_circle_through_a_zero(self, n, e):
        # Gamma(pq z^+-e) vanishes at z = 1, a grid point at phase 0, and
        # at z = -1 for e = 2: its unit-circle term is multiplied in
        nomes = self.NOMES["large"]
        factors = [(nomes.pq, e), (nomes.pq, -e)]
        got = elliptic_gamma_circle(factors, n, 0.0, nomes)
        assert got[0] == 0 and (e == 1 or got[n // 2] == 0)
        self.assert_matches(factors, n, 0.0, nomes)

    @pytest.mark.usefixtures("no_cost_rule")
    @pytest.mark.parametrize("r, e", [(0.512, 1), (0.8, -1), (1.054, 1), (None, 2)])
    def test_spot_values_against_mpmath(self, r, e):
        # |p| = 0.9 with |q| = 0.6 keeps the literal double product of the
        # oracle to about 2e4 factors; radius |pq| with z^2 puts a
        # unit-circle term between the grid points
        pytest.importorskip("mpmath")
        nomes = NomePair(0.9 * cmath.exp(0.4j), 0.6 * cmath.exp(-1.3j))
        a = (abs(nomes.pq) if r is None else r) * cmath.exp(0.9j)
        n, phase, j = 2048, 0.3 / 2048, 700
        got = elliptic_gamma_circle([(a, e)], n, phase, nomes)[j]
        assert rel_err(got, gamma_mp(a * circle(n, phase)[j] ** e, nomes.p, nomes.q)) <= 1e-13

    def test_pole_on_a_grid_point_raises(self):
        nomes = self.NOMES["small"]
        with pytest.raises(PoleError):
            elliptic_gamma_circle([(0.4, 1), (1.0, -1)], 16, 0.0, nomes)
        with pytest.raises(PoleError):
            elliptic_gamma(circle(16, 0.0) ** -1, nomes)

    def test_slow_series_is_left_to_the_pointwise_path(self):
        # a tower base 1e-6 inside the unit circle needs about 4e7 terms
        nomes = self.NOMES["small"]
        assert elliptic_gamma_circle([(0.999999 * cmath.exp(0.3j), 1)], 2048, 0.0, nomes) is None
        assert elliptic_gamma_circle([(0.9 * cmath.exp(0.3j), 1)], 2048, 0.0, nomes) is not None

    def test_zero_nome_is_a_domain_error(self):
        with pytest.raises(DomainError):
            elliptic_gamma_circle([(0.5, 1)], 8, 0.0, NomePair(0.0, 0.3))


class TestGammaMulti:
    def test_empty_product(self):
        assert elliptic_gamma_multi([], NomePair(0.1, 0.2)) == 1.0

    def test_reflection_pair(self):
        nomes = NomePair(0.15, 0.25)
        z = 0.3 - 0.2j
        assert abs(elliptic_gamma_multi([z, nomes.pq / z], nomes) - 1.0) < 1e-12

    def test_matches_single_evaluations(self):
        nomes = NomePair(0.1, 0.2)
        zs = [0.3, 0.4, 0.5]
        prod = 1.0
        for z in zs:
            prod *= elliptic_gamma(z, nomes)
        assert rel_err(elliptic_gamma_multi(zs, nomes), prod) < 1e-13

    def test_error_reports_offending_index(self):
        nomes = NomePair(0.1, 0.2)
        with pytest.raises(DomainError, match="factor 1"):
            elliptic_gamma_multi([0.3, 0.0, 0.5], nomes)


class TestShiftedFactorial:
    def test_n_zero(self):
        assert abs(elliptic_shifted_factorial(0.4, 0, NomePair(0.1, 0.2)) - 1.0) < 1e-14

    def test_positive_n_product_form(self):
        nomes = NomePair(0.1, 0.2)
        z = 0.4
        prod = theta(z, 0.1) * theta(z * 0.2, 0.1) * theta(z * 0.04, 0.1)
        assert rel_err(elliptic_shifted_factorial(z, 3, nomes), prod) < 1e-12

    def test_negative_n(self):
        nomes = NomePair(0.1, 0.2)
        z = 0.4
        expected = 1.0 / theta(z / 0.2, 0.1)
        assert rel_err(elliptic_shifted_factorial(z, -1, nomes), expected) < 1e-12
