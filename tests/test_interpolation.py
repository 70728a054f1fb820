"""Tests for the BC-symmetric elliptic interpolation functions."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellsel.core import NomePair
from ellsel.binomials import TableCache, binomial
from ellsel.densities import INWARD_CAP, margin_violations
from ellsel.interpolation import (
    InterpFactor,
    branching_residual,
    hybrid_branching_residual,
    interp_hybrid,
    interp_nonskew,
    interp_skew,
    pole_bases,
    pole_map,
)
from ellsel.partitions import ZERO, Bipartition, spectral_vector, sub_bipartitions
from ellsel.symbols import SymbolContext, delta0_bi
from oracles import interp_pole_members

CTX = SymbolContext(NomePair(0.1, 0.2), 0.25)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def rand_c(rng, lo=0.35, hi=0.9):
    return rng.uniform(lo, hi) * cmath.exp(2j * cmath.pi * rng.uniform())


SMALL_SHAPES = [
    Bipartition.of((1,), ()),
    Bipartition.of((), (1,)),
    Bipartition.of((1,), (1,)),
    Bipartition.of((2,), ()),
    Bipartition.of((2,), (1,)),
]


class TestNonskew:
    def test_zero_shape_is_one(self):
        assert interp_nonskew(ZERO, (0.8, 1.2), 0.5, 0.4, CTX) == 1.0

    def test_too_long_vanishes(self):
        lam = Bipartition.of((1, 1), ())
        assert interp_nonskew(lam, (0.8,), 0.5, 0.4, CTX) == 0.0

    def test_too_long_vanishes_on_arrays(self):
        # zeros shaped like the broadcast arguments, as a quadrature grid
        # needs, like the ones of the zero shape
        z = np.exp(1j * np.linspace(0.0, 6.0, 7))
        got = interp_nonskew(Bipartition.of((1, 1), ()), (z,), 0.5, 0.4, CTX)
        assert isinstance(got, np.ndarray) and got.shape == (7,) and not got.any()

    @pytest.mark.parametrize("lam", SMALL_SHAPES)
    def test_vanishing_at_spectral_points(self, lam):
        # R*_lam(a <kap>; a, b) = 0 whenever kap does not contain lam.
        rng = np.random.default_rng(3)
        k = 2
        a, b = rand_c(rng), rand_c(rng)
        cache = TableCache()
        shapes_k = [
            Bipartition.of(f, s)
            for f in [(), (1,), (2,), (1, 1)]
            for s in [(), (1,), (2,)]
        ]
        for kap in shapes_k:
            if kap.contains(lam):
                continue
            x = tuple(a * z for z in spectral_vector(kap, k, CTX.t, CTX.p, CTX.q))
            val = interp_nonskew(lam, x, a, b, CTX, cache)
            scale = max_summand_scale(lam, x, a, b, cache)
            assert abs(val) <= 1e-8 * scale, (lam, kap)

    @pytest.mark.parametrize("lam", SMALL_SHAPES)
    def test_principal_specialisation(self, lam):
        rng = np.random.default_rng(4)
        k = 2
        t = CTX.t
        boxes = max(lam.size, 1)
        for _ in range(50):
            a, b, v = rand_c(rng), rand_c(rng), rand_c(rng)
            want = delta0_bi(
                lam, t ** (k - 1) * a / b, [t ** (k - 1) * a * v, a / v], CTX
            )
            # Reject draws sitting near a vanishing configuration, where
            # relative comparison is dominated by cancellation noise.
            if 1e-3 <= abs(want) ** (1.0 / boxes) <= 1e3:
                break
        x = tuple(v * z for z in spectral_vector(ZERO, k, t, CTX.p, CTX.q))
        got = interp_nonskew(lam, x, a, b, CTX)
        assert rel_err(got, want) < 1e-9

    @pytest.mark.parametrize("lam", SMALL_SHAPES)
    def test_cauchy_type_factorisation(self, lam):
        # t^k a b = pq collapses the sum to the factored closed form.
        rng = np.random.default_rng(5)
        k = 2
        t, pq = CTX.t, CTX.pq
        a = rand_c(rng)
        b = pq / (t**k * a)
        x = (rand_c(rng, 0.8, 1.2), rand_c(rng, 0.8, 1.2))
        got = interp_nonskew(lam, x, a, b, CTX)
        args = []
        for xi in x:
            args += [t ** (k - 1) * a * xi, t ** (k - 1) * a / xi]
        want = delta0_bi(lam, t ** (k - 1) * a / b, args, CTX)
        assert rel_err(got, want) < 1e-9

    def test_bc_symmetry_spot_checks(self):
        rng = np.random.default_rng(6)
        lam = Bipartition.of((1,), (1,))
        a, b = rand_c(rng), rand_c(rng)
        x1, x2 = rand_c(rng, 0.8, 1.2), rand_c(rng, 0.8, 1.2)
        cache = TableCache()
        base = interp_nonskew(lam, (x1, x2), a, b, CTX, cache)
        for perm in [(x2, x1), (1 / x1, x2), (x1, 1 / x2), (1 / x2, 1 / x1)]:
            assert rel_err(interp_nonskew(lam, perm, a, b, CTX, cache), base) < 1e-9

    def test_array_argument_matches_scalars(self):
        rng = np.random.default_rng(7)
        lam = Bipartition.of((1,), (1,))
        a, b = rand_c(rng), rand_c(rng)
        xs = np.exp(1j * np.linspace(0.1, 2.0, 5))
        vals = interp_nonskew(lam, (xs,), a, b, CTX)
        for x, v in zip(xs, vals):
            assert rel_err(v, interp_nonskew(lam, (complex(x),), a, b, CTX)) < 1e-11

    def test_k_independence_of_connection_definition(self):
        # The same shape evaluated with k and k+1 variables must agree at
        # shared points x_(k+1) = t^0 ... chosen on the zero spectral vector.
        rng = np.random.default_rng(8)
        lam = Bipartition.of((1,), (1,))
        a, b, v = rand_c(rng), rand_c(rng), rand_c(rng)
        t = CTX.t
        x2 = tuple(v * z for z in spectral_vector(ZERO, 2, t, CTX.p, CTX.q))
        x3 = tuple(v * z for z in spectral_vector(ZERO, 3, t, CTX.p, CTX.q))
        got2 = interp_nonskew(lam, x2, a, b, CTX)
        got3 = interp_nonskew(lam, x3, a, b, CTX)
        want2 = delta0_bi(lam, t * a / b, [t * a * v, a / v], CTX)
        want3 = delta0_bi(lam, t**2 * a / b, [t**2 * a * v, a / v], CTX)
        assert rel_err(got2, want2) < 1e-9
        assert rel_err(got3, want3) < 1e-9


def max_summand_scale(lam, x, a, b, cache):
    """Magnitude scale of the connection sum for vanishing tests."""
    t, pq = CTX.t, CTX.pq
    k = len(x)
    big_a = t ** (k - 1) * a / b
    big_b = t**k * a * b / pq
    w0 = pq * a / (t * b)
    args = []
    for xi in x:
        args += [pq * xi / (t * b), pq / (t * b * xi)]
    scale = 0.0
    for mu in sub_bipartitions(lam):
        coeff = binomial(lam, mu, big_a, big_b, CTX, cache, bracket=(w0,))
        if coeff == 0.0:
            continue
        scale = max(scale, abs(coeff * delta0_bi(mu, pq / (t * b**2), args, CTX)))
    return max(scale, 1e-300)


class TestSkew:
    def test_empty_bracket_is_delta(self):
        rng = np.random.default_rng(9)
        lam = Bipartition.of((1,), (1,))
        a, b = rand_c(rng), rand_c(rng)
        assert abs(interp_skew(lam, lam, (), a, b, CTX) - 1.0) < 1e-9
        assert abs(interp_skew(lam, ZERO, (), a, b, CTX)) < 1e-9
        assert interp_skew(ZERO, ZERO, (), a, b, CTX) == pytest.approx(1.0)

    def test_unit_product_pair_drops(self):
        rng = np.random.default_rng(10)
        lam = Bipartition.of((2,), (1,))
        nu = Bipartition.of((1,), ())
        a, b = rand_c(rng), rand_c(rng)
        v1, v2, w = rand_c(rng), rand_c(rng), rand_c(rng)
        cache = TableCache()
        lhs = interp_skew(lam, nu, (v1, v2, w, 1 / w), a, b, CTX, cache)
        rhs = interp_skew(lam, nu, (v1, v2), a, b, CTX, cache)
        assert rel_err(lhs, rhs) < 1e-9

    def test_two_variable_case_is_single_binomial(self):
        rng = np.random.default_rng(11)
        lam = Bipartition.of((1,), (1,))
        mu = Bipartition.of((1,), ())
        a, b, v1, v2 = (rand_c(rng) for _ in range(4))
        cache = TableCache()
        lhs = interp_skew(lam, mu, (v1, v2), a, b, CTX, cache)
        rhs = binomial(lam, mu, a / b, v1 * v2, CTX, cache, bracket=(a / v1, a / v2))
        assert rel_err(lhs, rhs) < 1e-9

    def test_factorisation_at_ab_pq(self):
        # a b = pq: the nu = 0 skew value fully factorises.
        rng = np.random.default_rng(12)
        lam = Bipartition.of((1,), (1,))
        a = rand_c(rng)
        b = CTX.pq / a
        vs = tuple(rand_c(rng) for _ in range(4))
        V = vs[0] * vs[1] * vs[2] * vs[3]
        lhs = interp_skew(lam, ZERO, vs, a, b, CTX)
        rhs = delta0_bi(lam, a / b, [a / v for v in vs] + [V], CTX)
        assert rel_err(lhs, rhs) < 1e-9

    def test_symmetry_in_vs_and_a_over_v(self):
        # R*_{lam/0}([v1..v4]; a, b) is symmetric in v1..v4 and a/V.
        rng = np.random.default_rng(13)
        lam = Bipartition.of((1,), (1,))
        a, b = rand_c(rng), rand_c(rng)
        vs = [rand_c(rng) for _ in range(4)]
        V = vs[0] * vs[1] * vs[2] * vs[3]
        extended = vs + [a / V]
        cache = TableCache()
        base = interp_skew(lam, ZERO, tuple(vs), a, b, CTX, cache)
        for combo in itertools.permutations(range(5)):
            new = [extended[i] for i in combo[:4]]
            newV = new[0] * new[1] * new[2] * new[3]
            # a/V' of the permuted list must be the remaining entry.
            assert rel_err(a / newV, extended[combo[4]]) < 1e-12
            val = interp_skew(lam, ZERO, tuple(new), a, b, CTX, cache)
            assert rel_err(val, base) < 1e-9
            break  # one nontrivial permutation plus a transposition below
        swapped = [extended[4], vs[1], vs[2], vs[3]]
        val = interp_skew(lam, ZERO, tuple(swapped), a, b, CTX, cache)
        assert rel_err(val, base) < 1e-9

    def test_strip_vanishing_with_t_pairs(self):
        # v_(2i-1) v_2i = t for all pairs kills skew values without a
        # strip chain mu < kappa < lam.
        rng = np.random.default_rng(14)
        lam = Bipartition.of((2, 2), ())
        mu = ZERO  # needs two strips (2,2)/k/0; no kappa works
        v1, v3 = rand_c(rng), rand_c(rng)
        a, b = rand_c(rng), rand_c(rng)
        val = interp_skew(lam, mu, (v1, CTX.t / v1, v3, CTX.t / v3), a, b, CTX)
        assert abs(val) < 1e-8


class TestHybrid:
    def test_no_pairs_reduces_to_nonskew(self):
        rng = np.random.default_rng(15)
        lam = Bipartition.of((1,), (1,))
        a, b = rand_c(rng), rand_c(rng)
        x = (rand_c(rng, 0.8, 1.2), rand_c(rng, 0.8, 1.2))
        cache = TableCache()
        hyb = interp_hybrid(lam, x, (), a, b, CTX, cache)
        non = interp_nonskew(lam, x, a, b, CTX, cache)
        assert rel_err(hyb, non) < 1e-9

    def test_branch_independence(self):
        rng = np.random.default_rng(16)
        lam = Bipartition.of((1,), (1,))
        a, b, v1, v2 = (rand_c(rng) for _ in range(4))
        x = (rand_c(rng, 0.8, 1.2),)
        interp_hybrid(lam, x, (v1, v2), a, b, CTX, check_branch=True)

    def test_inverse_t_pair_drops(self):
        rng = np.random.default_rng(17)
        lam = Bipartition.of((1,), (1,))
        a, b, v1, v2, w = (rand_c(rng) for _ in range(5))
        x = (rand_c(rng, 0.8, 1.2),)
        cache = TableCache()
        lhs = interp_hybrid(lam, x, (v1, v2, w, 1 / (CTX.t * w)), a, b, CTX, cache)
        rhs = interp_hybrid(lam, x, (v1, v2), a, b, CTX, cache)
        assert rel_err(lhs, rhs) < 1e-9

    def test_reciprocal_pair_extends_alphabet(self):
        # (v_(2l-1), v_2l) = (x_(k+1), 1/x_(k+1)) adds an x variable and
        # shifts a -> a/t.
        rng = np.random.default_rng(18)
        lam = Bipartition.of((1,), (1,))
        a, b = rand_c(rng), rand_c(rng)
        x1, x2 = rand_c(rng, 0.8, 1.2), rand_c(rng, 0.8, 1.2)
        cache = TableCache()
        lhs = interp_hybrid(lam, (x1,), (x2, 1 / x2), a, b, CTX, cache)
        rhs = interp_hybrid(lam, (x1, x2), (), a / CTX.t, b, CTX, cache)
        assert rel_err(lhs, rhs) < 1e-9

    def test_cauchy_type_factorisation(self):
        rng = np.random.default_rng(19)
        lam = Bipartition.of((1,), (1,))
        k = 1
        t, pq = CTX.t, CTX.pq
        a = rand_c(rng)
        b = pq / (t**k * a)
        x = (rand_c(rng, 0.8, 1.2),)
        vs = (rand_c(rng), rand_c(rng))
        got = interp_hybrid(lam, x, vs, a, b, CTX)
        args = [t ** (k - 1) * a * x[0], t ** (k - 1) * a / x[0]]
        args += [t ** (k - 1) * a / v for v in vs]
        want = delta0_bi(lam, t ** (k - 1) * a / b, args, CTX)
        assert rel_err(got, want) < 1e-9


class TestBranching:
    def test_unit_product_reduction(self):
        rng = np.random.default_rng(20)
        lam = Bipartition.of((1,), (1,))
        nu = ZERO
        a, b, w = rand_c(rng), rand_c(rng), rand_c(rng)
        cache = TableCache()
        lhs = interp_skew(lam, nu, (w, 1 / w), a, b, CTX, cache)
        rhs = interp_skew(lam, nu, (), a, b, CTX, cache)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    @pytest.mark.parametrize(
        "lam,nu",
        [
            (Bipartition.of((1,), ()), ZERO),
            (Bipartition.of((1,), (1,)), ZERO),
            (Bipartition.of((2,), ()), Bipartition.of((1,), ())),
        ],
    )
    def test_skew_branching(self, lam, nu):
        rng = np.random.default_rng(21 + lam.size)
        a, b, w1, w2, v1, v2 = (rand_c(rng) for _ in range(6))
        res, _ = branching_residual(lam, nu, (v1, v2), w1, w2, a, b, CTX)
        assert res < (1e-9 if lam.size <= 1 else 1e-8)

    def test_hybrid_branching(self):
        rng = np.random.default_rng(22)
        lam = Bipartition.of((1,), (1,))
        a, b, v1, v2 = (rand_c(rng) for _ in range(4))
        x = (rand_c(rng, 0.8, 1.2),)
        res, _ = hybrid_branching_residual(lam, x, v1, v2, a, b, CTX)
        assert res < 1e-9


class TestInterpFactor:
    def test_values_are_the_evaluators(self):
        z = np.exp(1j * np.linspace(0.0, 6.0, 5))
        lam, cache = Bipartition.of((1,), ()), TableCache()
        plain = InterpFactor(lam, 0.5, 0.4, None, ((0, 1),))
        hybrid = InterpFactor(lam, 0.5, 0.4, (0.6, 0.7), ((0, 1),))
        assert np.array_equal(plain.value(z, CTX, cache), interp_nonskew(lam, (z,), 0.5, 0.4, CTX, cache))
        want = interp_hybrid(lam, (z,), (0.6, 0.7), 0.5, 0.4, CTX, cache)
        assert np.array_equal(hybrid.value(z, CTX, cache), want)

    def test_poles_are_the_pole_map(self):
        mu = Bipartition.of((1,), (1,))
        factor = InterpFactor(mu, 0.5, 0.4, None, ((0, 1),))
        got = factor.poles({"t": CTX.t, "p": CTX.p, "q": CTX.q})
        want = pole_map(mu, 0.4, CTX.t, CTX.p, CTX.q)
        assert [value for value, _ in got] == [value for value, _ in want]
        assert [label for _, label in got] == [f"interpolation pole of R_1|1 {label}" for _, label in want]

    def test_plain_factor_refuses_two_rows(self):
        # R*_lam in one variable vanishes for a shape of two rows
        with pytest.raises(ValueError, match=r"1,1\|0"):
            InterpFactor(Bipartition.of((1, 1), ()), 0.5, 0.4, None, ((0, 1),))
        InterpFactor(Bipartition.of((1, 1), ()), 0.5, 0.4, (0.6, 0.7), ((0, 1),))


class TestPoleMap:
    def test_single_box_towers(self):
        b = 0.4 + 0.1j
        locs = [loc for loc, _ in pole_map(Bipartition.of((1,), ()), b, CTX.t, CTX.p, CTX.q)]
        assert any(abs(loc - b * CTX.q**0 / CTX.p) < 1e-14 for loc in locs)
        assert any(abs(loc - CTX.q * CTX.p / b) < 1e-14 for loc in locs)

    def test_no_poles_for_zero_shape(self):
        assert pole_map(ZERO, 0.4, CTX.t, CTX.p, CTX.q) == []


POLE_SHAPES = [
    Bipartition.of((1,), ()),
    Bipartition.of((), (1,)),
    Bipartition.of((1,), (1,)),
    Bipartition.of((2,), ()),
    Bipartition.of((), (2,)),
    Bipartition.of((1, 1), ()),
    Bipartition.of((2,), (1,)),
    Bipartition.of((2, 1), (1,)),
]


def _complex(modulus):
    return st.builds(
        lambda r, phase: r * cmath.exp(2j * cmath.pi * phase),
        modulus,
        st.floats(0.0, 1.0),
    )


_NOME = _complex(st.floats(0.05, 0.9))


def _draw_b(mu, p, q, t, r, phase):
    """b with |b| = lo^(1-r) hi^r, where every pole base of mu stays below
    the margin exactly when lo < |b| < hi: a base scaling like 1/b bounds
    |b| from below and one scaling like b from above.  Inside a nonempty
    window for 0 < r < 1, on either side of it otherwise; None within
    1e-9 (relative) of an edge, where rounding decides."""
    at_one = [(abs(loc), power) for (loc, _), (_, power, _) in zip(pole_map(mu, 1.0, t, p, q), pole_bases(mu))]
    lo = max([m / INWARD_CAP for m, power in at_one if power < 0], default=0.0)
    hi = min([INWARD_CAP / m for m, power in at_one if power > 0], default=math.inf)
    b = lo ** (1 - r) * hi**r * cmath.exp(2j * cmath.pi * phase)
    if any(abs(abs(b) - edge) <= 1e-9 * edge for edge in (lo, hi)):
        return None
    return b


class TestPoleTowerBases:
    """The margin decided from the tower bases alone, against the
    oracle that lists every tower member down to a nome power of 1e-6,
    over shapes with two-box rows and rows filled in both components."""

    @settings(derandomize=True, deadline=None)
    @given(
        mu=st.sampled_from(POLE_SHAPES), p=_NOME, q=_NOME, t=_NOME,
        r=st.floats(-0.5, 1.5), phase=st.floats(0.0, 1.0),
    )
    def test_bases_decide_like_every_member(self, mu, p, q, t, r, phase):
        b = _draw_b(mu, p, q, t, r, phase)
        assume(b is not None)
        bases = pole_map(mu, b, t, p, q)
        members = interp_pole_members(tuple(mu.first), tuple(mu.second), b, p, q, t)
        by_members = any(abs(v) >= INWARD_CAP for v in members)
        assert bool(margin_violations(bases)) == by_members
