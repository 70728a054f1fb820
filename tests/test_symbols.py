"""Tests for C-symbols, Delta0 ratios and the gamma/Delta0 bridge."""

import cmath
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellsel.core import DomainError, NomePair, PoleError, theta
from ellsel.partitions import Bipartition, Partition, sub_bipartitions, sub_partitions
from ellsel.symbols import (
    SymbolContext,
    c0,
    c0_bi,
    cminus,
    cplus,
    cplus_bi,
    delta0,
    delta0_bi,
    delta0_bi_groups,
    delta0_bi_shapes,
    delta0_shapes,
    gamma_delta_bridge,
)
from oracles import all_partitions_up_to, cell_symbol_product, delta0_mp, delta0_product

CTX = SymbolContext(NomePair(0.1, 0.2), 0.25)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def random_unit(rng, lo, hi):
    return rng.uniform(lo, hi) * cmath.exp(2j * cmath.pi * rng.uniform())


class TestCSymbols:
    def test_empty_partition_gives_one(self):
        for fn in (c0, cplus, cminus):
            assert fn(Partition(), 0.7, CTX) == 1.0

    def test_c0_single_row_product(self):
        z, m = 0.6 + 0.1j, 3
        expected = 1.0
        for j in range(m):
            expected *= theta(z * CTX.q**j, CTX.p)
        assert rel_err(c0(Partition((m,)), z, CTX), expected) < 1e-13

    def test_single_cell_plus_minus(self):
        z = 0.45 - 0.2j
        one = Partition((1,))
        assert rel_err(cminus(one, z, CTX), theta(z, CTX.p)) < 1e-14
        assert rel_err(cplus(one, z, CTX), theta(z * CTX.q, CTX.p)) < 1e-14

    def test_role_flag_swaps_series(self):
        z = 0.5
        lam = Partition((2, 1))
        swapped = SymbolContext(CTX.nomes.swapped(), CTX.t)
        assert rel_err(c0(lam, z, CTX, "p"), c0(lam, z, swapped, "q")) < 1e-13

    def test_array_argument(self):
        lam = Partition((2,))
        zs = np.array([0.5, 0.7 + 0.1j])
        vals = c0(lam, zs, CTX)
        for z, v in zip(zs, vals):
            assert rel_err(v, c0(lam, complex(z), CTX)) < 1e-13


class TestDelta0:
    def test_empty_bs(self):
        assert delta0(Partition((2, 1)), 0.4, [], CTX) == 1.0

    def test_reflection(self):
        # Delta0(a|b...) * Delta0(a|pq a / b...) = 1 for random draws.
        rng = np.random.default_rng(11)
        pq = CTX.pq
        for parts in [(1,), (2,), (1, 1), (2, 1)]:
            lam = Partition(parts)
            for _ in range(25):
                a = random_unit(rng, 0.3, 0.9)
                bs = [random_unit(rng, 0.3, 0.9) for _ in range(2)]
                lhs = delta0(lam, a, bs, CTX)
                rhs = delta0(lam, a, [pq * a / b for b in bs], CTX)
                assert abs(lhs * rhs - 1.0) < 1e-10

    def test_reflection_bipartitions(self):
        rng = np.random.default_rng(12)
        pq = CTX.pq
        for lam in [Bipartition.of((1,), (1,)), Bipartition.of((2,), (1, 1))]:
            for _ in range(25):
                a = random_unit(rng, 0.3, 0.9)
                b = random_unit(rng, 0.3, 0.9)
                val = delta0_bi(lam, a, [b], CTX) * delta0_bi(lam, a, [pq * a / b], CTX)
                assert abs(val - 1.0) < 1e-10

    def test_paired_argument_reduction(self):
        # A pair (w, pq a/(b w)) in the list of a [a,b]-ratio collapses to
        # the ratio Delta0(a|w)/Delta0(a|b w) after dividing by Delta0(a/b|...).
        rng = np.random.default_rng(13)
        lam = Bipartition.of((2,), (1,))
        pq = CTX.pq
        for _ in range(10):
            a = random_unit(rng, 0.4, 0.9)
            b = random_unit(rng, 0.4, 0.9)
            w = random_unit(rng, 0.4, 0.9)
            pair = [w, pq * a / (b * w)]
            lhs = delta0_bi(lam, a, pair, CTX) / delta0_bi(lam, a / b, pair, CTX)
            rhs = delta0_bi(lam, a, [w], CTX) / delta0_bi(lam, a, [b * w], CTX)
            assert rel_err(lhs, rhs) < 1e-10

    def test_pq_swap_equals_component_swap(self):
        rng = np.random.default_rng(14)
        swapped = SymbolContext(CTX.nomes.swapped(), CTX.t)
        for lam in [Bipartition.of((2, 1), (1,)), Bipartition.of((1,), (3,))]:
            for _ in range(10):
                a = random_unit(rng, 0.3, 0.9)
                b = random_unit(rng, 0.3, 0.9)
                one = delta0_bi(lam, a, [b], CTX)
                two = delta0_bi(lam.swap(), a, [b], swapped)
                assert rel_err(one, two) < 1e-12


class TestDelta0Contract:
    # p, q, t and pq a / b_i are powers of two, so the vanishing theta
    # arguments below are exactly 1.
    EXACT = SymbolContext(NomePair(0.25, 0.5), 0.5)

    def test_pole_error_names_first_argument_and_cell(self):
        lam, a = Partition((2,)), 1.0
        pq, q = self.EXACT.pq, self.EXACT.q
        # argument 1 vanishes at cell (1,2) only
        with pytest.raises(PoleError, match=r"argument index 1 at cell \(1,2\)"):
            delta0(lam, a, [0.3, pq * a * q], self.EXACT)
        # argument 0 at cell (1,2) comes before argument 1 at cell (1,1)
        with pytest.raises(PoleError, match=r"argument index 0 at cell \(1,2\)"):
            delta0(lam, a, [pq * a * q, pq * a], self.EXACT)
        # on a grid, one vanishing point is enough
        grid = np.array([0.3, pq * a, 0.7])
        with pytest.raises(PoleError, match=r"argument index 0 at cell \(1,1\)"):
            delta0(lam, a, [grid], self.EXACT)

    def test_overflow_error_names_argument_index(self):
        # each factor is about 1e125: the running product leaves the
        # double range at the third argument
        b = 1e12
        a = 0.5 * b / self.EXACT.pq
        lam = Partition((1,))
        assert abs(delta0(lam, a, [b, b], self.EXACT)) > 1e249
        with pytest.raises(OverflowError, match="argument index 2"):
            delta0(lam, a, [b, b, b, 0.5], self.EXACT)

    def test_empty_partition_gives_one(self):
        assert delta0(Partition(), 0.4, [0.3, 0.5 + 0.1j], CTX) == 1.0
        assert delta0_bi(Bipartition(), 0.4, [0.3], CTX) == 1.0

    def test_scalar_inputs_give_complex(self):
        lam = Partition((2, 1))
        bi = Bipartition.of((1,), (2,))
        assert type(delta0(lam, 0.4, [0.3, np.complex128(0.5j)], CTX)) is complex
        assert type(delta0(lam, 0.4, [], CTX)) is complex
        assert type(delta0_bi(bi, 0.4 + 0.1j, [0.3], CTX)) is complex
        for fn in (c0, cplus, cminus):
            assert type(fn(lam, 0.6, CTX)) is complex
            assert type(fn(Partition(), 0.6, CTX)) is complex

    def test_empty_grid(self):
        empty = np.empty(0, dtype=np.complex128)
        assert delta0(Partition((2, 1)), 0.4, [empty, 0.3], CTX).shape == (0,)
        assert c0(Partition((2, 1)), empty, CTX).shape == (0,)


class TestCellProductContract:
    def test_domain_error_names_cell(self):
        # q = 0 kills the series base, so only cells with j >= 2 vanish
        ctx = SymbolContext(NomePair(0.25, 0.0), 0.5)
        with pytest.raises(DomainError, match=r"cell \(i=1, j=2\)"):
            c0(Partition((2,)), 0.5, ctx)
        with pytest.raises(DomainError, match=r"cell \(i=1, j=1\)"):
            c0(Partition((2,)), np.array([0.5, 0.0]), ctx)


def _roles(ctx, series):
    """(series base, theta nome) of a role, read off the nome pair."""
    return (ctx.q, ctx.p) if series == "q" else (ctx.p, ctx.q)


ORACLE_SHAPES = [(1,), (3,), (1, 1), (2, 1), (2, 2), (3, 1)]


class TestAgainstCellProductOracle:
    """delta0, delta0_bi, c0, cplus and cminus against literal per-cell
    products of tests/oracles.theta_product, point by point."""

    A = np.array([0.45 + 0.1j, 0.6 - 0.2j, -0.5j])  # broadcast against the bs
    B = np.array([0.3 - 0.6j, 0.75, 0.2 + 0.4j])
    GRID = np.array([[0.7 + 0.2j, 0.35, -0.4 + 0.5j], [0.8j, 0.55 - 0.1j, 0.3 + 0.3j]])

    @staticmethod
    def pointwise(fn, *arrays):
        out = np.empty(np.broadcast(*arrays).shape, dtype=np.complex128)
        for idx, vals in zip(np.ndindex(out.shape), np.broadcast(*arrays)):
            out[idx] = fn(*vals)
        return out

    def assert_close(self, got, want):
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("series", ["p", "q"])
    @pytest.mark.parametrize("parts", ORACLE_SHAPES)
    def test_delta0(self, parts, series):
        base, nome = _roles(CTX, series)
        lam = Partition(parts)
        oracle = lambda a, *bs: delta0_product(parts, a, bs, base, nome, CTX.t)
        cases = [
            (0.45 + 0.1j, [0.7 - 0.2j, 0.35j]),  # scalar
            (self.A, [self.B, 0.6 + 0.1j]),  # 1-d
            (self.A, [self.GRID, 0.6 + 0.1j, self.GRID[::-1]]),  # 2-d, a broadcast
        ]
        for a, bs in cases:
            self.assert_close(delta0(lam, a, bs, CTX, series), self.pointwise(oracle, a, *bs))

    def test_delta0_bi(self):
        for lam in [Bipartition.of((2,), (1,)), Bipartition.of((1, 1), (2, 1))]:
            def oracle(a, b):
                first = delta0_product(lam.first.parts, a, [b], CTX.p, CTX.q, CTX.t)
                return first * delta0_product(lam.second.parts, a, [b], CTX.q, CTX.p, CTX.t)

            for a, b in [(0.45 + 0.1j, 0.35j), (self.A, self.GRID)]:
                self.assert_close(delta0_bi(lam, a, [b], CTX), self.pointwise(oracle, a, b))

    @pytest.mark.parametrize("series", ["p", "q"])
    @pytest.mark.parametrize("parts", ORACLE_SHAPES)
    def test_cell_symbols(self, parts, series):
        base, nome = _roles(CTX, series)
        lam = Partition(parts)
        for fn, kind in ((c0, "c0"), (cplus, "plus"), (cminus, "minus")):
            oracle = lambda z: cell_symbol_product(parts, z, base, nome, CTX.t, kind)
            for z in (0.45 + 0.1j, self.A, self.GRID):
                self.assert_close(fn(lam, z, CTX, series), self.pointwise(oracle, z))


def _complex(modulus):
    return st.builds(
        lambda r, phase: r * cmath.exp(2j * cmath.pi * phase),
        modulus,
        st.floats(0.0, 1.0),
    )


def _well_conditioned(lam, a, bs, ctx, series, cond=100.0, h=1e-7):
    """Every theta factor of Delta0 changes by at most cond * h under a
    relative change h of its argument, i.e. no argument sits near a zero
    of theta, where rounding alone decides the value."""
    base, nome = _roles(ctx, series)
    for b in bs:
        for z in (b, ctx.pq * a / b):
            for i, j in lam.cells():
                x = z * base ** (j - 1) * ctx.t ** (1 - i)
                val = theta(x, nome)
                if val == 0 or abs(theta(x * (1 + h), nome) / val - 1) > cond * h:
                    return False
    return True


class TestDelta0Properties:
    @settings(derandomize=True, deadline=None)
    @given(
        parts=st.sampled_from(all_partitions_up_to(4)),
        series=st.sampled_from(["p", "q"]),
        p=_complex(st.floats(0.05, 0.9)),
        q=_complex(st.floats(0.05, 0.9)),
        t=_complex(st.floats(0.5, 0.95)),
        a=_complex(st.floats(0.5, 2.0)),
        bs=st.lists(_complex(st.floats(0.5, 2.0)), min_size=1, max_size=4),
    )
    def test_product_over_arguments_and_pointwise_arrays(self, parts, series, p, q, t, a, bs):
        ctx = SymbolContext(NomePair(p, q), t)
        lam = Partition(parts)
        assume(_well_conditioned(lam, a, bs, ctx, series))
        try:
            whole = delta0(lam, a, bs, ctx, series)
            each = [delta0(lam, a, [b], ctx, series) for b in bs]
        except (PoleError, OverflowError):
            assume(False)
        # relative accuracy is lost once a value leaves the normal range
        assume(all(1e-250 < abs(v) < 1e250 for v in [whole, *each]))
        assert abs(whole - np.prod(each)) <= 1e-12 * abs(whole)
        # one array call over all the b's equals the scalar calls
        grid = delta0(lam, a, [np.array(bs)], ctx, series)
        assert np.all(np.abs(grid - np.array(each)) <= 1e-12 * np.abs(np.array(each)))


class TestDelta0MpmathOracle:
    """delta0 against the 40-digit mpmath oracle delta0_mp, over |p|, |q|
    up to 0.9 with complex phases.  Draws where a theta factor is
    ill-conditioned, or the value leaves the normal float range, are
    rejected, as in TestDelta0Properties."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        parts=st.sampled_from(all_partitions_up_to(4)),
        series=st.sampled_from(["p", "q"]),
        p=_complex(st.floats(0.05, 0.9)),
        q=_complex(st.floats(0.05, 0.9)),
        t=_complex(st.floats(0.5, 0.95)),
        a=_complex(st.floats(0.5, 2.0)),
        bs=st.lists(_complex(st.floats(0.5, 2.0)), min_size=1, max_size=3),
    )
    def test_delta0(self, parts, series, p, q, t, a, bs):
        pytest.importorskip("mpmath")
        ctx = SymbolContext(NomePair(p, q), t)
        lam = Partition(parts)
        assume(_well_conditioned(lam, a, bs, ctx, series))
        try:
            got = delta0(lam, a, bs, ctx, series)
        except (PoleError, OverflowError):
            assume(False)
        assume(1e-250 < abs(got) < 1e250)
        base, nome = _roles(ctx, series)
        assert rel_err(got, delta0_mp(parts, a, bs, base, nome, t)) <= 1e-12


def _first_error(fn, shapes, *args):
    """The error fn raises for the first shape in order that fails, else None."""
    for mu in shapes:
        try:
            fn(mu, *args)
        except (PoleError, OverflowError) as exc:
            return exc
    return None


class TestSharedCellEvaluator:
    """delta0_shapes and delta0_bi_shapes, which share one set of cell
    ratios among all their shapes, against one delta0 / delta0_bi call
    per shape: the same values, and the same error for the same
    argument index and cell."""

    A = np.array([0.45 + 0.1j, 0.6 - 0.2j, -0.5j])
    GRID = np.array([[0.7 + 0.2j, 0.35, -0.4 + 0.5j], [0.8j, 0.55 - 0.1j, 0.3 + 0.3j]])
    EXACT = TestDelta0Contract.EXACT

    @staticmethod
    def assert_close(got, want):
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(np.asarray(got) - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("parts", ORACLE_SHAPES)
    def test_every_sub_shape_matches_one_call_each(self, parts):
        lam = Bipartition(Partition(parts), Partition(parts).conjugate())
        for a, bs in [(0.45 + 0.1j, [0.7 - 0.2j, 0.35j]), (self.A, [self.GRID, 0.6 + 0.1j])]:
            mus = sub_bipartitions(lam)
            for mu, got in zip(mus, delta0_bi_shapes(mus, a, bs, CTX)):
                self.assert_close(got, delta0_bi(mu, a, bs, CTX))
            for series in ("p", "q"):
                subs = sub_partitions(Partition(parts))
                for mu, got in zip(subs, delta0_shapes(subs, a, bs, CTX, series)):
                    self.assert_close(got, delta0(mu, a, bs, CTX, series))

    def assert_same_error(self, many, one, shapes, *args):
        """For every tail of shapes, many(tail, ...) raises what one(mu, ...)
        raises for the first failing mu of the tail, or nothing."""
        messages = set()
        for start in range(len(shapes)):
            tail = shapes[start:]
            expected = _first_error(one, tail, *args)
            if expected is None:
                many(tail, *args)
                continue
            messages.add(str(expected))
            with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
                many(tail, *args)
        return messages

    def test_pole_error_names_the_same_argument_and_cell(self):
        pq, q = self.EXACT.pq, self.EXACT.q
        a = 1.0
        # argument 1 vanishes at cell (1,2) of (2,) and (2,1), and at cell
        # (2,1) of (1,1) and (2,1): each shape names its own first cell
        bs = [0.3, pq * a * q]
        shapes = sub_partitions(Partition((2, 1)))
        assert self.assert_same_error(delta0_shapes, delta0, shapes, a, bs, self.EXACT) == {
            "Delta0 denominator vanishes for argument index 1 at cell (1,2)",
            "Delta0 denominator vanishes for argument index 1 at cell (2,1)",
        }
        bshapes = sub_bipartitions(Bipartition.of((1,), (2, 1)))
        assert self.assert_same_error(delta0_bi_shapes, delta0_bi, bshapes, a, bs, self.EXACT)

    def test_overflow_error_names_the_same_argument_index(self):
        b = 1e12
        a = 0.5 * b / self.EXACT.pq
        shapes = sub_partitions(Partition((2,)))
        bs = [b, b, b, 0.5]
        # (1,) overflows at the third argument; the second cell of (2,)
        # meets the theta zero pq a q / b = p at the first
        assert self.assert_same_error(delta0_shapes, delta0, shapes, a, bs, self.EXACT) == {
            "Delta0 overflow at argument index 2",
            "Delta0 denominator vanishes for argument index 0 at cell (1,2)",
        }
        bshapes = sub_bipartitions(Bipartition.of((1,), (1,)))
        assert self.assert_same_error(delta0_bi_shapes, delta0_bi, bshapes, a, bs, self.EXACT)

    def test_no_shapes_and_empty_shapes(self):
        assert delta0_shapes([], 0.4, [0.3], CTX) == []
        assert delta0_bi_shapes([Bipartition(), Bipartition()], 0.4, [0.3], CTX) == [1.0, 1.0]


HULLS = [
    Bipartition(Partition(first), Partition(second))
    for first in all_partitions_up_to(3)
    for second in all_partitions_up_to(2)
]


def _points(modulus):
    """A scalar, or an array of three points, of the given modulus."""
    return st.one_of(
        _complex(modulus), st.lists(_complex(modulus), min_size=3, max_size=3).map(np.array)
    )


@st.composite
def _groups(draw, hull, point):
    """One to three (shapes inside hull, a, bs) groups."""
    subs = sub_bipartitions(hull)
    return [
        (
            draw(st.lists(st.sampled_from(subs), min_size=1, max_size=4)),
            draw(point),
            draw(st.lists(point, max_size=3)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]


def _group_error(groups, ctx):
    """The error delta0_bi_shapes raises for the first group that fails."""
    for lams, a, bs in groups:
        try:
            delta0_bi_shapes(lams, a, bs, ctx)
        except (PoleError, OverflowError) as exc:
            return exc
    return None


class TestGroupedEvaluator:
    """delta0_bi_groups, which reads several (shapes, a, bs) groups and a
    C+ pair off one theta call per component over one hull, against one
    delta0_bi_shapes call per group and one cplus_bi call.  theta's term
    count follows the largest reduced |w| of its call, but at CTX's
    nomes it is the same for any batch, so the values agree bit for bit.
    A one-point theta call multiplies its terms in another order than a
    wider one, so the C+ points come as an array of two or three, as a
    table solve passes (a, a/b)."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data(), hull=st.sampled_from(HULLS))
    def test_each_group_as_its_own_call(self, data, hull):
        groups = data.draw(_groups(hull, _points(st.floats(0.5, 2.0))))
        z = np.array(data.draw(st.lists(_complex(st.floats(0.5, 2.0)), min_size=2, max_size=3)))
        expected = _group_error(groups, CTX)
        if expected is not None:  # a draw on a theta zero
            with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
                delta0_bi_groups(groups, CTX, plus=(hull, z))
            return
        *got, plus = delta0_bi_groups(groups, CTX, plus=(hull, z))
        assert plus.tobytes() == cplus_bi(hull, z, CTX).tobytes()
        assert len(got) == len(groups)
        for (lams, a, bs), values in zip(groups, got):
            want = delta0_bi_shapes(lams, a, bs, CTX)
            assert [type(v) for v in values] == [type(v) for v in want]
            assert all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(values, want))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data(), hull=st.sampled_from([h for h in HULLS if not h.is_zero()]))
    def test_vanishing_denominator_raises_as_its_own_call(self, data, hull):
        # plant b = pq a x_c in some groups, x_c the shift of a cell c of
        # either component: its denominator theta(pq a x_c / b) = theta(1)
        # vanishes, exactly, since EXACT's nomes, t and a are powers of
        # two; the first failing group, then shape, must name its error
        ctx = TestDelta0Contract.EXACT
        groups = data.draw(_groups(hull, _points(st.floats(0.5, 2.0))))
        roles = [pair for pair in (("first", "p"), ("second", "q")) if getattr(hull, pair[0]).size]
        planted = data.draw(st.sets(st.integers(0, len(groups) - 1), min_size=1))
        for g in planted:
            lams, _, bs = groups[g]
            a = 2.0 ** data.draw(st.integers(-1, 1))
            for role, series in data.draw(st.lists(st.sampled_from(roles), min_size=1, max_size=2)):
                i, j = data.draw(st.sampled_from(list(getattr(hull, role).cells())))
                x = ctx.roles(series)[0] ** (j - 1) * ctx.t ** (1 - i)
                bs.insert(data.draw(st.integers(0, len(bs))), ctx.pq * a * x)
            groups[g] = (lams + [hull], a, bs)
        expected = _group_error(groups, ctx)
        assert isinstance(expected, PoleError)
        with pytest.raises(PoleError, match=f"^{re.escape(str(expected))}$"):
            delta0_bi_groups(groups, ctx)


class TestGammaDeltaBridge:
    def test_zero_bipartition(self):
        lhs, rhs = gamma_delta_bridge(Bipartition(), 2, 0.4, 0.3, CTX)
        assert abs(lhs - 1.0) < 1e-13
        assert abs(rhs - 1.0) < 1e-13

    def test_n1_single_box(self):
        lhs, rhs = gamma_delta_bridge(Bipartition.of((1,), ()), 1, 0.4, 0.3, CTX)
        assert rel_err(lhs, rhs) < 1e-10

    def test_n2_mixed(self):
        lhs, rhs = gamma_delta_bridge(Bipartition.of((1,), (1,)), 2, 0.4, 0.3, CTX)
        assert rel_err(lhs, rhs) < 1e-10

    def test_random_shapes(self):
        rng = np.random.default_rng(15)
        shapes = [
            Bipartition.of((1,), (2,)),
            Bipartition.of((2, 1), ()),
            Bipartition.of((1, 1), (1,)),
        ]
        for lam in shapes:
            for n in (3,):
                for _ in range(10):
                    a = random_unit(rng, 0.3, 0.9)
                    b = random_unit(rng, 0.3, 0.9)
                    lhs, rhs = gamma_delta_bridge(lam, n, a, b, CTX)
                    assert rel_err(lhs, rhs) < 1e-9
