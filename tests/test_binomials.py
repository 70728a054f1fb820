"""Tests for the numerically solved elliptic binomial coefficients."""

import cmath
import json
import pathlib

import numpy as np
import pytest

from ellsel.core import NomePair
from ellsel.binomials import (
    ConditioningError,
    TableCache,
    binomial,
    binomial_column,
    binomial_row,
    draw_generic_ab,
    endpoint_full,
    endpoint_zero,
    jackson_check,
    jackson_residual,
    solve_binomial_table,
)
from ellsel.partitions import ZERO, Bipartition, bipartition_strip, sub_bipartitions
from ellsel.symbols import SymbolContext, delta0_bi

CTX = SymbolContext(NomePair(0.1, 0.2), 0.25)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def rand_c(rng, lo=0.3, hi=0.9):
    return rng.uniform(lo, hi) * cmath.exp(2j * cmath.pi * rng.uniform())


SHAPES = [
    Bipartition.of((1,), ()),
    Bipartition.of((1,), (1,)),
    Bipartition.of((2,), ()),
    Bipartition.of((2,), (1,)),
    Bipartition.of((2, 1), ()),
    Bipartition.of((1, 1), (1,)),
    Bipartition.of((2,), (2,)),
]


# Every value, residual, condition and resample count of the SHAPES
# tables at PINNED_SEEDS, and of one table forced through two resamples,
# as hex floats.  Recorded when each table made separate theta calls for
# its endpoints, its rows and its holdout rows, so a change to how a
# solve batches its symbols must leave every bit, and the (c, d) stream
# of a resampled table, where they are.  Regenerate only for a change
# that is meant to move table values:
#
#     PYTHONPATH=src python tests/test_binomials.py
PINNED_TABLES = pathlib.Path(__file__).with_name("pinned_tables.json")
PINNED_SEEDS = (0, 1)
RESAMPLED = Bipartition.of((2,), (1,))


def table_record(table) -> dict:
    def hexes(z):
        return [complex(z).real.hex(), complex(z).imag.hex()]

    return {
        "values": {str(mu): hexes(val) for mu, val in table.values.items()},
        "residual": float(table.residual).hex(),
        "condition": float(table.condition).hex(),
        "resamples": table.resamples,
    }


def pinned_table(lam, seed):
    a, b = draw_generic_ab(lam, CTX, np.random.default_rng(seed))
    return solve_binomial_table(lam, a, b, CTX, rng_seed=seed)


class TestPinnedTables:
    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    @pytest.mark.parametrize("lam", SHAPES, ids=str)
    def test_table_keeps_every_bit(self, lam, seed):
        pinned = json.loads(PINNED_TABLES.read_text())[f"{lam}@{seed}"]
        assert table_record(pinned_table(lam, seed)) == pinned

    def test_resampled_table_keeps_every_bit(self, ill_conditioned):
        # the first two attempts read as ill-conditioned, so the solve
        # takes its rows from the stream's third block of neq pairs
        ill_conditioned(2)
        table = pinned_table(RESAMPLED, 0)
        assert table.resamples == 2
        assert table_record(table) == json.loads(PINNED_TABLES.read_text())["resampled"]


class TestTableEndpoints:
    def test_trivial_table(self):
        table = solve_binomial_table(ZERO, 0.4, 0.6, CTX)
        assert table.values == {ZERO: 1.0}

    @pytest.mark.parametrize("lam", SHAPES)
    def test_both_endpoints(self, lam):
        rng = np.random.default_rng(lam.size)
        a, b = draw_generic_ab(lam, CTX, rng)
        table = solve_binomial_table(lam, a, b, CTX, rng_seed=3)
        assert rel_err(table[ZERO], endpoint_zero(lam, a, b, CTX)) < 1e-8
        assert rel_err(table[lam], endpoint_full(lam, a, b, CTX)) < 1e-8
        assert table.residual <= 1e-9

    def test_example_values(self):
        rng = np.random.default_rng(21)
        lam = Bipartition.of((1,), (1,))
        a, b = rand_c(rng), rand_c(rng)
        table = solve_binomial_table(lam, a, b, CTX)
        assert rel_err(table[ZERO], endpoint_zero(lam, a, b, CTX)) < 1e-8
        lam2 = Bipartition.of((2,), ())
        table2 = solve_binomial_table(lam2, a, b, CTX)
        assert rel_err(table2[lam2], endpoint_full(lam2, a, b, CTX)) < 1e-8


ENDPOINT_SHAPES = [
    ZERO,
    Bipartition.of((1,), ()),
    Bipartition.of((), (1,)),
    Bipartition.of((1,), (1,)),
    Bipartition.of((2,), (1,)),
]


def hexes(values) -> list:
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestClosedFormEndpoints:
    """A row that reads only <lam over 0> and <lam over lam> takes them
    from endpoint_zero and endpoint_full, and a nu = 0 column from one
    Delta0 call: at these generic points each must equal the solved
    table's entry bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("lam", ENDPOINT_SHAPES, ids=str)
    def test_row_endpoints_equal_the_solved_table(self, lam, seed):
        a, b = draw_generic_ab(lam, CTX, np.random.default_rng(seed))
        table = solve_binomial_table(lam, a, b, CTX).values
        want = [table[ZERO], table[lam]]
        assert hexes(binomial_row(lam, [ZERO, lam], a, b, CTX, TableCache(), ())) == hexes(want)
        bracket = (0.7 - 0.1j, 0.35j)
        num = delta0_bi(lam, a, list(bracket), CTX)
        dens = [delta0_bi(mu, a / b, list(bracket), CTX) for mu in (ZERO, lam)]
        got = binomial_row(lam, [ZERO, lam], a, b, CTX, TableCache(), bracket)
        assert hexes(got) == hexes([val * num / den for val, den in zip(want, dens)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_column_equals_the_solved_tables(self, seed):
        lam = Bipartition.of((2, 1), (1,))
        mus = sub_bipartitions(lam)
        a, b = draw_generic_ab(lam, CTX, np.random.default_rng(seed))
        want = [solve_binomial_table(mu, a, b, CTX).values[ZERO] for mu in mus]
        assert hexes(binomial_column(mus, ZERO, a, b, CTX, TableCache())) == hexes(want)

    def test_endpoint_read_survives_an_ill_conditioned_table(self, ill_conditioned):
        # the table of lam cannot be solved, but its endpoints need no solve
        lam = Bipartition.of((2,), (1,))
        a, b = draw_generic_ab(lam, CTX, np.random.default_rng(4))
        ill_conditioned(1000)
        with pytest.raises(ConditioningError):
            binomial_row(lam, sub_bipartitions(lam), a, b, CTX, TableCache())
        row = binomial_row(lam, [ZERO, lam], a, b, CTX, TableCache())
        assert row == [endpoint_zero(lam, a, b, CTX), endpoint_full(lam, a, b, CTX)]


class TestBinomialOp:
    def test_b_equals_one_is_delta(self):
        lam = Bipartition.of((2,), (1,))
        for mu in sub_bipartitions(lam):
            val = binomial(lam, mu, 0.45, 1.0, CTX, bracket=(0.7,))
            assert val == (1.0 if mu == lam else 0.0)

    def test_triangularity_exact(self):
        lam = Bipartition.of((1,), (1,))
        mu = Bipartition.of((2,), ())
        assert binomial(lam, mu, 0.4, 0.6, CTX) == 0.0

    def test_strip_vanishing_at_b_t(self):
        # b = t kills every mu that is not a componentwise strip of lam.
        rng = np.random.default_rng(31)
        lam = Bipartition.of((2, 1), (1,))
        a = rand_c(rng)
        cache = TableCache()
        table = cache.get(lam, a, CTX.t, CTX)
        scale = max(abs(v) for v in table.values.values())
        for mu in sub_bipartitions(lam):
            if not bipartition_strip(lam, mu):
                assert abs(table[mu]) < 1e-8 * scale

    def test_bracket_pair_reduction(self):
        # Appending (w, pq a/(b w)) multiplies by Delta0_lam(a|w)/Delta0_lam(a|bw).
        from ellsel.symbols import delta0_bi

        rng = np.random.default_rng(41)
        lam = Bipartition.of((1,), (1,))
        mu = Bipartition.of((1,), ())
        a, b, w, v = rand_c(rng), rand_c(rng), rand_c(rng), rand_c(rng)
        cache = TableCache()
        pair = (v, w, CTX.pq * a / (b * w))
        lhs = binomial(lam, mu, a, b, CTX, cache, bracket=pair)
        base = binomial(lam, mu, a, b, CTX, cache, bracket=(v,))
        ratio = delta0_bi(lam, a, [w], CTX) / delta0_bi(lam, a, [b * w], CTX)
        assert rel_err(lhs, base * ratio) < 1e-9


class TestJackson:
    def test_single_term_when_nu_equals_lam(self):
        rng = np.random.default_rng(51)
        lam = Bipartition.of((1,), (1,))
        res, _ = jackson_residual(lam, lam, rand_c(rng), rand_c(rng), rand_c(rng), rand_c(rng), CTX)
        assert res < 1e-10

    def test_nu_zero(self):
        rng = np.random.default_rng(52)
        lam = Bipartition.of((1,), (1,))
        a, b = draw_generic_ab(lam, CTX, rng)
        assert jackson_check(lam, ZERO, a, b, CTX, rng) <= 1e-9

    def test_nu_intermediate(self):
        rng = np.random.default_rng(53)
        lam = Bipartition.of((2,), (1,))
        nu = Bipartition.of((1,), ())
        a, b = draw_generic_ab(lam, CTX, rng)
        assert jackson_check(lam, nu, a, b, CTX, rng) <= 1e-8

    def test_held_out_residuals_fresh_draws(self):
        rng = np.random.default_rng(54)
        lam = Bipartition.of((2,), (1,))
        a, b = draw_generic_ab(lam, CTX, rng)
        cache = TableCache()
        for _ in range(5):
            res = jackson_check(lam, ZERO, a, b, CTX, rng, cache)
            assert res <= 1e-9


class TestMatrixInverse:
    @pytest.mark.parametrize(
        "lam",
        [Bipartition.of((1,), (1,)), Bipartition.of((2, 1), ()), Bipartition.of((2,), (1,))],
    )
    def test_two_family_product_is_identity(self, lam):
        # M1[lam,mu] = <lam over mu>_[a/b, ab/pq], M2[mu,nu] = <mu over nu>_[pq/b^2, pq/(ab)]
        rng = np.random.default_rng(61)
        a, b = rand_c(rng, 0.4, 0.9), rand_c(rng, 0.4, 0.9)
        pq = CTX.pq
        subs = sub_bipartitions(lam)
        cache = TableCache()
        n = len(subs)
        m1 = np.zeros((n, n), dtype=complex)
        m2 = np.zeros((n, n), dtype=complex)
        for i, lam_i in enumerate(subs):
            for j, mu_j in enumerate(subs):
                m1[i, j] = binomial(lam_i, mu_j, a / b, a * b / pq, CTX, cache)
                m2[i, j] = binomial(lam_i, mu_j, pq / b**2, pq / (a * b), CTX, cache)
        prod = m1 @ m2
        assert np.max(np.abs(prod - np.eye(n))) < 1e-8


if __name__ == "__main__":
    from conftest import read_ill_conditioned

    records = {
        f"{lam}@{seed}": table_record(pinned_table(lam, seed)) for seed in PINNED_SEEDS for lam in SHAPES
    }
    with pytest.MonkeyPatch.context() as mp:
        read_ill_conditioned(mp, 2)
        records["resampled"] = table_record(pinned_table(RESAMPLED, 0))
    PINNED_TABLES.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} tables to {PINNED_TABLES.name}")
