"""Tests for partitions, bipartitions and spectral vectors."""

import numpy as np
import pytest

from ellsel.partitions import (
    ZERO,
    Bipartition,
    Partition,
    bipartition_strip,
    horizontal_strip,
    parse_bipartition,
    spectral_vector,
    sub_bipartitions,
    sub_partitions,
)
from oracles import (
    all_partitions_up_to,
    conjugate_by_columns,
    strip_by_interlacing,
    sub_partitions_brute,
)


class TestPartition:
    def test_conjugate_example(self):
        assert Partition((7, 4, 2, 1, 1)).conjugate() == Partition((5, 3, 2, 2, 1, 1, 1))

    def test_conjugate_empty(self):
        assert Partition().conjugate() == Partition()

    def test_conjugate_rectangle(self):
        assert Partition((3, 3)).conjugate() == Partition((2, 2, 2))

    def test_conjugate_involution_and_size(self):
        for parts in all_partitions_up_to(6):
            lam = Partition(parts)
            conj = lam.conjugate()
            assert conj.parts == conjugate_by_columns(parts)
            assert conj.conjugate() == lam
            assert conj.size == lam.size

    def test_trailing_zeroes_never_stored(self):
        assert Partition((3, 1, 1, 0, 0)) == Partition((3, 1, 1))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))


class TestStrip:
    def test_examples(self):
        assert horizontal_strip(Partition((3, 1)), Partition((2, 1)))
        lam = Partition((3, 1))
        assert horizontal_strip(lam, lam)
        # 3 >= 1 >= 1 >= 1: interlacing holds.
        assert horizontal_strip(Partition((3, 1)), Partition((1, 1)))
        assert not horizontal_strip(Partition((3, 3)), Partition((1, 1)))

    def test_against_interlacing_oracle(self):
        parts = all_partitions_up_to(6)
        for lp in parts:
            for mp in parts:
                assert horizontal_strip(Partition(lp), Partition(mp)) == strip_by_interlacing(lp, mp)

    def test_column_difference_characterisation(self):
        # strip(lam, mu) iff mu subseteq lam and every column difference is 0 or 1.
        parts = all_partitions_up_to(6)
        for lp in parts:
            lam = Partition(lp)
            lc = lam.conjugate()
            for mp in parts:
                mu = Partition(mp)
                mc = mu.conjugate()
                expected = lam.contains(mu) and all(
                    lc[i] - mc[i] in (0, 1) for i in range(max(len(lc), len(mc)))
                )
                assert horizontal_strip(lam, mu) == expected


class TestSubBipartitions:
    def test_single_box(self):
        got = sub_bipartitions(Bipartition.of((1,), ()))
        assert got == [ZERO, Bipartition.of((1,), ())]

    def test_one_one(self):
        assert len(sub_bipartitions(Bipartition.of((1,), (1,)))) == 4

    def test_two_one(self):
        assert len(sub_bipartitions(Bipartition.of((2, 1), ()))) == 5

    def test_counts_match_brute_force(self):
        for lp in all_partitions_up_to(4):
            for mp in all_partitions_up_to(4):
                lam = Bipartition.of(lp, mp)
                expect = len(sub_partitions_brute(lp)) * len(sub_partitions_brute(mp))
                assert len(sub_bipartitions(lam)) == expect

    def test_order_is_size_then_lex(self):
        subs = sub_bipartitions(Bipartition.of((2, 1), (1,)))
        keys = [(b.size, b.first.parts, b.second.parts) for b in subs]
        assert keys == sorted(keys)

    def test_sub_partitions_match_oracle(self):
        for lp in all_partitions_up_to(5):
            got = [m.parts for m in sub_partitions(Partition(lp))]
            assert got == sub_partitions_brute(lp)


class TestBipartition:
    def test_swap_involution(self):
        lam = Bipartition.of((2, 1), (3,))
        assert lam.swap().swap() == lam

    def test_text_roundtrip(self):
        for text in ("2,1|1", "0|0", "3|0", "0|1,1"):
            assert str(parse_bipartition(text)) == text

    def test_strip_componentwise(self):
        lam = Bipartition.of((2,), (1,))
        assert bipartition_strip(lam, Bipartition.of((1,), ()))
        assert not bipartition_strip(Bipartition.of((2, 2), ()), Bipartition.of((), ()))


class TestSpectralVector:
    def test_zero_bipartition(self):
        t = 0.3 + 0.1j
        assert spectral_vector(ZERO, 2, t, 0.1, 0.2) == (t, 1)

    def test_direct_formula(self):
        lam = Bipartition.of((1,), (2,))
        vec = spectral_vector(lam, 2, 0.3, 0.1, 0.2)
        assert abs(vec[0] - 0.1 * 0.04 * 0.3) < 1e-15
        assert vec[1] == 1

    def test_swap_property(self):
        rng = np.random.default_rng(5)
        p, q, t = 0.1 + 0.05j, 0.2 - 0.1j, 0.4
        for _ in range(20):
            lam = Bipartition.of(
                sorted(rng.integers(0, 3, size=2), reverse=True),
                sorted(rng.integers(0, 3, size=3), reverse=True),
            )
            assert spectral_vector(lam, 3, t, p, q) == spectral_vector(lam.swap(), 3, t, q, p)

    def test_length_error(self):
        with pytest.raises(ValueError):
            spectral_vector(Bipartition.of((1, 1), ()), 1, 0.3, 0.1, 0.2)
