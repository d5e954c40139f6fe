import pytest

from kalmanres.partitions import (
    Partition,
    dual_weight,
    is_weakly_decreasing,
    partitions_in_box,
    partitions_of,
    schur_rank,
)
from kalmanres.schur import lr_coefficient
from property_checks import box_count, ssyt_count, weight_rank, weyl_dimension


def all_partitions_up_to(total):
    for q in range(total + 1):
        yield from partitions_of(q)


class TestPartitionType:
    def test_strips_trailing_zeros(self):
        assert Partition((3, 2, 0, 0)) == (3, 2)
        assert Partition((0, 0)) == ()
        assert Partition(()) == ()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_rejects_parts_that_are_not_integers(self):
        # parts used to be truncated by int(): [2.7, 1] and "21" became (2, 1)
        with pytest.raises(TypeError):
            Partition([2.7, 1])
        with pytest.raises(TypeError):
            Partition("21")
        with pytest.raises(TypeError):
            schur_rank([2.5], 3)
        with pytest.raises(TypeError):
            lr_coefficient((1.5,), (1,), (2,))

    def test_accepts_python_and_numpy_integers(self):
        import numpy as np

        assert Partition([np.int64(2), np.int32(1), 0]) == (2, 1)
        assert type(Partition([np.int64(2)])[0]) is int
        assert Partition([True]) == (1,)

    def test_partition_argument_is_returned_unchanged(self):
        lam = Partition((3, 1))
        assert Partition(lam) is lam

    def test_basic_accessors(self):
        lam = Partition((4, 2, 1))
        assert sum(lam) == 7
        assert lam.length() == 3
        assert lam.part(0) == 4
        assert lam.part(2) == 1
        assert lam.part(3) == 0
        assert lam.part(99) == 0

    def test_pad(self):
        assert Partition((2, 1)).pad(4) == (2, 1, 0, 0)
        with pytest.raises(ValueError):
            Partition((2, 1, 1)).pad(2)

    def test_conjugate_frozen_examples(self):
        assert Partition((3, 1)).conjugate() == (2, 1, 1)
        assert Partition((4,)).conjugate() == (1, 1, 1, 1)
        assert Partition(()).conjugate() == ()

    def test_conjugate_is_involution(self):
        # spec property: all |lam| <= 8
        for lam in all_partitions_up_to(8):
            assert lam.conjugate().conjugate() == lam

    def test_exponent_string(self):
        assert Partition((2, 1, 1)).exponent_string() == "2,1^2"
        assert Partition(()).exponent_string() == "0"
        assert Partition((3, 3, 3)).exponent_string() == "3^3"
        assert Partition((5,)).exponent_string() == "5"
        assert Partition((2, 2, 1)).exponent_string() == "2^2,1"

    def test_sorts_like_tuples(self):
        lams = [Partition((2, 1)), Partition((3,)), Partition((1, 1, 1))]
        assert sorted(lams, reverse=True) == [(3,), (2, 1), (1, 1, 1)]


class TestWeights:
    def test_dual_weight(self):
        assert dual_weight((3, 1, 0)) == (0, -1, -3)
        assert dual_weight(()) == ()

    def test_dual_weight_involution(self):
        for lam in all_partitions_up_to(6):
            w = lam.pad(4) if lam.length() <= 4 else tuple(lam)
            assert dual_weight(dual_weight(w)) == w

    def test_is_weakly_decreasing(self):
        assert is_weakly_decreasing((3, 1, 1, 0, -2))
        assert not is_weakly_decreasing((1, 2))
        assert is_weakly_decreasing(())


class TestSchurRank:
    def test_matches_ssyt_oracle(self):
        # spec property: |lam| <= 6, n <= 4, brute-force tableau counting
        for lam in all_partitions_up_to(6):
            for n in range(5):
                assert schur_rank(lam, n) == ssyt_count(lam, n), (lam, n)

    def test_zero_iff_too_many_rows(self):
        for lam in all_partitions_up_to(6):
            for n in range(7):
                assert (schur_rank(lam, n) == 0) == (lam.length() > n)

    def test_frozen_values(self):
        assert schur_rank(Partition(()), 5) == 1
        assert schur_rank(Partition((1,)), 7) == 7
        assert schur_rank(Partition((2, 1)), 3) == 8
        assert schur_rank(Partition((2, 1)), 5) == 40
        assert schur_rank(Partition((2, 2)), 5) == 50
        assert schur_rank(Partition((2, 1, 1)), 5) == 45
        assert schur_rank(Partition((1, 1, 1)), 6) == 20  # wedge^3

    def test_a_float_rank_raises_and_leaves_the_cache_clean(self):
        # n is read before the cache: 3.0 used to return 8.0 and leave it
        # cached, so schur_rank((2, 1), 3) returned the float from then on
        with pytest.raises(TypeError):
            schur_rank((2, 1), 3.0)
        rank = schur_rank((2, 1), 3)
        assert rank == 8 and type(rank) is int

    def test_accepts_lists_and_tuples_around_its_cache(self):
        # the rank is cached per (Partition, n): every form of the same
        # parts, trailing zeros included, reaches the same entry
        for lam in ([2, 1], (2, 1), (2, 1, 0), Partition((2, 1)), [2, 1]):
            assert schur_rank(lam, 5) == 40, lam
        assert schur_rank([], 3) == schur_rank((), 3) == 1

    def test_negative_rank_raises_on_every_call(self):
        # an exception is never cached: the repeated call raises too
        for _ in range(3):
            with pytest.raises(ValueError):
                schur_rank((2, 1), -1)
            with pytest.raises(ValueError):
                schur_rank([], -2)

    def test_weight_rank_matches_weyl_product(self):
        for lam in all_partitions_up_to(5):
            for n in range(lam.length(), 5):
                w = lam.pad(n)
                assert weight_rank(w, n) == weyl_dimension(w)

    def test_weight_rank_det_twist_invariance(self):
        for lam in all_partitions_up_to(4):
            n = max(lam.length(), 2)
            w = lam.pad(n)
            base = weight_rank(w, n)
            for c in (-3, -1, 2):
                assert weight_rank(tuple(x + c for x in w), n) == base

    def test_weight_rank_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            weight_rank((1, 2), 2)


class TestPartitionEnumeration:
    def test_box_counts_match_gaussian_binomial(self):
        # spec property: q, r, c <= 6, DP/product oracle
        for q in range(7):
            for r in range(7):
                for c in range(7):
                    assert len(partitions_in_box(q, r, c)) == box_count(q, r, c)

    def test_box_contents_and_order(self):
        for q in range(7):
            for r in range(4):
                for c in range(4):
                    out = partitions_in_box(q, r, c)
                    assert sorted(out, reverse=True) == out
                    assert len(set(out)) == len(out)
                    for lam in out:
                        assert sum(lam) == q
                        assert lam.length() <= r
                        assert lam.part(0) <= c

    def test_box_edge_cases(self):
        assert partitions_in_box(0, 0, 5) == [()]
        assert partitions_in_box(0, 3, 0) == [()]
        assert partitions_in_box(1, 0, 5) == []
        assert partitions_in_box(1, 5, 0) == []
        with pytest.raises(ValueError):
            partitions_in_box(-1, 2, 2)

    def test_partition_numbers(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(partitions_of(q)) for q in range(11)] == expected
