from functools import lru_cache
from math import comb

from kalmanres.partitions import Partition, partitions_in_box, partitions_of, schur_rank
from kalmanres.schur import (
    cauchy_exterior,
    lr_coefficient,
    lr_product,
    lr_skew,
)
from property_checks import (
    horizontal_strips,
    lr_coefficient_cells,
    schur_product_expansion,
    vertical_strips,
)


def all_partitions_up_to(total):
    for q in range(total + 1):
        yield from partitions_of(q)


def pieri_row(mu, k):
    """lr_product with a one-row factor, keys in descending order; every
    multiplicity must be 1."""
    row = lr_product(mu, Partition((k,)))
    assert set(row.values()) <= {1}, (mu, k)
    return sorted(row, reverse=True)


class TestPieri:
    def test_horizontal_frozen(self):
        assert pieri_row(Partition((2, 1)), 2) == [
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
        ]
        assert pieri_row(Partition(()), 3) == [(3,)]
        assert pieri_row(Partition((2,)), 0) == [(2,)]

    def test_against_strip_enumeration(self):
        for mu in all_partitions_up_to(5):
            for k in range(5):
                assert pieri_row(mu, k) == horizontal_strips(mu, k), (mu, k)

    def test_matches_lr_product(self):
        # spec property: lr_product with a one-row / one-column factor
        # collapses to the horizontal / vertical strips with all
        # multiplicities 1
        for mu in all_partitions_up_to(4):
            for k in range(1, 4):
                assert pieri_row(mu, k) == horizontal_strips(mu, k)
                col = lr_product(mu, Partition((1,) * k))
                assert set(col.values()) <= {1}
                assert sorted(col, reverse=True) == vertical_strips(mu, k)


class TestLittlewoodRichardson:
    def test_frozen_classics(self):
        two_one = Partition((2, 1))
        assert lr_coefficient(two_one, two_one, Partition((3, 2, 1))) == 2
        assert lr_coefficient(two_one, two_one, Partition((4, 2))) == 1
        assert lr_coefficient(two_one, two_one, Partition((2, 2, 2))) == 1
        assert lr_coefficient(two_one, two_one, Partition((4, 1, 1))) == 1
        assert lr_coefficient(Partition((1,)), Partition((1,)), Partition((2,))) == 1
        assert lr_coefficient(Partition((1,)), Partition((1,)), Partition((1, 1))) == 1
        # size mismatch and non-containment vanish
        assert lr_coefficient(two_one, two_one, Partition((5, 2))) == 0
        assert lr_coefficient(Partition((3,)), Partition((1,)), Partition((2, 2))) == 0

    def test_empty_factor_is_identity(self):
        for lam in all_partitions_up_to(4):
            assert lr_product(lam, Partition(())) == {lam: 1}
            assert lr_product(Partition(()), lam) == {lam: 1}

    def test_against_monomial_peeling_oracle(self):
        # independent route: multiply Schur polynomials and peel leading terms
        for lam in all_partitions_up_to(3):
            for mu in all_partitions_up_to(3):
                expected = schur_product_expansion(tuple(lam), tuple(mu))
                got = {tuple(nu): c for nu, c in lr_product(lam, mu).items()}
                assert got == expected, (lam, mu)

    def test_peeling_oracle_on_size_four_pairs(self):
        pairs = [
            ((2, 1), (2, 1)),
            ((2, 2), (2, 1)),
            ((2, 1, 1), (2, 1)),
            ((3, 1), (2, 2)),
            ((2, 2), (2, 2)),
            ((1, 1, 1, 1), (2, 1)),
        ]
        for lam, mu in pairs:
            expected = schur_product_expansion(lam, mu)
            got = {tuple(nu): c for nu, c in lr_product(Partition(lam), Partition(mu)).items()}
            assert got == expected, (lam, mu)

    def test_symmetry(self):
        # spec property: c^nu_{lam,mu} = c^nu_{mu,lam} for |lam|,|mu| <= 4
        for lam in all_partitions_up_to(4):
            for mu in all_partitions_up_to(4):
                assert lr_product(lam, mu) == lr_product(mu, lam), (lam, mu)

    def test_conjugation_symmetry(self):
        # spec property: c^nu_{lam,mu} = c^{nu'}_{lam',mu'} for |lam|,|mu| <= 4
        for lam in all_partitions_up_to(4):
            for mu in all_partitions_up_to(4):
                direct = lr_product(lam, mu)
                conj = lr_product(lam.conjugate(), mu.conjugate())
                assert direct == {
                    nu.conjugate(): c for nu, c in conj.items()
                }, (lam, mu)

    def test_row_column_duality(self):
        # multiplying by a single column transposes to a single row: c^nu_{(1^d),mu}
        for mu in all_partitions_up_to(4):
            for d in range(1, 4):
                col = lr_product(Partition((1,) * d), mu)
                row = lr_product(Partition((d,)), mu.conjugate())
                assert col == {nu.conjugate(): c for nu, c in row.items()}

    def test_dimension_identity(self):
        # spec property: sum c^nu * dim S_nu = dim S_lam * dim S_mu, n <= 5
        for lam in all_partitions_up_to(4):
            for mu in all_partitions_up_to(4):
                prod = lr_product(lam, mu)
                for n in range(6):
                    lhs = sum(c * schur_rank(nu, n) for nu, c in prod.items())
                    assert lhs == schur_rank(lam, n) * schur_rank(mu, n)

    def test_row_bound_is_exact(self):
        # lr_product(lam, mu, r) is the monomial-peeling expansion cut at r
        # rows, in lexicographic descending order, for |lam|, |mu| <= 4;
        # rows=0 keeps only the empty partition; s_lam s_mu = s_mu s_lam, so
        # each unordered pair is expanded once
        expand = lru_cache(maxsize=None)(schur_product_expansion)
        for lam in all_partitions_up_to(4):
            for mu in all_partitions_up_to(4):
                full = expand(*sorted((tuple(lam), tuple(mu))))
                for r in range(lam.length() + mu.length() + 2):
                    expected = sorted(
                        ((nu, c) for nu, c in full.items() if len(nu) <= r), reverse=True
                    )
                    got = [(tuple(nu), c) for nu, c in lr_product(lam, mu, r).items()]
                    assert got == expected, (lam, mu, r)
                assert lr_product(lam, mu) == lr_product(lam, mu, lam.length() + mu.length())

    def test_against_cell_backtracking_oracle(self):
        # the flat kernel against the former cell-by-cell backtracker for
        # every |lam|, |mu| <= 6 and every nu of |lam| + |mu| (33,451 triples)
        for lam in all_partitions_up_to(6):
            for mu in all_partitions_up_to(6):
                for nu in partitions_of(sum(lam) + sum(mu)):
                    assert lr_coefficient(lam, mu, nu) == lr_coefficient_cells(lam, mu, nu), (
                        lam,
                        mu,
                        nu,
                    )

    def test_prefix_prune_keeps_every_nonzero_nu(self):
        # lr_product skips nu failing the content-prefix bound; the scan
        # without it, filtered by the oracle, gives the same pairs in order
        for lam in all_partitions_up_to(6):
            for mu in all_partitions_up_to(6):
                total, cols = sum(lam) + sum(mu), lam.part(0) + mu.part(0)
                for r in range(lam.length() + mu.length() + 1):
                    expected = []
                    for nu in partitions_in_box(total, r, cols):
                        c = lr_coefficient_cells(lam, mu, nu)
                        if c:
                            expected.append((nu, c))
                    assert list(lr_product(lam, mu, r).items()) == expected, (lam, mu, r)

    def test_skew_walk_against_cell_backtracking_oracle(self):
        # one walk of nu/lam gives every nonzero c^nu_{lam,mu}, for every
        # lam in nu with |nu| <= 10 (2,888 pairs)
        pairs = 0
        for nu in all_partitions_up_to(10):
            for lam in all_partitions_up_to(sum(nu)):
                if len(lam) > len(nu) or any(a < b for a, b in zip(nu, lam)):
                    continue
                pairs += 1
                expected = {}
                for mu in partitions_of(sum(nu) - sum(lam)):
                    c = lr_coefficient_cells(lam, mu, nu)
                    if c:
                        expected[mu] = c
                got = lr_skew(lam, nu)
                assert got == expected, (lam, nu)
                assert list(got) == sorted(got, reverse=True), (lam, nu)
        assert pairs == 2888

    def test_mutating_a_product_leaves_the_next_call_whole(self):
        lam, mu = Partition((2, 1)), Partition((2, 1))
        first = lr_product(lam, mu, 3)
        expected = list(first.items())
        first.clear()
        first[Partition((9,))] = 7
        again = lr_product(lam, mu, 3)
        assert list(again.items()) == expected
        assert again is not lr_product(lam, mu, 3)

    def test_product_keys_sorted(self):
        out = lr_product(Partition((2, 1)), Partition((2, 1)))
        keys = list(out)
        assert keys == sorted(keys, reverse=True)
        assert all(c > 0 for c in out.values())


class TestCauchy:
    def test_exterior_rank_identity(self):
        # spec property: a, b <= 5, q <= 8
        for q in range(9):
            summands = cauchy_exterior(q)
            for a in range(6):
                for b in range(6):
                    total = sum(
                        schur_rank(lam, a) * schur_rank(lamc, b)
                        for lam, lamc in summands
                    )
                    assert total == comb(a * b, q), (a, b, q)

    def test_pair_structure(self):
        for q in range(7):
            for lam, lamc in cauchy_exterior(q):
                assert lamc == lam.conjugate()
