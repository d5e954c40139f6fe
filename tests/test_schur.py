from functools import lru_cache
from math import comb

from kalmanres.partitions import Partition, partitions_in_box, partitions_of, schur_rank
from kalmanres import schur
from kalmanres.schur import (
    cauchy_exterior,
    lr_coefficient,
    lr_product,
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


def scan_candidates(lam, mu, r):
    """The nu lr_product counts, in order: size |lam| + |mu|, at most r
    rows, containing lam, and rows 0..k of nu/lam holding at most
    mu_1 + ... + mu_{k+1} cells."""
    total, cols = sum(lam) + sum(mu), lam.part(0) + mu.part(0)
    return [
        nu
        for nu in partitions_in_box(total, r, cols)
        if all(nu.part(k) >= lam.part(k) for k in range(r))
        and all(sum(nu[: k + 1]) - sum(lam[: k + 1]) <= sum(mu[: k + 1]) for k in range(r))
    ]


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

    def test_skip_sees_exactly_the_candidates_and_none_it_drops_is_counted(self, monkeypatch):
        # the candidates of r rows have size |lam| + |mu|, contain lam, and
        # rows 0..k of nu/lam hold at most mu_1 + ... + mu_{k+1} cells; skip
        # sees them in lexicographic descending order, here dropping every
        # second one, and only the others reach lr_coefficient
        counted = []
        count = schur.lr_coefficient

        def counting(lam, mu, nu):
            counted.append(nu)
            return count(lam, mu, nu)

        monkeypatch.setattr(schur, "lr_coefficient", counting)
        for lam in all_partitions_up_to(5):
            for mu in all_partitions_up_to(5):
                for r in range(lam.length() + mu.length() + 1):
                    candidates = scan_candidates(lam, mu, r)
                    seen = []
                    counted.clear()
                    got = lr_product(lam, mu, r, skip=lambda nu: seen.append(nu) or len(seen) % 2 == 0)
                    assert seen == candidates, (lam, mu, r)
                    assert counted == seen[0::2], (lam, mu, r)
                    kept = set(seen[0::2])
                    assert got == {
                        nu: c for nu, c in lr_product(lam, mu, r).items() if nu in kept
                    }, (lam, mu, r)

    def test_two_skips_on_one_cached_scan(self):
        # the scan is cached per (lam, mu, rows) and skip runs after the
        # lookup: the second skip, served from the cache, still sees every
        # candidate in order, and each result is the full product less
        # exactly the keys its own skip dropped
        schur._lr_candidates.cache_clear()
        skips = (lambda nu: len(nu) == 3, lambda nu: nu.part(0) >= 5 or nu.part(1) <= 2)
        for lam, mu in [((3, 2, 1), (2, 2, 1)), ((2, 1), (2, 1)), ((4, 2), (3, 1, 1))]:
            lam, mu = Partition(lam), Partition(mu)
            for rows in range(len(lam) + len(mu) + 1):
                full = lr_product(lam, mu, rows)
                for drop in skips:
                    seen = []
                    got = lr_product(lam, mu, rows, skip=lambda nu: seen.append(nu) or drop(nu))
                    assert seen == scan_candidates(lam, mu, rows), (lam, mu, rows)
                    assert list(got.items()) == [
                        (nu, c) for nu, c in full.items() if not drop(nu)
                    ], (lam, mu, rows)
        assert schur._lr_candidates.cache_info().hits > 0

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
