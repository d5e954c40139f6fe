import importlib
import random
from collections import Counter
from math import comb

import pytest

from kalmanres import geometric, schur
from kalmanres.bott import GrassmannianContext, bott, cohomology_of_summand
from kalmanres.geometric import (
    BettiTable,
    HilbertSeries,
    _det,
    XiSummand,
    cohomology_table,
    hilbert_series,
    hilbert_series_normalization,
    resolution_terms,
    xi_exterior_decomposition,
)
from kalmanres.partitions import Partition, dual_weight, partitions_in_box, schur_rank
from kalmanres.schur import lr_product
from property_checks import (
    cohomology_table_unfiltered,
    hilbert_series_normalization_unfiltered,
    leibniz_det,
    weyl_euler_characteristic,
)


BOTT = importlib.import_module("kalmanres.bott")  # the package's name bott is the function


def small_contexts(max_d=4, max_n=9):
    for d in range(1, max_d + 1):
        for s in range(1, d + 1):
            for n in range(d + 1, max_n + 1):
                yield GrassmannianContext(s, d, n)


class TestXiDecomposition:
    def test_rank_sum_is_binomial(self):
        # spec property: every ctx with s, d <= 4, n <= 9, every q
        for ctx in small_contexts():
            for q in range(ctx.xi_rank + 2):
                total = sum(s.rank(ctx) for s in xi_exterior_decomposition(ctx, q))
                assert total == comb(ctx.xi_rank, q), (ctx, q)

    def test_summand_size_bookkeeping(self):
        ctx = GrassmannianContext(2, 3, 6)
        for q in range(ctx.xi_rank + 1):
            for s in xi_exterior_decomposition(ctx, q):
                assert sum(s.lambda_r) == sum(s.mu_qstar) + sum(s.nu_w)
                assert sum(s.lambda_r) == q
                assert s.lambda_r.length() <= ctx.rank_sub
                assert s.mult > 0

    def test_matches_unbounded_product_cut_at_s_rows(self):
        # the construction before the product took its row bound: the whole
        # public lr_product, then drop every nu with more than s rows
        def filtered(ctx, q):
            s, quot, w = ctx.rank_sub, ctx.rank_quot, ctx.dim_w
            for a in range(q + 1):
                for lam in partitions_in_box(a, s, quot):
                    for mu in partitions_in_box(q - a, s, w):
                        for nu, c in lr_product(lam, mu).items():
                            if nu.length() <= s:
                                yield XiSummand(nu, lam.conjugate(), mu.conjugate(), c)

        for n in range(2, 7):
            for d in range(1, n):
                for s in range(1, d + 1):
                    ctx = GrassmannianContext(s, d, n)
                    for q in range(ctx.xi_rank + 1):
                        got = Counter(xi_exterior_decomposition(ctx, q))
                        assert got == Counter(filtered(ctx, q)), (ctx, q)

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            xi_exterior_decomposition(GrassmannianContext(1, 2, 4), -1)


class TestVanishingPreTests:
    # every 1 <= s <= d < n <= 8
    CONTEXTS = list(small_contexts(max_d=7, max_n=8))

    def test_filtered_routes_equal_the_unfiltered_oracles(self):
        for ctx in self.CONTEXTS:
            for q in range(ctx.xi_rank + 1):
                assert cohomology_table(ctx, q) == cohomology_table_unfiltered(ctx, q), (ctx, q)
            assert hilbert_series_normalization(ctx) == (
                hilbert_series_normalization_unfiltered(ctx)
            ), ctx

    @staticmethod
    def assert_pre_tests_agree(ctx, pairs, seen):
        # Bott and the Weyl product say the same of every (Q*-partition,
        # R-partition) pair: the cohomology vanishes where the Euler
        # characteristic does; and the partition route, which enters the
        # dotted Weyl step without bott()'s checks, gives bott()'s degree
        # and weight
        for qstar, nu in pairs:
            res = cohomology_of_summand(nu, qstar, ctx)
            alpha = dual_weight(qstar.pad(ctx.rank_quot))
            assert res == bott(alpha, nu.pad(ctx.rank_sub), ctx), (ctx, qstar, nu)
            weight = alpha + nu.pad(ctx.rank_sub)
            assert res.is_zero == (weyl_euler_characteristic(weight, ctx.d) == 0), (ctx, qstar, nu)
            seen[res.is_zero] += 1

    def test_pre_tests_agree_on_every_candidate(self):
        # the pairs (lam', nu) the sweep puts to its vanishing test
        seen = Counter()
        for ctx in self.CONTEXTS:
            s, quot, w = ctx.rank_sub, ctx.rank_quot, ctx.dim_w
            pairs = {
                (lam.conjugate(), nu)
                for a in range(s * quot + 1)
                for lam in partitions_in_box(a, s, quot)
                for b in range(s * w + 1)
                for nu in schur.lr_shapes(lam, b, s, w)
            }
            self.assert_pre_tests_agree(ctx, pairs, seen)
        assert seen[True] > 1000 and seen[False] > 1000, seen

    def test_pre_tests_agree_off_the_sweep(self):
        # every pair of partitions in a box, including the nu too short to
        # contain the conjugate of lam', which the sweep never produces: a
        # zero row of nu can then repeat a shifted Q-entry
        seen = Counter()
        for ctx in small_contexts(max_d=4, max_n=5):
            s, quot = ctx.rank_sub, ctx.rank_quot
            pairs = [
                (qstar, nu)
                for a in range(quot * 4 + 1)
                for qstar in partitions_in_box(a, quot, 4)
                for b in range(s * 4 + 1)
                for nu in partitions_in_box(b, s, 4)
            ]
            self.assert_pre_tests_agree(ctx, pairs, seen)
        assert seen[True] > 200 and seen[False] > 800, seen


class TestCohomologyTable:
    def test_one_bott_call_per_pair_and_no_lr_read_where_it_vanishes(self, monkeypatch):
        # Bott runs once on each (lam', nu) the sweep lists, nu from
        # lr_shapes(lam, b, s, n - d) for b = q - |lam| <= s(n - d), and LR
        # reads only the pairs it keeps, each mu within the content-prefix
        # bound
        bott_calls, lr_reads = [], []
        bott, count = geometric.cohomology_of_summand, schur.lr_coefficient

        def counting_bott(nu, qstar, ctx):
            bott_calls.append((qstar, nu))
            return bott(nu, qstar, ctx)

        def counting_lr(lam, mu, nu):
            lr_reads.append((lam, mu, nu))
            return count(lam, mu, nu)

        monkeypatch.setattr(geometric, "cohomology_of_summand", counting_bott)
        monkeypatch.setattr(schur, "lr_coefficient", counting_lr)
        killed = 0
        for ctx in small_contexts(max_d=5, max_n=7):
            s, quot, w = ctx.rank_sub, ctx.rank_quot, ctx.dim_w
            for q in range(ctx.xi_rank + 1):
                bott_calls.clear()
                lr_reads.clear()
                cohomology_table(ctx, q)
                listed = [
                    (lam.conjugate(), nu)
                    for a in range(max(q - s * w, 0), min(q, s * quot) + 1)
                    for lam in partitions_in_box(a, s, quot)
                    for nu in schur.lr_shapes(lam, q - a, s, w)
                ]
                assert sorted(bott_calls) == sorted(listed), (ctx, q)
                dead = {pair for pair in listed if bott(pair[1], pair[0], ctx).is_zero}
                killed += len(dead)
                for lam, mu, nu in lr_reads:
                    assert (lam.conjugate(), nu) not in dead, (ctx, q, lam, mu, nu)
                    skew = [sum(nu[: r + 1]) - sum(lam[: r + 1]) for r in range(len(nu))]
                    assert all(k <= sum(mu[: r + 1]) for r, k in enumerate(skew)), (ctx, lam, mu, nu)
        assert killed > 400, killed

    def test_frozen_q1_table(self):
        ctx = GrassmannianContext(2, 3, 8)
        table = cohomology_table(ctx, 1)
        assert set(table) == {1}
        assert dict(table[1]) == {(Partition(()), Partition(())): 1}

    def test_s1_degrees_split(self):
        # For s=1 the classes split two ways: the pure dual-quotient strand
        # sits on the diagonal j = q (these are the F_0 twists A(-q),
        # q = 0..d-1), and everything else sits in the top degree d-1.
        # For d = 2 this collapses to the literal "0 or d-1" split.
        for d in (2, 3, 4):
            for n in range(d + 1, d + 4):
                ctx = GrassmannianContext(1, d, n)
                diagonal = 0
                for q in range(ctx.xi_rank + 1):
                    for j, counter in cohomology_table(ctx, q).items():
                        assert j == q or j == d - 1, (ctx, q, j)
                        if j == q:
                            diagonal += sum(counter.values())
                        if d == 2:
                            assert j in (0, d - 1)
                # exactly one diagonal class per twist of F_0
                assert diagonal == d


class TestBettiTable:
    def table(self, *entries, ctx=GrassmannianContext(1, 2, 4)):
        t = BettiTable(ctx)
        for entry in entries:
            t.add(*entry)
        return t

    def make(self):
        return self.table((0, 0, (), ()), (1, 2, (1, 1), (1, 1)), (1, 2, (1,), (1,), 2))

    def test_add_and_multiplicity(self):
        t = self.make()
        assert t.multiplicity(1, 2, (1,), (1,)) == 2
        assert t.multiplicity(1, 2, (2,), (1,)) == 0
        assert t.multiplicity(5, 5, (), ()) == 0
        with pytest.raises(ValueError):
            t.add(0, 0, (), (), 0)

    def test_add_rejects_non_integer_multiplicities(self):
        t = BettiTable(GrassmannianContext(1, 2, 4))
        for add in (t.add, t.add_nonzero):
            for mult in (1.5, 2.0, "1"):
                with pytest.raises(TypeError):
                    add(0, 0, (), (), mult)
        assert len(t) == 0

    def test_add_nonzero_prunes(self):
        t = BettiTable(GrassmannianContext(1, 2, 4))
        t.add_nonzero(0, 0, (1, 1, 1), (1,))  # 3 rows > d = 2: dropped
        t.add_nonzero(0, 0, (1,), (1, 1, 1))  # 3 rows > n-d = 2: dropped
        assert t == BettiTable(t.ctx)
        t.add_nonzero(0, 0, (1, 1), (1, 1))
        assert t != BettiTable(t.ctx)

    def test_add_rejects_rank_zero_labels(self):
        # add raises where add_nonzero drops: more than d = 2 rows for lam,
        # more than dim W = 2 rows for mu
        t = BettiTable(GrassmannianContext(1, 2, 4))
        with pytest.raises(ValueError):
            t.add(0, 0, (1, 1, 1), ())
        with pytest.raises(ValueError):
            t.add(0, 0, (), (1, 1, 1))
        t.add_nonzero(0, 0, (1, 1, 1), ())
        t.add_nonzero(0, 0, (), (1, 1, 1))
        assert len(t) == 0

    def test_difference_needs_containment_and_one_ring(self):
        t = self.make()
        rest = t - self.table((1, 2, (1,), (1,), 2))
        assert list(rest.entries()) == [(0, 0, (), (), 1), (1, 2, (1, 1), (1, 1), 1)]
        assert rest.ctx == t.ctx and t == self.make()  # the operands are untouched
        with pytest.raises(ValueError, match=r"cannot remove 1 x .* at \(i=1, e=2\); have 0"):
            rest - self.table((1, 2, (1,), (1,)))
        with pytest.raises(ValueError, match=r"cannot remove 2 x .* at \(i=0, e=0\); have 1"):
            t - self.table((0, 0, (), (), 2))
        # over another (d, n) even an entry the table holds is refused; s is
        # not part of the ring
        other = self.table((0, 0, (), ()), ctx=GrassmannianContext(1, 2, 5))
        with pytest.raises(ValueError, match="different polynomial rings"):
            t - other
        assert t - BettiTable(GrassmannianContext(2, 2, 4)) == t

    def test_entries_sorted_deterministic(self):
        t = self.make()
        entries = list(t.entries())
        assert entries == [
            (0, 0, (), (), 1),
            (1, 2, (1, 1), (1, 1), 1),
            (1, 2, (1,), (1,), 2),
        ]

    def test_entries_order_groups_then_pairs_descending(self):
        # three (i, e) groups of several pairs each, degrees not monotone
        # in i, added out of order: entries() sorts by (i, e) ascending,
        # then by (lam, mu) descending inside each group
        t = BettiTable(GrassmannianContext(2, 4, 8))
        t.add(2, 2, (1,), (2,))
        t.add(0, 3, (1, 1), ())
        t.add(1, 1, (), (1,))
        t.add(0, 3, (2,), (1,), 3)
        t.add(2, 2, (2, 1), (1, 1))
        t.add(1, 1, (1,), (1,))
        t.add(2, 2, (1,), (1, 1))
        t.add(0, 3, (1, 1), (1,))
        t.add(1, 1, (1,), ())
        assert list(t.entries()) == [
            (0, 3, (2,), (1,), 3),
            (0, 3, (1, 1), (1,), 1),
            (0, 3, (1, 1), (), 1),
            (1, 1, (1,), (1,), 1),
            (1, 1, (1,), (), 1),
            (1, 1, (), (1,), 1),
            (2, 2, (2, 1), (1, 1), 1),
            (2, 2, (1,), (2,), 1),
            (2, 2, (1,), (1, 1), 1),
        ]

    def test_diff_text_across_two_groups(self):
        ctx = GrassmannianContext(2, 4, 8)
        a, b = BettiTable(ctx), BettiTable(ctx)
        a.add(0, 3, (1,), (1,))
        a.add(2, 2, (2, 1), ())
        b.add(2, 2, (2, 1), (), 2)
        b.add(0, 3, (1,), (2,))
        assert a.diff(b) == (
            "(i=0, e=3) (Partition([1]), Partition([2])): 0 vs 1\n"
            "(i=0, e=3) (Partition([1]), Partition([1])): 1 vs 0\n"
            "(i=2, e=2) (Partition([2, 1]), Partition([])): 1 vs 2"
        )

    def test_len_counts_distinct_entries(self):
        t = self.make()
        assert len(t) == 3  # the multiplicity-2 entry counts once
        t.add(1, 2, (1,), (1,))
        assert len(t) == 3
        assert len(t - self.table((0, 0, (), ()))) == 2
        assert len(BettiTable(t.ctx)) == 0

    def test_equality_compares_the_ring(self):
        # the same labels over different (d, n) have different ranks
        a = BettiTable(GrassmannianContext(1, 2, 4))
        b = BettiTable(GrassmannianContext(2, 3, 9))
        a.add(0, 0, (), ())
        b.add(0, 0, (), ())
        assert a != b
        assert a.to_json_obj()["context"] != b.to_json_obj()["context"]
        # s is not part of the ring: it only says which module was resolved
        c = BettiTable(GrassmannianContext(2, 2, 4))
        c.add(0, 0, (), ())
        assert a == c

    def test_intersection_takes_the_smaller_multiplicity(self):
        a = self.make()
        b = BettiTable(GrassmannianContext(2, 2, 4))
        b.add(1, 2, (1,), (1,))
        b.add(1, 3, (1, 1), (1, 1))
        b.add(0, 0, (), (), 3)
        both = a & b
        assert list(both.entries()) == [(0, 0, (), (), 1), (1, 2, (1,), (1,), 1)]
        assert both == b & a
        assert both.ctx == a.ctx  # the left table's context
        assert a == self.make() and len(b) == 3  # operands untouched
        with pytest.raises(ValueError, match="different polynomial rings"):
            a & BettiTable(GrassmannianContext(1, 2, 5))

    def test_rank_and_indices(self):
        t = self.make()
        # entry ranks over (d, n-d) = (2, 2)
        assert t.rank(0) == 1
        assert t.rank(1) == 1 * 1 + 2 * (2 * 2)
        assert t.rank(1, 2) == t.rank(1)
        assert t.rank(1, 3) == 0
        assert t.homological_indices() == [0, 1]
        assert t.degrees(1) == [2]
        assert t.proj_dim() == 1
        assert t.regularity() == 1

    def test_empty_table_errors(self):
        t = BettiTable(GrassmannianContext(1, 2, 4))
        with pytest.raises(ValueError):
            t.proj_dim()
        with pytest.raises(ValueError):
            t.regularity()

    def test_twist_and_shift(self):
        t = self.make()
        tw = t.twist(3)
        assert tw.multiplicity(1, 5, (1,), (1,)) == 2
        assert t.multiplicity(1, 2, (1,), (1,)) == 2  # original untouched
        re = t.restrict_index(0)
        assert re.homological_indices() == [0]

    def test_equality_and_diff(self):
        a, b = self.make(), self.make()
        assert a == b and not (a != b)
        b = b - self.table((1, 2, (1,), (1,)))
        assert a != b
        assert "(i=1, e=2)" in a.diff(b)
        assert a.diff(a) == "(equal)"

    def test_json_round_trip(self):
        t = self.make()
        obj = t.to_json_obj()
        assert obj["context"] == {"s": 1, "d": 2, "n": 4}
        # entries carry rank = mult * dim(lam) * dim(mu)
        by_key = {
            (e["i"], e["degree"], tuple(e["lambdaL"]), tuple(e["muW"])): e
            for e in obj["entries"]
        }
        assert by_key[(1, 2, (1,), (1,))]["mult"] == 2
        assert by_key[(1, 2, (1,), (1,))]["rank"] == 8

    def test_render_smoke(self):
        text = self.make().render()
        assert "(1^2; 1^2)" in text
        assert "(0; 0)" in text


class TestHilbertSeries:
    def test_arithmetic(self):
        a = HilbertSeries((1, -2), 4)
        b = HilbertSeries((0, 2), 4)
        assert (a + b).coeffs == (1,)
        assert (a - a).is_zero
        assert (-a).coeffs == (-1, 2)
        with pytest.raises(ValueError):
            a + HilbertSeries((1,), 5)

    def test_strips_trailing_zeros(self):
        assert HilbertSeries((1, 0, 0), 2).coeffs == (1,)
        assert HilbertSeries((0, 0), 2).is_zero

    def test_shift(self):
        assert HilbertSeries((1, 1), 3).shift(2).coeffs == (0, 0, 1, 1)
        with pytest.raises(ValueError):
            HilbertSeries((1,), 3).shift(-1)

    def test_coefficient_expansion(self):
        # 1 / (1-t)^D expands with simplex coefficients
        for dd in (1, 2, 5):
            one = HilbertSeries((1,), dd)
            for k in range(6):
                assert one.coefficient(k) == comb(dd - 1 + k, dd - 1)
        # numerator shifts and signs
        h = HilbertSeries((1, 0, -1), 3)  # (1 - t^2) / (1-t)^3
        for k in range(1, 6):
            assert h.coefficient(k) == comb(k + 2, 2) - comb(k, 2)
        assert h.coefficient(-1) == 0

    def test_denominator_zero(self):
        h = HilbertSeries((3, 0, 7), 0)
        assert h.coefficient(0) == 3
        assert h.coefficient(1) == 0
        assert h.coefficient(2) == 7

    def test_str(self):
        assert str(HilbertSeries((), 9)) == "0"
        text = str(HilbertSeries((1, -2, 1), 4))
        assert text == "(1 - 2*t^1 + t^2) / (1-t)^4"


class TestResolutionEngine:
    def test_indices_start_at_zero(self):
        # spec property: F_i = 0 for i < 0; the sweep asserts i >= 0
        # internally, and index 0 is always populated
        for ctx in small_contexts(max_d=3, max_n=7):
            table = resolution_terms(ctx)
            assert table.homological_indices()[0] == 0

    def test_hilbert_series_routes_agree(self):
        # spec property: assembled-table route == Euler characteristic route
        for ctx in small_contexts(max_d=4, max_n=8):
            assert hilbert_series(resolution_terms(ctx)) == (
                hilbert_series_normalization(ctx)
            ), ctx

    def test_reaches_no_check_of_bott(self, monkeypatch):
        # the sweep's pairs are partitions already checked where they were
        # made, so the table route enters the dotted Weyl step directly
        contexts = list(small_contexts(max_d=6, max_n=7))
        expected = [resolution_terms(ctx) for ctx in contexts]

        def refuse(*args, **kwargs):
            raise RuntimeError("the table route called bott()")

        monkeypatch.setattr(BOTT, "bott", refuse)
        for ctx, table in zip(contexts, expected):
            got = resolution_terms(ctx)
            assert got == table, (ctx, got.diff(table))

    def test_xi_summands_without_qstar_are_wedges_of_r_w(self):
        # the summands with no Q* factor are the wedge powers of R(x)W
        ctx = GrassmannianContext(2, 3, 6)
        for q in range(ctx.xi_rank + 1):
            got = sum(
                s.rank(ctx)
                for s in xi_exterior_decomposition(ctx, q)
                if sum(s.mu_qstar) == 0
            )
            assert got == comb(ctx.rank_sub * ctx.dim_w, q)

    def test_hilbert_series_rejects_negative_degree(self):
        t = BettiTable(GrassmannianContext(1, 2, 4))
        t.add(0, -1, (), ())
        with pytest.raises(ValueError):
            hilbert_series(t)


class TestEulerRoute:
    # s = d (no Q*), n = d + 1 (W a line), and three with Q* and a W of rank 3
    CONTEXTS = [GrassmannianContext(*c) for c in [(3, 3, 5), (2, 4, 5), (2, 3, 6), (3, 5, 8), (4, 6, 9)]]

    def test_reaches_no_lr_bott_hook_or_sweep_step(self, monkeypatch):
        # every LR, Bott, hook-content and sweep function raises, and the
        # route still gives the table route's series
        expected = {ctx: hilbert_series(resolution_terms(ctx)) for ctx in self.CONTEXTS}

        def refuse(*args, **kwargs):
            raise RuntimeError("the Euler route reached a step of the table route")

        for owner, name in [
            (schur, "lr_coefficient"),
            (schur, "lr_product"),
            (schur, "lr_skew"),
            (schur, "lr_shapes"),
            (schur, "lr_bound"),
            (geometric, "xi_exterior_decomposition"),
            (geometric, "cohomology_of_summand"),
            (geometric, "schur_rank"),
            (BOTT, "bott"),
            (BOTT, "cohomology_of_summand"),
        ]:
            monkeypatch.setattr(owner, name, refuse)
        for ctx in self.CONTEXTS:
            assert hilbert_series_normalization(ctx) == expected[ctx], ctx

    def test_holds_no_state_between_calls(self, monkeypatch):
        # a series computed under a patched determinant must not outlive the
        # patch, and one computed before it must not hide the patch
        ctx = GrassmannianContext(2, 3, 5)
        expected = hilbert_series(resolution_terms(ctx))
        monkeypatch.setattr(geometric, "_det", lambda *args: 0)
        assert hilbert_series_normalization(ctx) != expected
        monkeypatch.undo()
        assert hilbert_series_normalization(ctx) == expected

    def test_one_determinant_per_partition(self, monkeypatch):
        # the sum over mu is one Laplace expansion, so each lam in the
        # s x (n - s) box, C(n, s) of them, costs one d x d determinant
        sizes = []

        def counting(matrix):
            sizes.append(len(matrix))
            return _det(matrix)

        monkeypatch.setattr(geometric, "_det", counting)
        for ctx in self.CONTEXTS:
            sizes.clear()
            hilbert_series_normalization(ctx)
            assert sizes == [ctx.d] * comb(ctx.n, ctx.rank_sub), ctx

    def test_an_inexact_division_raises(self, monkeypatch):
        # at (2, 3, 5) lam = () has r = (1, 0), V(r) = 1 and D = 2, so a
        # determinant of 1 leaves a remainder
        monkeypatch.setattr(geometric, "_det", lambda matrix: 1)
        with pytest.raises(RuntimeError, match="not an integer"):
            hilbert_series_normalization(GrassmannianContext(2, 3, 5))

    def test_determinant_equals_leibniz(self):
        # half the trials draw entries up to 10^12 in magnitude, the size of
        # the route's Weyl-product rows
        rng = random.Random(0)
        seen = Counter()
        for size in range(7):
            for trial in range(40 if size < 6 else 12):
                bound = 10**12 if trial % 8 >= 4 else 4
                a = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
                if size and trial % 4 == 1:
                    a[0][0] = 0  # a zero leading pivot: the elimination swaps rows
                if size > 1 and trial % 4 == 2:
                    a[-1] = [x - 2 * y for x, y in zip(a[0], a[1])]  # singular
                if size and trial % 4 == 3:
                    for row in a:
                        row[0] = 0  # no pivot in the first column
                frozen = [row[:] for row in a]
                det = _det(a)
                assert det == leibniz_det(a), a
                assert a == frozen  # the matrix is left as it is
                seen["zero" if det == 0 else "nonzero"] += 1
        assert seen["zero"] > 60 and seen["nonzero"] > 60, seen


class TestWeylEuler:
    def test_frozen_values(self):
        assert weyl_euler_characteristic((0, 0, 0), 3) == 1
        assert weyl_euler_characteristic((1, 0), 2) == 2
        assert weyl_euler_characteristic((0, 1), 2) == 0  # collision
        assert weyl_euler_characteristic((0, 2), 2) == -1  # one inversion, det
        assert weyl_euler_characteristic((5,), 1) == 1

    def test_length_validation(self):
        with pytest.raises(ValueError):
            weyl_euler_characteristic((1, 0), 3)
