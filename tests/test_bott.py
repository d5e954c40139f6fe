from itertools import product as iproduct

import pytest

from kalmanres.bott import (
    CohomologyResult,
    GrassmannianContext,
    bott,
    cohomology_of_summand,
)
from kalmanres.partitions import (
    Partition,
    dual_weight,
    is_weakly_decreasing,
    partitions_of,
    schur_rank,
)

from property_checks import kempf_h0, weight_rank, weyl_euler_characteristic

def decreasing_tuples(length, lo, hi):
    """All weakly decreasing integer tuples of the given length with entries
    in [lo, hi]."""
    if length == 0:
        yield ()
        return
    for first in range(hi, lo - 1, -1):
        for rest in decreasing_tuples(length - 1, lo, first):
            yield (first,) + rest


def all_partitions_up_to(total, max_len=None):
    for q in range(total + 1):
        for lam in partitions_of(q):
            if max_len is None or lam.length() <= max_len:
                yield lam


class TestContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrassmannianContext(0, 2, 4)
        with pytest.raises(ValueError):
            GrassmannianContext(3, 2, 4)
        with pytest.raises(ValueError):
            GrassmannianContext(2, 4, 4)

    def test_derived_quantities(self):
        ctx = GrassmannianContext(2, 3, 8)
        assert ctx.rank_sub == 2
        assert ctx.rank_quot == 1
        assert ctx.dim_w == 5
        assert ctx.xi_rank == 2 * 1 + 2 * 5

    def test_point_grassmannian(self):
        ctx = GrassmannianContext(3, 3, 5)
        assert ctx.rank_quot == 0


class TestBott:
    def test_dominant_weight_gives_h0(self):
        # spec property: already weakly decreasing -> (0, nu)
        for d in (2, 3, 4):
            for s in range(1, d + 1):
                ctx = GrassmannianContext(s, d, d + 2)
                for alpha in decreasing_tuples(d - s, -2, 2):
                    for beta in decreasing_tuples(s, -2, 2):
                        nu = alpha + beta
                        if not is_weakly_decreasing(nu):
                            continue
                        res = bott(alpha, beta, ctx)
                        assert res.degree == 0
                        assert res.weight == nu

    def test_single_degree_bounded_by_dimension(self):
        # CohomologyResult carries one degree by construction; check j <= dim
        for (s, d) in [(1, 2), (1, 3), (2, 3), (2, 4)]:
            ctx = GrassmannianContext(s, d, d + 2)
            for alpha in decreasing_tuples(d - s, -3, 3):
                for beta in decreasing_tuples(s, -3, 3):
                    res = bott(alpha, beta, ctx)
                    if not res.is_zero:
                        assert 0 <= res.degree <= s * (d - s)
                        assert is_weakly_decreasing(res.weight)

    def test_repeat_vanishes(self):
        ctx = GrassmannianContext(1, 2, 4)
        # nu + rho = (1, 1): dead
        assert bott((0,), (1,), ctx).is_zero
        # nu + rho = (1, 2): one inversion
        res = bott((0,), (2,), ctx)
        assert res.degree == 1
        assert res.weight == (1, 1)

    def test_weight_length_validation(self):
        ctx = GrassmannianContext(1, 3, 5)
        with pytest.raises(ValueError):
            bott((1,), (1,), ctx)  # alpha must have length 2
        with pytest.raises(ValueError):
            bott((1, 2), (1,), ctx)  # not weakly decreasing

    def test_euler_characteristic_cross_check(self):
        # independent route: the signed Weyl product must equal
        # (-1)^degree * rank for every weight, and 0 exactly on collisions
        for (s, d) in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]:
            ctx = GrassmannianContext(s, d, d + 1)
            for alpha in decreasing_tuples(d - s, -3, 3):
                for beta in decreasing_tuples(s, -3, 3):
                    chi = weyl_euler_characteristic(alpha + beta, d)
                    res = bott(alpha, beta, ctx)
                    if res.is_zero:
                        assert chi == 0
                    else:
                        sign = -1 if res.degree % 2 else 1
                        assert chi == sign * weight_rank(res.weight, d)

    def test_serre_duality_rank_spot_check(self):
        # H^j of the bundle vs H^{dim-j} of its Serre dual, both through
        # bott; requires at least 20 exercised top-degree cases
        top_cases = 0
        for (s, d) in [(1, 2), (1, 3), (2, 3)]:
            ctx = GrassmannianContext(s, d, d + 1)
            r = d - s
            for alpha in decreasing_tuples(r, -3, 3):
                for beta in decreasing_tuples(s, -3, 3):
                    res = bott(alpha, beta, ctx)
                    # canonical bundle: (det Q)^{-s} (x) (det R)^{d-s}
                    alpha_dual = tuple(x - s for x in dual_weight(alpha))
                    beta_dual = tuple(x + r for x in dual_weight(beta))
                    dual_res = bott(alpha_dual, beta_dual, ctx)
                    if res.is_zero:
                        assert dual_res.is_zero
                        continue
                    assert dual_res.degree == s * (d - s) - res.degree
                    assert weight_rank(res.weight, d) == weight_rank(
                        dual_res.weight, d
                    )
                    if res.degree == s * (d - s):
                        top_cases += 1
        assert top_cases >= 20


class TestKempf:
    def test_agreement_with_bott(self):
        # spec property: partition pairs over s <= d <= 4, |alpha|+|beta| <= 6
        for d in range(2, 5):
            for s in range(1, d + 1):
                ctx = GrassmannianContext(s, d, d + 1)
                for alpha in all_partitions_up_to(6, max_len=s):
                    for beta in all_partitions_up_to(6 - sum(alpha), max_len=d - s):
                        sections = kempf_h0(alpha, beta, ctx)
                        res = bott(
                            dual_weight(beta.pad(d - s)),
                            dual_weight(alpha.pad(s)),
                            ctx,
                        )
                        if alpha.part(s - 1) >= beta.part(0):
                            concat = Partition(alpha.pad(s) + tuple(beta))
                            assert sections == concat
                            assert res.degree == 0
                            assert Partition(dual_weight(res.weight)) == concat
                            # hook content on the concatenation gives the rank
                            assert weight_rank(res.weight, d) == schur_rank(
                                concat, d
                            )
                        else:
                            assert sections is None
                            assert res.degree != 0  # no sections at all

    def test_rejects_overlong_weights(self):
        ctx = GrassmannianContext(2, 3, 5)
        with pytest.raises(ValueError):
            kempf_h0(Partition((1, 1, 1)), Partition(()), ctx)
        with pytest.raises(ValueError):
            kempf_h0(Partition(()), Partition((1, 1)), ctx)


class TestSummandCohomology:
    def test_frozen_summands(self):
        ctx = GrassmannianContext(2, 3, 8)
        # S_(1) R (x) S_(1) Q*: lands in H^1 as the trivial L-module
        res = cohomology_of_summand(Partition((1,)), Partition((1,)), ctx)
        assert res.degree == 1
        assert res.weight == (0, 0, 0)
        # S_(1) R alone: nu + rho has a repeat
        res = cohomology_of_summand(Partition((1,)), Partition(()), ctx)
        assert res.is_zero
        # trivial summand: H^0
        res = cohomology_of_summand(Partition(()), Partition(()), ctx)
        assert res.degree == 0
        assert res.weight == (0, 0, 0)

    def test_rejects_overlong(self):
        ctx = GrassmannianContext(2, 3, 8)
        with pytest.raises(ValueError):
            cohomology_of_summand(Partition((1, 1, 1)), Partition(()), ctx)
        with pytest.raises(ValueError):
            cohomology_of_summand(Partition(()), Partition((1, 1)), ctx)

    def test_zero_result_contract(self):
        z = CohomologyResult.zero()
        assert z.is_zero
        assert z.degree is None and z.weight is None
