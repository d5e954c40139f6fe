from functools import lru_cache
from itertools import product
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalmanres import cli, resolutions
from kalmanres.bott import GrassmannianContext
from kalmanres.geometric import (
    BettiTable,
    HilbertSeries,
    hilbert_series,
    hilbert_series_normalization,
    resolution_terms,
)
from kalmanres.partitions import Partition
from kalmanres.resolutions import (
    CancellationError,
    ConjectureReport,
    cone_table_d2,
    conjecture_consistency,
    intermediate_table_d3,
    kalman_cone_d3,
    kalman_equations_d3,
    kalman_table_d2,
    koszul_table,
    mapping_cone,
    predicted_hilbert_series,
    table_corank1,
    table_s1,
    table_s2_d3,
    table_w_line,
)
from property_checks import (
    d2_cancellations,
    d3_stage1_cancellations,
    d3_stage2_cancellations,
    koszul_table_filtered,
    replayed_w_line_prediction,
)


def _at(table, i, e):
    """The (lam, mu) -> multiplicity entries of a table at (i, e)."""
    return {(lam, mu): m for j, f, lam, mu, m in table.entries() if (j, f) == (i, e)}


@lru_cache(maxsize=None)
def cone_inputs(cone, n):
    """The (ambient, quotient, spec) triples that cone(n) passes to
    mapping_cone, in call order."""
    with mock.patch.object(resolutions, "mapping_cone", wraps=mapping_cone) as spy:
        cone(n)
    return [call.args for call in spy.call_args_list]


def specs(cone, n):
    """The cancellation specs that cone(n) passes to mapping_cone."""
    return [spec for _, _, spec in cone_inputs(cone, n)]


SHIPPED_CONES = [(cone_table_d2, n) for n in range(3, 9)] + [(kalman_cone_d3, n) for n in range(4, 9)]


@st.composite
def sub_specs(draw):
    """(ambient, quotient, spec): one stage of a shipped cone at n <= 6 and
    a sub-multiset of everything its two tables share."""
    cone, n = draw(st.sampled_from([(cone, n) for cone, n in SHIPPED_CONES if n <= 6]))
    ambient, quotient, _ = draw(st.sampled_from(cone_inputs(cone, n)))
    spec = BettiTable(ambient.ctx)
    for i, e, lam, mu, mult in (ambient & quotient).entries():
        keep = draw(st.integers(0, mult))
        if keep:
            spec.add(i, e, lam, mu, keep)
    return ambient, quotient, spec


class TestCancellationSpec:
    def test_d2_spec_content(self):
        [spec] = specs(cone_table_d2, 5)
        entries = list(spec.entries())
        assert [(i, e) for i, e, _, _, _ in entries] == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert entries[3][2] == (3,) and entries[3][3] == (1, 1, 1)

    def test_d3_specs_prune_with_n(self):
        # at n=4 the complement space is a line; multi-row W-labels drop out
        [full] = specs(intermediate_table_d3, 8)
        [small] = specs(intermediate_table_d3, 4)
        assert len(full) == 6
        assert len(small) < len(full)
        assert all(mu.length() <= 1 for _, _, _, mu, _ in small.entries())
        assert len(specs(kalman_cone_d3, 8)[1]) == 6

    def test_derived_specs_equal_the_hand_lists(self):
        for n in range(3, 16):
            assert specs(cone_table_d2, n) == [d2_cancellations(n)], n
        for n in range(4, 15):
            stages = [d3_stage1_cancellations(n), d3_stage2_cancellations(n)]
            assert specs(kalman_cone_d3, n) == stages, n

    def test_the_d3_index_bounds_matter(self):
        # without its bound, each stage also cancels one summand above it
        ambient = resolution_terms(GrassmannianContext(2, 3, 5))
        quotient = koszul_table([((), (), 2)], GrassmannianContext(3, 3, 5))
        shared = ambient & quotient
        assert [e[:4] for e in shared.entries() if e[0] > 3] == [(4, 6, (2, 2), (2, 2))]
        assert mapping_cone(ambient, quotient, shared) != intermediate_table_d3(5)

        ambient = resolution_terms(GrassmannianContext(1, 3, 6))
        quotient = intermediate_table_d3(6).twist(1)
        shared = ambient & quotient
        assert [e[:4] for e in shared.entries() if e[0] > 2] == [(3, 5, (3,), (1, 1, 1))]
        assert mapping_cone(ambient, quotient, shared) != kalman_cone_d3(6)


KOSZUL_CONTEXTS = [(1, 3), (2, 4), (2, 6), (3, 5), (3, 6), (4, 6)]


class TestKoszul:
    def test_single_strand_ranks(self):
        ctx = GrassmannianContext(2, 2, 5)
        table = koszul_table([((), (), 1)], ctx)
        dw = ctx.d * ctx.dim_w
        for i in range(dw + 1):
            assert table.rank(i) == comb(dw, i)
            assert table.degrees(i) == [i + 1]
        assert table.proj_dim() == dw

    def test_i0_is_single_twist(self):
        ctx = GrassmannianContext(3, 3, 6)
        table = koszul_table([((), (), 4)], ctx)
        assert list(_at(table, 0, 4).items()) == [((Partition(()), Partition(())), 1)]

    def test_two_strands(self):
        ctx = GrassmannianContext(2, 2, 5)
        table = koszul_table([((), (), 0), ((), (), 1)], ctx)
        dw = ctx.d * ctx.dim_w
        for i in range(dw + 1):
            assert table.rank(i) == 2 * comb(dw, i)
            assert table.degrees(i) == [i, i + 1]

    def test_row_bounded_products_equal_the_filtered_oracle(self):
        # the unbounded products of these generators hold 581 labels of more
        # than d resp. dim W rows over these contexts, so the bound is used
        gens = [((1, 1), (2,), 0), ((2, 1), (1, 1), 1)]
        for d, n in KOSZUL_CONTEXTS + [(2, 5)]:
            ctx = GrassmannianContext(d, d, n)
            for generators in (gens, [((), (), 1)]):
                assert koszul_table(generators, ctx) == koszul_table_filtered(generators, ctx)

    def test_engine_gives_koszul_at_s_equals_d(self):
        # the degenerate Grassmannian is a point; the normalization table
        # must collapse to the Koszul complex on the linear block, which the
        # oracle expands by Cauchy, with no Bott sweep
        for d, n in KOSZUL_CONTEXTS:
            ctx = GrassmannianContext(d, d, n)
            assert resolution_terms(ctx) == koszul_table_filtered([((), (), 0)], ctx)


class TestMappingCone:
    def toy_tables(self):
        ctx = GrassmannianContext(1, 2, 4)
        ambient = BettiTable(ctx)
        ambient.add(0, 0, (), ())
        ambient.add(0, 1, (), ())
        ambient.add(1, 2, (1, 1), (1, 1))
        quotient = BettiTable(GrassmannianContext(2, 2, 4))
        quotient.add(0, 1, (), ())
        quotient.add(1, 2, (1,), (1,))
        return ambient, quotient

    def matched(self, *entries):
        spec = BettiTable(GrassmannianContext(1, 2, 4))
        for entry in entries:
            spec.add(*entry)
        return spec

    def test_empty_spec_shifts_quotient(self):
        ambient, quotient = self.toy_tables()
        out = mapping_cone(ambient, quotient, self.matched())
        assert out.multiplicity(-1, 1, (), ()) == 1  # quotient_0 leftover
        assert out.multiplicity(0, 2, (1,), (1,)) == 1
        assert out.multiplicity(0, 0, (), ()) == 1
        assert out.multiplicity(1, 2, (1, 1), (1, 1)) == 1

    def test_cancellation_removes_from_both(self):
        ambient, quotient = self.toy_tables()
        out = mapping_cone(ambient, quotient, self.matched((0, 1, (), ())))
        assert out.multiplicity(-1, 1, (), ()) == 0
        assert out.multiplicity(0, 1, (), ()) == 0
        assert out.multiplicity(0, 0, (), ()) == 1

    def test_missing_pair_is_an_error(self):
        ambient, quotient = self.toy_tables()
        with pytest.raises(CancellationError, match="quotient table has 0"):
            mapping_cone(ambient, quotient, self.matched((1, 2, (1, 1), (1, 1))))
        with pytest.raises(CancellationError, match="ambient table has 0"):
            mapping_cone(ambient, quotient, self.matched((1, 2, (1,), (1,))))

    def test_matched_multiplicity_two(self):
        ambient, quotient = self.toy_tables()
        ambient.add(1, 2, (1,), (1,), 2)
        quotient.add(1, 2, (1,), (1,), 2)
        out = mapping_cone(ambient, quotient, self.matched((1, 2, (1,), (1,), 2)))
        assert out.multiplicity(1, 2, (1,), (1,)) == 0
        assert out.multiplicity(0, 2, (1,), (1,)) == 1  # the third quotient copy
        assert out.multiplicity(1, 2, (1, 1), (1, 1)) == 1
        # the inputs are left as they were
        assert ambient.multiplicity(1, 2, (1,), (1,)) == 2
        assert quotient.multiplicity(1, 2, (1,), (1,)) == 3

    def test_error_text_names_the_short_table(self):
        ambient, quotient = self.toy_tables()
        spec = self.matched((1, 2, (1,), (1,), 2))
        ambient.add(1, 2, (1,), (1,))
        with pytest.raises(CancellationError) as err:
            mapping_cone(ambient, quotient, spec)
        assert str(err.value) == (
            "cannot cancel 2 x (1; 1) at (i=1, e=2): ambient table has 1"
        )
        ambient.add(1, 2, (1,), (1,))
        with pytest.raises(CancellationError) as err:
            mapping_cone(ambient, quotient, spec)
        assert str(err.value) == (
            "cannot cancel 2 x (1; 1) at (i=1, e=2): quotient table has 1"
        )

    def test_ring_mismatch_rejected(self):
        ambient, _ = self.toy_tables()
        other = BettiTable(GrassmannianContext(1, 2, 5))
        other.add(0, 0, (), ())
        with pytest.raises(ValueError):
            mapping_cone(ambient, other, self.matched())

    def test_spec_over_another_ring_rejected(self):
        # the spec's labels are in both tables, but over (d, n) = (3, 9)
        ambient, quotient = self.toy_tables()
        spec = BettiTable(GrassmannianContext(1, 3, 9))
        spec.add(0, 1, (), ())
        with pytest.raises(ValueError, match="different polynomial rings"):
            mapping_cone(ambient, quotient, spec)
        # a ring mismatch among any of the three is reported before a
        # missing entry
        spec.add(1, 2, (1,), (1,))
        with pytest.raises(ValueError, match="different polynomial rings"):
            mapping_cone(ambient, quotient, spec)
        other = BettiTable(GrassmannianContext(1, 2, 5))
        other.add(0, 1, (), ())
        with pytest.raises(ValueError, match="different polynomial rings"):
            mapping_cone(ambient, other, self.matched((1, 2, (1,), (1,))))

    @staticmethod
    def assert_series_identity(ambient, quotient, spec):
        # HS(cone) = HS(ambient) - HS(quotient): a cancelled pair adds and
        # removes the same series at adjacent indices; index -1 entries
        # flip sign, and hilbert_series handles any index
        out = mapping_cone(ambient, quotient, spec)
        assert hilbert_series(out) == hilbert_series(ambient) - hilbert_series(quotient)

    def test_hilbert_series_identity_toy(self):
        # the toy specs, then every spec the shipped cones derive: d = 2 at
        # n = 3..8 and both d = 3 stages at n = 4..8
        ambient, quotient = self.toy_tables()
        cases = [(ambient, quotient, self.matched()), (ambient, quotient, self.matched((0, 1, (), ())))]
        cases += [triple for cone, n in SHIPPED_CONES for triple in cone_inputs(cone, n)]
        for case in cases:
            self.assert_series_identity(*case)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(sub_specs())
    def test_hilbert_series_identity_sub_specs(self, case):
        self.assert_series_identity(*case)

    def test_hilbert_series_identity_shipped_specs(self):
        for n in (4, 5, 6):
            ambient = resolution_terms(GrassmannianContext(1, 2, n))
            quotient = koszul_table([((), (), 1)], GrassmannianContext(2, 2, n))
            assert hilbert_series(cone_table_d2(n)) == (
                hilbert_series(ambient) - hilbert_series(quotient)
            )
        for n in (5, 6, 7):
            ambient = resolution_terms(GrassmannianContext(2, 3, n))
            quotient = koszul_table([((), (), 2)], GrassmannianContext(3, 3, n))
            assert hilbert_series(intermediate_table_d3(n)) == (
                hilbert_series(ambient) - hilbert_series(quotient)
            )
            ambient1 = resolution_terms(GrassmannianContext(1, 3, n))
            assert hilbert_series(kalman_cone_d3(n)) == (
                hilbert_series(ambient1)
                - hilbert_series(intermediate_table_d3(n).twist(1))
            )


class TestClosedForms:
    def test_s1_matches_engine(self):
        for d, n in [(1, 3), (2, 4), (2, 5), (3, 5), (3, 6), (4, 6), (4, 8)]:
            engine = resolution_terms(GrassmannianContext(1, d, n))
            closed = table_s1(d, n)
            assert engine == closed, (d, n, engine.diff(closed))
            assert engine.regularity() == d - 1
            assert engine.proj_dim() == n - d

    def test_s1_term_structure(self):
        t = table_s1(3, 6)
        assert t.degrees(0) == [0, 1, 2]
        # every term of F_i sits in degree i + d - 1
        for i in range(1, 4):
            assert t.degrees(i) == [i + 2]

    def test_s2_d3_matches_engine(self):
        for n in (4, 5, 6, 7, 8):
            engine = resolution_terms(GrassmannianContext(2, 3, n)).restrict_index(3)
            closed = table_s2_d3(n)
            assert engine == closed, (n, engine.diff(closed))

    def test_corank1_matches_engine(self):
        for d in (2, 3, 4, 5, 6):
            n = d + 3
            engine = resolution_terms(GrassmannianContext(d - 1, d, n)).restrict_index(2)
            closed = table_corank1(d, n)
            assert engine == closed, (d, engine.diff(closed))

    def test_corank1_small_n_pruning(self):
        engine = resolution_terms(GrassmannianContext(2, 3, 4)).restrict_index(2)
        assert engine == table_corank1(3, 4)

    def test_w_line_matches_engine(self):
        for d in range(1, 6):
            for s in range(1, d + 1):
                engine = resolution_terms(GrassmannianContext(s, d, d + 1))
                closed = table_w_line(s, d)
                assert engine == closed, (s, d, engine.diff(closed))

    def test_w_line_generator_degrees(self):
        # F_0 carries one free summand per partition in an s x (d-s) box,
        # graded by partition size
        from kalmanres.partitions import partitions_in_box

        t = table_w_line(2, 4)
        counts = {e: t.rank(0, e) for e in t.degrees(0)}
        assert counts == {
            q: len(partitions_in_box(q, 2, 2)) for q in range(5)
        } == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            table_s1(0, 3)
        with pytest.raises(ValueError):
            table_s2_d3(3)
        with pytest.raises(ValueError):
            table_corank1(1, 4)
        with pytest.raises(ValueError):
            table_w_line(3, 2)


class TestCones:
    def test_no_uncancelled_quotient_generators(self):
        # mapping_cone puts quotient generators the spec leaves uncancelled
        # at index -1; the shipped specs leave none
        for n in range(4, 11):
            for cone in (cone_table_d2, intermediate_table_d3, kalman_cone_d3):
                assert min(cone(n).homological_indices()) >= 0, (cone.__name__, n)


class TestD2Pipeline:
    def test_cone_matches_closed_form(self):
        for n in (3, 4, 5, 6, 7, 8):
            cone = cone_table_d2(n)
            closed = kalman_table_d2(n)
            assert cone == closed, (n, cone.diff(closed))

    def test_homological_extremes(self):
        for n in (3, 4, 5, 6):
            t = kalman_table_d2(n)
            assert t.proj_dim() == 2 * n - 5
            assert t.regularity() == 2
            assert t.multiplicity(0, 0, (), ()) == 1

    def test_generator_degrees_exactly_2_and_3(self):
        # spec property: the ideal is generated in degrees 2 and 3 exactly
        for n in (4, 5, 6, 7):
            assert kalman_table_d2(n).degrees(1) == [2, 3]

    def test_full_exterior_power_rank(self):
        # at index n-2 the closed form collapses to a full wedge power
        for n in (4, 5, 6, 7):
            assert kalman_table_d2(n).rank(n - 2) == comb(2 * (n - 2), n - 1)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            kalman_table_d2(2)
        with pytest.raises(ValueError):
            cone_table_d2(2)

    def test_n3_cubic_hypersurface(self):
        # at n = 3 the ideal is one cubic, det[gamma; gamma alpha] = 0
        assert list(kalman_table_d2(3).entries()) == [(0, 0, (), (), 1), (1, 3, (1, 1), (2,), 1)]
        assert conjecture_consistency(2, 3).residual.is_zero

    def test_n3_series_matches_the_evaluation_oracle(self):
        from kalmanres.kalman import numeric_hilbert_function

        series = hilbert_series(kalman_table_d2(3))
        hf = numeric_hilbert_function(1, 2, 3, k_max=5, seed=0)
        assert hf == [series.coefficient(k) for k in range(6)]
        assert hf == [1, 9, 45, 164, 486, 1242]


class TestD3Pipeline:
    def test_intermediate_first_two_steps(self):
        for n in (6, 7, 8):
            t = intermediate_table_d3(n)
            assert _at(t, 0, 0) == {(Partition(()), Partition(())): 1}
            assert _at(t, 0, 1) == {(Partition(()), Partition(())): 1}
            assert t.degrees(0) == [0, 1]
            assert _at(t, 1, 2) == {
                (Partition((1, 1)), Partition((1, 1))): 1,
                (Partition((1,)), Partition((1,))): 1,
            }
            assert t.degrees(1) == [2]

    def test_intermediate_second_syzygies(self):
        t = intermediate_table_d3(7)
        assert _at(t, 2, 3) == {
            (Partition((2, 1)), Partition((1, 1, 1))): 1,
            (Partition((2,)), Partition((1, 1))): 1,
            (Partition((1, 1, 1)), Partition((2, 1))): 1,
        }
        assert _at(t, 2, 4) == {(Partition((1, 1, 1)), Partition((2, 1))): 1}
        assert _at(t, 2, 5) == {(Partition((1, 1, 1)), Partition((3,))): 1}

    def test_intermediate_claims_metadata(self):
        # recorded values for the intermediate d=3 module, not recomputed
        for n in (6, 7, 8, 9):
            t = intermediate_table_d3(n)
            assert t.proj_dim() == 3 * n - 10
            assert t.regularity() == 3

    def test_variety_generators(self):
        for n in (6, 7, 8, 9):
            t = kalman_cone_d3(n)
            listed = {(e, lam, mu) for lam, mu, e in kalman_equations_d3(n)}
            got = {(e, lam, mu) for i, e, lam, mu, _ in t.entries() if i == 1}
            assert got == listed
            counts = {e: t.rank(1, e) for e in t.degrees(1)}
            assert counts == {
                3: comb(n - 3, 3),
                4: 2 * comb(n - 2, 3),
                5: 2 * comb(n - 2, 3),
                6: comb(n - 1, 3),
            }

    def test_variety_homological_extremes(self):
        for n in (6, 7, 8):
            t = kalman_cone_d3(n)
            assert t.proj_dim() == 3 * n - 11
            assert t.regularity() == 5
            assert t.multiplicity(0, 0, (), ()) == 1
            assert t.degrees(0) == [0]

    def test_n4_hypersurface(self):
        t = kalman_cone_d3(4)
        assert t.degrees(1) == [6]
        assert t.rank(1, 6) == 1
        assert kalman_equations_d3(4) == [(Partition((1, 1, 1)), Partition((3,)), 6)]

    def test_equation_list_prunes(self):
        assert len(kalman_equations_d3(4)) == 1
        assert len(kalman_equations_d3(5)) == 3  # (1^3;1^3) needs 3 rows of W
        assert len(kalman_equations_d3(6)) == 4


def _refuses(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return True
    return False


# entry point -> the (s, d, n) of the context its range rests on
_CONTEXT_OF = {
    table_s1: lambda d, n: (1, d, n),
    table_corank1: lambda d, n: (d - 1, d, n),
    table_s2_d3: lambda n: (2, 3, n),
    table_w_line: lambda s, d: (s, d, d + 1),
    kalman_table_d2: lambda n: (1, 2, n),
    cone_table_d2: lambda n: (1, 2, n),
    intermediate_table_d3: lambda n: (2, 3, n),
    kalman_cone_d3: lambda n: (1, 3, n),
    kalman_equations_d3: lambda n: (1, 3, n),
    predicted_hilbert_series: lambda d, n: (1, d, n),
    conjecture_consistency: lambda d, n: (1, d, n),
}


@pytest.mark.parametrize("fn", list(_CONTEXT_OF), ids=lambda fn: fn.__name__)
def test_refuses_exactly_where_its_context_does(fn):
    # every argument runs over -1..7; the context is the one range check
    context_of = _CONTEXT_OF[fn]
    for args in product(range(-1, 8), repeat=context_of.__code__.co_argcount):
        expected = _refuses(GrassmannianContext, *context_of(*args))
        assert _refuses(fn, *args) == expected, (fn.__name__, args)


class TestDegreeWindow:
    def test_generator_degree_window(self):
        # spec property: ideal generators live in degrees d .. d(d+1)/2
        for n in (4, 5, 6):
            degs = kalman_table_d2(n).degrees(1)
            assert min(degs) >= 2 and max(degs) <= 3
        for n in (6, 7):
            degs = kalman_cone_d3(n).degrees(1)
            assert min(degs) >= 3 and max(degs) <= 6


class TestConjecture:
    def test_exact_sequence_spec(self):
        # module s of the sequence is the normalization twisted by s(s-1)/2
        n = 6
        norm = [hilbert_series_normalization(GrassmannianContext(s, 3, n)) for s in (1, 2, 3)]
        assert predicted_hilbert_series(3, n) == norm[0] - norm[1].shift(1) + norm[2].shift(3)
        assert predicted_hilbert_series(1, 4) == hilbert_series_normalization(
            GrassmannianContext(1, 1, 4)
        )

    def test_d1_prediction_is_koszul(self):
        for n in (2, 3, 5):
            pred = predicted_hilbert_series(1, n)
            expected = HilbertSeries(
                tuple((-1) ** q * comb(n - 1, q) for q in range(n)), n * n
            )
            assert pred == expected

    def test_consistency_d1(self):
        report = conjecture_consistency(1, 4)
        assert report.residual.is_zero

    def test_consistency_d2_d3(self):
        for d in (2, 3):
            for n in (4, 5, 6, 7):
                report = conjecture_consistency(d, n)
                assert report.residual.is_zero, (d, n)
                assert report.telescope_ok is None

    def test_telescope_replay_for_large_d(self):
        for d in (4, 5):
            report = conjecture_consistency(d, d + 1)
            assert report.residual is None  # no proven route; prediction only
            assert report.telescope_ok is True

    def test_replay_equals_prediction(self):
        # the downward replay over the closed forms lands on the prediction,
        # so comparing each closed form with its Euler route is the check
        for d in range(2, 8):
            assert replayed_w_line_prediction(d) == predicted_hilbert_series(d, d + 1), d

    def test_telescope_fails_on_a_dropped_entry(self, monkeypatch, capsys):
        closed_form = resolutions.table_w_line

        def dropping(s, d):
            t = closed_form(s, d)
            if s == 2:
                first = BettiTable(t.ctx)
                first.add(*next(t.entries())[:4])
                t = t - first
            return t

        monkeypatch.setattr(resolutions, "table_w_line", dropping)
        assert conjecture_consistency(4, 5).telescope_ok is False
        assert cli.main(["conjecture", "--d", "4", "--n", "5"]) == cli.MISMATCH
        assert "telescoping cross-check: False" in capsys.readouterr().out

    def test_n_d_plus_1_check_telescopes_at_d_5(self):
        # the per-s check at n = d+1 recomputes each N_s by the Euler route
        assert conjecture_consistency(5, 6).telescope_ok is True

    def test_prediction_only_away_from_corner(self):
        report = conjecture_consistency(4, 7)
        assert report.residual is None
        assert report.telescope_ok is None
        assert isinstance(report, ConjectureReport)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            conjecture_consistency(4, 4)
        with pytest.raises(ValueError):
            conjecture_consistency(0, 3)
