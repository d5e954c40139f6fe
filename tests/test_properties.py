"""Property tests over generated inputs.

Every test is derandomized and keeps no example database, so the suite runs
the same examples on every run; sizes are bounded so that each test stays
well under a second.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kalmanres.bott import GrassmannianContext, bott
from kalmanres.partitions import Partition, dual_weight, schur_rank
from kalmanres.schur import lr_product
from property_checks import kempf_h0, weight_rank, weyl_dimension

deterministic = settings(derandomize=True, database=None, deadline=None)


def partitions(max_part, max_len, max_size=None):
    """Partitions with parts at most max_part, at most max_len parts and
    size at most max_size, built from unsorted lists of parts."""
    parts = st.lists(st.integers(1, max_part), max_size=max_len)
    if max_size is not None:
        parts = parts.filter(lambda p: sum(p) <= max_size)
    return parts.map(lambda p: Partition(sorted(p, reverse=True)))


@st.composite
def grassmannian_weights(draw):
    """(ctx, alpha, beta): alpha fits R* (at most s rows) and beta fits Q*
    (at most d - s rows) on Gr(s, L), dim L = d <= 5."""
    d = draw(st.integers(2, 5))
    s = draw(st.integers(1, d))
    alpha = draw(partitions(4, s))
    beta = draw(partitions(4, d - s))
    return GrassmannianContext(s, d, d + 1), alpha, beta


@deterministic
@given(partitions(6, 6))
def test_conjugation_is_a_size_preserving_involution(lam):
    conj = lam.conjugate()
    assert conj.conjugate() == lam
    assert sum(conj) == sum(lam)
    assert conj.length() == lam.part(0)


@deterministic
@given(partitions(5, 5), st.integers(0, 6))
def test_hook_content_rank_is_the_weyl_dimension(lam, n):
    expected = weyl_dimension(lam.pad(n)) if lam.length() <= n else 0
    assert schur_rank(lam, n) == expected


@deterministic
@given(partitions(3, 3, max_size=5), partitions(3, 3, max_size=5))
def test_lr_coefficients_are_symmetric(lam, mu):
    assert lr_product(lam, mu) == lr_product(mu, lam)


@deterministic
@given(grassmannian_weights())
def test_bott_agrees_with_kempf_sections(case):
    ctx, alpha, beta = case
    sections = kempf_h0(alpha, beta, ctx)
    res = bott(dual_weight(beta.pad(ctx.rank_quot)), dual_weight(alpha.pad(ctx.rank_sub)), ctx)
    if sections is None:
        assert res.degree != 0  # no sections at all
    else:
        assert res.degree == 0
        assert Partition(dual_weight(res.weight)) == sections
        assert weight_rank(res.weight, ctx.d) == schur_rank(sections, ctx.d)
