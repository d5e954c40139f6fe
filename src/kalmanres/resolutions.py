"""Closed-form Betti tables, Koszul tables, and mapping cones for the
invariant-subspace varieties themselves (not just their normalizations).

The conjectured exact sequence 0 -> C_s -> N_s -> C_{s+1}(-s) -> 0, with N_s
the normalization for subspace dimension s, C_{d+1} = 0 and C_d = N_d the
Koszul complex on L (x) W, resolves C_1, the variety's coordinate ring, one
stage (_stage) at a time.  A stage is a mapping cone whose cancellation spec,
a BettiTable of matched summands, is the multiset intersection of the two
tables it joins, cut at a homological index for the two d = 3 stages; the
cone is (ambient - spec) plus (quotient - spec) moved one index down.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .bott import GrassmannianContext
from .geometric import (
    BettiTable,
    HilbertSeries,
    hilbert_series,
    hilbert_series_normalization,
    resolution_terms,
)
from .partitions import Partition, partitions_in_box, schur_rank
from .schur import lr_product


class CancellationError(Exception):
    """A prescribed cancellation pair is absent from one of the tables."""


def koszul_table(generators: Sequence[tuple], ctx: GrassmannianContext) -> BettiTable:
    """Koszul complex on the d(n-d) linear forms spanning L (x) W, tensored
    with one free summand S_lam L (x) S_mu W (-c) per generator (lam, mu, c):
    each entry of the untwisted strand, the normalization table at s = d
    (Gr(d, L) is a point; term i is wedge^i(L (x) W) (x) A(-i)), multiplied
    onto the generator's labels by Littlewood-Richardson and twisted by c.
    """
    d, w = ctx.d, ctx.dim_w
    table = BettiTable(ctx)
    strand = list(resolution_terms(GrassmannianContext(d, d, ctx.n)).entries())
    for lam, mu, c in generators:
        for i, e, nu, nu_w, mult in strand:
            for left, cl in lr_product(lam, nu, d).items():
                for right, cr in lr_product(mu, nu_w, w).items():
                    table.add(i, e + int(c), left, right, mult * cl * cr)
    return table


def mapping_cone(
    ambient: BettiTable,
    quotient: BettiTable,
    matched: BettiTable,
) -> BettiTable:
    """Betti table of the kernel of a surjection M -> N, given resolutions
    of M (ambient) and N (quotient) and the table of summands on which the
    comparison map is an isomorphism: (ambient - matched) plus (quotient -
    matched) moved one homological index down.  Quotient generators that the
    spec leaves uncancelled land at index -1; a genuine kernel resolution has
    none, and the derived specs of the cones below leave none.  Raises
    ValueError unless the three tables share one ring, and CancellationError
    when a table lacks a matched entry at its (i, e).
    """
    shared = {"ambient": ambient & matched, "quotient": quotient & matched}  # checks every ring
    for name, held in shared.items():
        for i, e, lam, mu, missing in (matched - held).entries():  # raises on the first
            have = held.multiplicity(i, e, lam, mu)
            raise CancellationError(
                f"cannot cancel {have + missing} x ({lam.exponent_string()}; "
                f"{mu.exponent_string()}) at (i={i}, e={e}): {name} table has {have}"
            )
    out = ambient - matched
    for i, e, lam, mu, mult in (quotient - matched).entries():
        out.add(i - 1, e, lam, mu, mult)
    return out


# ---------------------------------------------------------------------------
# Closed-form normalization tables
# ---------------------------------------------------------------------------


def table_s1(d: int, n: int) -> BettiTable:
    """Full Betti table of the s=1 normalization, in closed form.

    F_0 = A + A(-1) + ... + A(-d+1); F_i for 1 <= i <= n-d collects
    (i,1^{d-a-1}; 1^{i+d-a-1}) at degree i+d-1 for a = 0..d-1, rank-pruned
    to the given n (a >= i+2d-1-n survive).
    """
    ctx = GrassmannianContext(1, d, n)
    t = BettiTable(ctx)
    for j in range(d):
        t.add(0, j, (), ())
    for i in range(1, n - d + 1):
        for a in range(d):
            lam = (i,) + (1,) * (d - a - 1)
            mu = (1,) * (i + d - a - 1)
            t.add_nonzero(i, i + d - 1, lam, mu)
    return t


def table_corank1(d: int, n: int) -> BettiTable:
    """Indices 0..2 of the s = d-1 normalization table (characteristic-0
    statement), stated for large n and rank-pruned down to the given n.

    Includes the two degree-3 index-2 families (2,1; 1^3) and (1^3; 2,1)
    that the a=0 weight walk produces at q=3.  table_s2_d3 extends the d=3
    case by its index-3 entries.
    """
    ctx = GrassmannianContext(d - 1, d, n)
    t = BettiTable(ctx)
    for j in range(d):
        t.add(0, j, (), ())
    t.add_nonzero(1, 2, (1, 1), (1, 1))
    for j in range(2, d + 1):
        t.add_nonzero(1, j, (1,), (1,))
    t.add_nonzero(2, 3, (2, 1), (1, 1, 1))
    t.add_nonzero(2, 3, (1, 1, 1), (2, 1))
    t.add_nonzero(2, 4, (1, 1, 1), (2, 1))
    for j in range(3, d + 2):
        t.add_nonzero(2, j, (2,), (1, 1))
    for j in range(4, d + 2):
        t.add_nonzero(2, j, (1, 1), (2,))
    return t


def table_s2_d3(n: int) -> BettiTable:
    """Indices 0..3 of the (s,d) = (2,3) normalization table: the corank-one
    table at d = 3 plus its index-3 entries, rank-pruned to the given n."""
    t = table_corank1(3, n)
    for e, lam, mu in [
        (4, (3, 1), (1, 1, 1, 1)), (4, (2, 1, 1), (2, 1, 1)), (4, (3,), (1, 1, 1)),
        (5, (2, 1, 1), (2, 1, 1)), (5, (2, 1, 1), (2, 2)), (5, (3,), (1, 1, 1)),
        (5, (2, 1), (2, 1)),
    ]:
        t.add_nonzero(3, e, lam, mu)
    return t


def table_w_line(s: int, d: int) -> BettiTable:
    """Full normalization table in the n = d+1 corner (W is a line):
    F_i = sum over partitions lam inside an (s-i) x (d-s) box of
    (1^i; i) at degree i(d-s+1) + |lam|."""
    ctx = GrassmannianContext(s, d, d + 1)
    t = BettiTable(ctx)
    for i in range(s + 1):
        for m in range((s - i) * (d - s) + 1):
            k = len(partitions_in_box(m, s - i, d - s))  # >= 1: the box holds size m
            t.add(i, i * (d - s + 1) + m, (1,) * i, (i,) if i else (), k)
    return t


# ---------------------------------------------------------------------------
# d = 2: the variety's full resolution
# ---------------------------------------------------------------------------


def kalman_table_d2(n: int) -> BettiTable:
    """Closed-form Betti table of the coordinate ring of the d=2, s=1
    invariant-subspace variety: F_0 = A; F_i carries (i,1; 1^{i+1}) at
    degree i+1 plus all two-row lam of size i+1 except (i+1) at degree i+2,
    for 1 <= i <= 2n-5."""
    ctx = GrassmannianContext(1, 2, n)
    t = BettiTable(ctx)
    t.add(0, 0, (), ())
    for i in range(1, 2 * n - 4):
        t.add_nonzero(i, i + 1, (i, 1), (1,) * (i + 1))
        for lam in partitions_in_box(i + 1, 2, n - 2):
            if lam != Partition((i + 1,)):
                t.add_nonzero(i, i + 2, lam, lam.conjugate())
    return t


def _stage(s: int, d: int, n: int, upper: BettiTable, through: Optional[int] = None) -> BettiTable:
    """One stage 0 -> C_s -> N_s -> C_{s+1}(-s) -> 0 of the conjectured
    sequence: C_s as the mapping cone of N_s, the (s, d, n) normalization
    table, over upper = C_{s+1} twisted by s, cancelling every summand the
    two tables share, at homological index <= through when it is given.

    That each matched pair's comparison map is an isomorphism is proven for
    d = 2 and assumed elsewhere.
    """
    ambient = resolution_terms(GrassmannianContext(s, d, n))
    quotient = upper.twist(s)
    shared = ambient & quotient
    if through is not None:
        shared = shared.restrict_index(through)
    return mapping_cone(ambient, quotient, shared)


def cone_table_d2(n: int) -> BettiTable:
    """The d=2 variety resolution C_1 assembled by the mapping cone of N_1
    over C_2(-1), the twist-1 Koszul strand, cancelling every shared summand."""
    return _stage(1, 2, n, koszul_table([((), (), 0)], GrassmannianContext(2, 2, n)))


# ---------------------------------------------------------------------------
# d = 3: two-stage pipeline
# ---------------------------------------------------------------------------


def intermediate_table_d3(n: int) -> BettiTable:
    """C_2 at d = 3, the degree-(0,1)-generated submodule of the (2,3,n)
    normalization: the cone of N_2 over C_3(-2), the twist-2 Koszul strand,
    cancelling the shared summands at index <= 3."""
    return _stage(2, 3, n, koszul_table([((), (), 0)], GrassmannianContext(3, 3, n)), through=3)


def kalman_cone_d3(n: int) -> BettiTable:
    """Betti table of the d=3, s=1 variety's coordinate ring C_1 via the
    two-stage cone: N_1 over the twisted intermediate module C_2(-1),
    cancelling the shared summands at index <= 2.  Index 1 gives the ideal's
    minimal generators.

    The two stages cancel only through index 3 and index 2, and their tables
    share more summands above those indices.  So the table is a resolution,
    but from index 2 on it is not claimed to be minimal.
    """
    return _stage(1, 3, n, intermediate_table_d3(n), through=2)


def kalman_equations_d3(n: int) -> list:
    """Minimal generators of the d=3, s=1 variety's ideal as
    (lam_L, mu_W, degree) triples, rank-pruned to the given n."""
    # builds no context, so it checks its own range
    if n < 4:
        raise ValueError("need n >= 4")
    data = [
        ((1, 1, 1), (1, 1, 1), 3),
        ((1, 1, 1), (2, 1), 4),
        ((1, 1, 1), (2, 1), 5),
        ((1, 1, 1), (3,), 6),
    ]
    out = []
    for lam, mu, e in data:
        lam, mu = Partition(lam), Partition(mu)
        if schur_rank(lam, 3) and schur_rank(mu, n - 3):
            out.append((lam, mu, e))
    return out


# ---------------------------------------------------------------------------
# Inductive-sequence consistency
# ---------------------------------------------------------------------------


class ConjectureReport(NamedTuple):
    d: int
    n: int
    prediction: HilbertSeries
    residual: Optional[HilbertSeries]
    telescope_ok: Optional[bool]


def predicted_hilbert_series(d: int, n: int) -> HilbertSeries:
    """Alternating sum over s = 1..d of the conjectured exact sequence's
    modules: the normalization for subspace dimension s, twisted by
    s(s-1)/2."""
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < n")
    total = HilbertSeries((), n * n)
    for s in range(1, d + 1):
        term = hilbert_series_normalization(GrassmannianContext(s, d, n)).shift(s * (s - 1) // 2)
        total = total + term if s % 2 == 1 else total - term
    return total


def conjecture_consistency(d: int, n: int) -> ConjectureReport:
    """Check the inductive-sequence prediction for the variety's Hilbert
    series.

    For d <= 3 the coordinate ring has a proven resolution route, so the
    report carries the residual (prediction minus actual), which must be the
    zero series.  For d >= 4 only the prediction is returned.  At n = d+1,
    telescope_ok compares each closed form T_s = table_w_line(s, d) with the
    Euler-route series N_s, s = 1..d: replaying 0 -> C_s -> N_s -> C_{s+1}(-s)
    -> 0 downward from C_{d+1} = 0 on the T_s gives sum (-1)^{s+1} T_s
    t^{s(s-1)/2}, which is the prediction whenever every T_s = N_s.
    """
    prediction = predicted_hilbert_series(d, n)
    residual = None
    telescope_ok = None
    if d == 1:
        actual = hilbert_series(resolution_terms(GrassmannianContext(1, 1, n)))
        residual = prediction - actual
    elif d == 2:
        residual = prediction - hilbert_series(cone_table_d2(n))
    elif d == 3:
        residual = prediction - hilbert_series(kalman_cone_d3(n))
    elif n == d + 1:
        telescope_ok = all(
            hilbert_series(table_w_line(s, d))
            == hilbert_series_normalization(GrassmannianContext(s, d, n))
            for s in range(1, d + 1)
        )
    return ConjectureReport(d, n, prediction, residual, telescope_ok)
