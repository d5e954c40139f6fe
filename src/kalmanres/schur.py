"""Tensor calculus for Schur functors: Littlewood-Richardson coefficients by
tableau enumeration, and the Cauchy decomposition of exterior powers.

Products map Partition -> positive multiplicity, keys in lexicographic
descending order.  S_nu of a rank-r bundle is zero beyond r rows, so
lr_product takes that row bound and never generates such nu.

Row r (from 0) of an LR tableau holds only the values 1..r+1: its rightmost
entry v is read before the rest of the row, so the lattice condition needs
a v - 1 in the rows above, and those hold at most r by induction.  Hence
rows 0..r of nu/lam have at most mu_1 + ... + mu_{r+1} cells whenever
c^nu_{lam,mu} > 0.  The candidate scan skips every other nu before counting,
and the count caps each row's values by the same fact.  Both are cached per
process: the scan per (lam, mu, rows), the count per (lam, mu, nu).  A
caller's skip test runs between them, on every call, so no cached value
depends on it."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import ge
from typing import Callable, Optional

from .partitions import Partition, partitions_in_box, partitions_of


@lru_cache(maxsize=None)
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu}.

    Counts column-strict skew tableaux of shape nu/lam and content mu whose
    reverse reading word (right to left along rows, top row first) is a
    lattice word.  The |mu| cells are numbered in reverse reading order and
    filled in that order, so the lattice condition prunes as we go.  A
    cell's right neighbour and the cell above it come earlier in that order:
    two index lists, built once, point at them in the flat list of values.
    A cell's values run from one more than the value above it to the value
    on its right; the last cell of row r has r + 1 (capped at len(mu)) on
    its right, since an LR tableau has nothing larger in row r.  The search
    walks the cells with an explicit index instead of recursion.
    """
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if sum(nu) != sum(lam) + sum(mu) or len(lam) > len(nu) or len(mu) > len(nu):
        return 0
    if not all(map(ge, nu, lam)) or not all(map(ge, nu, mu)):
        return 0
    cells = sum(mu)
    if not cells:
        return 1
    # values[:cells] is the filling; values[cells] = 0 stands above row 0
    # and values[cells + 1 + r] = min(r + 1, len(mu)) right of row r
    values = [0] * (cells + 1) + [min(r + 1, len(mu)) for r in range(len(nu))]
    right: list[int] = []
    above: list[int] = []
    row_end = 0  # cell (r - 1, c) has index row_end - 1 - c
    prev_lam = nu[0]  # no cell stands above row 0
    for r, width in enumerate(nu):
        first = lam[r] if r < len(lam) else 0
        nxt = cells + 1 + r
        for c in range(width - 1, first - 1, -1):
            right.append(nxt)
            nxt = len(above)
            above.append(row_end - 1 - c if c >= prev_lam else cells)
        row_end = len(above) + first
        prev_lam = first
    counts = [cells + 1] + [0] * len(mu)  # counts[v] = occurrences of v so far
    limit = (0,) + mu
    total = 0
    i = v = 0  # v: the value last tried at cell i
    while True:
        v += 1
        if v > values[right[i]]:
            i -= 1  # cell i is exhausted: back to the previous cell
            if i < 0:
                return total
            v = values[i]
            counts[v] -= 1
            continue
        k = counts[v]
        # content mu, and the word stays lattice: more v - 1 than v so far
        if k < limit[v] and counts[v - 1] > k:
            if i + 1 == cells:
                total += 1
                continue
            values[i] = v
            counts[v] = k + 1
            i += 1
            v = values[above[i]]


def lr_product(
    lam: Partition, mu: Partition, rows: Optional[int] = None, *, skip: Optional[Callable] = None
) -> dict[Partition, int]:
    """Decomposition of S_lam . S_mu as {nu: c^nu_{lam,mu}}, keys in
    lexicographic descending order; a new dict on every call.

    rows, the rank of the bundle receiving the product, keeps the nu of at
    most that many rows (None keeps all).  Only candidates are counted: the
    nu of the right size that contain lam and pass the content-prefix bound.
    The candidates depend on (lam, mu, rows) alone and are cached per
    process, so the table route and the Euler route scan them once.
    skip(nu), if given, sees each candidate in that order and drops it
    before its count when it returns true; it runs after the cache, so each
    route still drops vanishing weights by its own test."""
    lam, mu = Partition(lam), Partition(mu)
    most = len(lam) + len(mu)
    out = {}
    for nu in _lr_candidates(lam, mu, most if rows is None else min(rows, most)):
        if skip is not None and skip(nu):
            continue
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out


@lru_cache(maxsize=None)
def _lr_candidates(lam: Partition, mu: Partition, rows: int) -> tuple:
    lam_rows = tuple(lam) + (0,) * (rows - len(lam))
    bound = tuple(accumulate(mu.part(r) for r in range(rows)))  # content-prefix caps
    out = []
    for nu in partitions_in_box(sum(lam) + sum(mu), rows, lam.part(0) + mu.part(0)):
        if len(nu) < len(lam):
            continue
        skew = 0
        for width, first, cap in zip(nu, lam_rows, bound):
            skew += width - first
            if width < first or skew > cap:
                break
        else:
            out.append(nu)
    return tuple(out)


def cauchy_exterior(q: int) -> list[tuple[Partition, Partition]]:
    """Summands (lam, lam') of the degree-q exterior power of a tensor
    product of two free modules, each with multiplicity 1."""
    return [(lam, lam.conjugate()) for lam in partitions_of(q)]

