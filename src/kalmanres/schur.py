"""Tensor calculus for Schur functors: Littlewood-Richardson coefficients by
tableau enumeration, and the Cauchy decomposition of exterior powers.

Products map Partition -> positive multiplicity, keys in lexicographic
descending order.  S_nu of a rank-r bundle is zero beyond r rows, so
lr_product takes that row bound and never generates such nu.

One walk of a skew shape nu/lam gives every c^nu_{lam,mu} at once, as
s_{nu/lam} = sum_mu c^nu_{lam,mu} s_mu (Macdonald, I.5), and lr_coefficient
reads it: a caller reading every mu of one nu/lam in a row walks it once."""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from operator import ge
from typing import Optional

from .partitions import Partition, partitions_in_box, partitions_of


@lru_cache(maxsize=1)
def lr_skew(lam: Partition, nu: Partition) -> dict[Partition, int]:
    """Skew Schur expansion of Partitions nu/lam, {mu: c^nu_{lam,mu} > 0} in
    lexicographic descending order ({} unless lam is in nu): the LR tableaux
    of shape nu/lam, column-strict fillings whose reverse reading word (right
    to left along rows, top row first) is a lattice word, filed by content.

    The cells are filled in reverse reading order, so the lattice condition,
    the only prune, applies as we go.  Two index lists, built once, point at
    each cell's right neighbour and the cell above it, which come earlier.
    A cell's values run from one more than the value above it to the value
    on its right; the last cell of row r (from 0) has r + 1 on its right:
    its entry v is read first in its row, so the lattice condition needs a
    v - 1 in the rows above, which hold at most r by induction.  Only the
    last shape is cached, and the dict returned is the cached one."""
    if len(lam) > len(nu) or not all(map(ge, nu, lam)):
        return {}
    cells = sum(nu) - sum(lam)
    if not cells:
        return {Partition(): 1}
    # values[:cells] is the filling; values[cells] = 0 stands above row 0
    # and values[cells + 1 + r] = r + 1 right of row r
    values = [0] * (cells + 1) + list(range(1, len(nu) + 1))
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
    counts = [cells + 1] + [0] * len(nu)  # counts[v] = occurrences of v so far
    found: dict[tuple, int] = {}
    i = v = 0  # v: the value last tried at cell i
    while True:
        v += 1
        if v > values[right[i]]:
            i -= 1  # cell i is exhausted: back to the previous cell
            if i < 0:
                return {Partition(mu): found[mu] for mu in sorted(found, reverse=True)}
            v = values[i]
            counts[v] -= 1
            continue
        k = counts[v]
        if counts[v - 1] > k:  # the word stays lattice: more v - 1 than v so far
            counts[v] = k + 1
            if i + 1 == cells:
                mu = tuple(filter(None, counts[1:]))
                found[mu] = found.get(mu, 0) + 1
                counts[v] = k
                continue
            values[i] = v
            i += 1
            v = values[above[i]]


@lru_cache(maxsize=None)
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu}: the mu entry of the
    walk lr_skew(lam, nu)."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    return lr_skew(lam, nu).get(mu, 0) if sum(nu) == sum(lam) + sum(mu) else 0


def lr_shapes(lam: Partition, size: int, rows: int, cols: int) -> list[Partition]:
    """The nu containing the Partition lam with |lam| + size cells in a rows
    x (lam_1 + cols) box, lexicographic descending: every nu of at most rows
    rows with c^nu_{lam,mu} > 0 for some mu of size cells at most cols wide."""
    return [
        nu
        for nu in partitions_in_box(sum(lam) + size, rows, lam.part(0) + cols)
        if len(nu) >= len(lam) and all(map(ge, nu, lam))
    ]


def lr_bound(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """The content-prefix bound, for lam in nu: c^nu_{lam,mu} > 0 only if
    rows 0..r of nu/lam hold at most mu_1 + ... + mu_{r+1} cells for every r,
    since row r of an LR tableau holds only the values 1..r+1.  Tested before
    each read, so lr_coefficient's cache holds no zero this bound decides."""
    skew = cap = 0
    for width, first, part in zip_longest(nu, lam, mu, fillvalue=0):
        skew += width - first
        cap += part
        if skew > cap:
            return False
    return True


def lr_product(lam: Partition, mu: Partition, rows: Optional[int] = None) -> dict[Partition, int]:
    """Decomposition of S_lam . S_mu as {nu: c^nu_{lam,mu}}, keys in
    lexicographic descending order; a new dict on every call.

    rows, the rank of the bundle receiving the product, keeps the nu of at
    most that many rows (None keeps all).  Only the nu of lr_shapes that pass
    lr_bound are counted."""
    lam, mu = Partition(lam), Partition(mu)
    rows = len(lam) + len(mu) if rows is None else min(rows, len(lam) + len(mu))
    return {
        nu: c
        for nu in lr_shapes(lam, sum(mu), rows, mu.part(0))
        if (c := lr_bound(lam, mu, nu) and lr_coefficient(lam, mu, nu))
    }


def cauchy_exterior(q: int) -> list[tuple[Partition, Partition]]:
    """Summands (lam, lam') of the degree-q exterior power of a tensor
    product of two free modules, each with multiplicity 1."""
    return [(lam, lam.conjugate()) for lam in partitions_of(q)]
