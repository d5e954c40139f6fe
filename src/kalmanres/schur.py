"""Tensor calculus for Schur functors: the horizontal Pieri rule,
Littlewood-Richardson coefficients by tableau enumeration, and the Cauchy
decomposition of exterior powers.

Products map Partition -> positive multiplicity, keys in lexicographic
descending order.  S_nu of a rank-r bundle is zero beyond r rows, so the
private product takes that row bound and never generates such nu."""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, partitions_in_box, partitions_of


def pieri_horizontal(mu: Partition, k: int) -> list[Partition]:
    """All nu obtained from mu by adding a horizontal strip of size k:
    nu_i >= mu_i >= nu_{i+1}, |nu| = |mu| + k.  Each has multiplicity 1."""
    mu = Partition(mu)
    if k < 0:
        raise ValueError("strip size must be nonnegative")
    out: list[Partition] = []

    def place(i: int, remaining: int, prefix: tuple) -> None:
        if i == mu.length() + 1:
            if remaining == 0:
                out.append(Partition(prefix))
            return
        lo = mu.part(i)
        # upper bound: row above must dominate what we add below it
        hi = mu.part(i - 1) if i > 0 else mu.part(0) + remaining
        hi = min(hi, lo + remaining)
        for v in range(hi, lo - 1, -1):
            place(i + 1, remaining - (v - lo), prefix + (v,))

    place(0, k, ())
    return sorted(out, reverse=True)


@lru_cache(maxsize=None)
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu}.

    Counts column-strict skew tableaux of shape nu/lam and content mu whose
    reverse reading word (right to left along rows, top row first) is a
    lattice word.  Cells are filled in reverse reading order so the lattice
    condition prunes as we go.
    """
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if nu.size() != lam.size() + mu.size():
        return 0
    if not nu.contains(lam) or not nu.contains(mu):
        return 0
    values = mu.length()
    # cells in reverse reading order
    cells = [
        (r, c)
        for r in range(nu.length())
        for c in range(nu[r] - 1, lam.part(r) - 1, -1)
    ]
    if not cells:
        return 1
    grid: dict[tuple[int, int], int] = {}
    counts = [0] * (values + 1)  # counts[v] = occurrences of v so far
    total = 0

    def fill(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        right = grid.get((r, c + 1))
        above = grid.get((r - 1, c))
        for v in range(1, values + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue  # lattice word violated
            if right is not None and v > right:
                continue  # rows weakly increase left to right
            if above is not None and v <= above:
                continue  # columns strictly increase
            grid[(r, c)] = v
            counts[v] += 1
            fill(idx + 1)
            counts[v] -= 1
            del grid[(r, c)]

    fill(0)
    return total


@lru_cache(maxsize=None)
def _lr_product(lam: Partition, mu: Partition, rows: int) -> tuple:
    """(nu, c^nu_{lam,mu}) with c > 0 for nu of at most `rows` rows, the rank of
    the bundle receiving the product; len(lam) + len(mu) rows give them all."""
    total = lam.size() + mu.size()
    cols = lam.part(0) + mu.part(0)
    out = []
    for nu in partitions_in_box(total, min(rows, lam.length() + mu.length()), cols):
        if not nu.contains(lam):
            continue
        c = lr_coefficient(lam, mu, nu)
        if c:
            out.append((nu, c))
    return tuple(out)


def lr_product(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Decomposition of S_lam . S_mu as {nu: c^nu_{lam,mu}}, keys in
    lexicographic descending order."""
    lam, mu = Partition(lam), Partition(mu)
    return dict(_lr_product(lam, mu, lam.length() + mu.length()))


def cauchy_exterior(q: int) -> list[tuple[Partition, Partition]]:
    """Summands (lam, lam') of the degree-q exterior power of a tensor
    product of two free modules, each with multiplicity 1."""
    return [(lam, lam.conjugate()) for lam in partitions_of(q)]

