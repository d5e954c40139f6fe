"""Integer partitions, GL-weights, and exact Schur/Weyl functor ranks."""

from __future__ import annotations

import operator
from functools import lru_cache

# A Weight is a plain tuple of ints with significant length (trailing zeros
# matter); it need not be a partition unless stated.
Weight = tuple


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative ints, trailing zeros stripped.

    Immutable and hashable; compares and sorts like a plain tuple, so
    sorted(..., reverse=True) gives lexicographic descending order.  Parts
    must be integers (operator.index): floats and strings raise TypeError.
    A Partition passed in is returned as it is, having been checked once.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        if type(parts) is Partition:
            return parts
        parts = tuple(map(operator.index, parts))
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if not is_weakly_decreasing(parts):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {parts}")
        return super().__new__(cls, parts)

    def length(self) -> int:
        return len(self)

    def part(self, i: int) -> int:
        """i-th part, 0-indexed; 0 beyond the last row."""
        return self[i] if 0 <= i < len(self) else 0

    def pad(self, n: int) -> Weight:
        """The parts as a weight of length exactly n."""
        if n < len(self):
            raise ValueError(f"cannot pad {self!r} to length {n}")
        return tuple(self) + (0,) * (n - len(self))

    @lru_cache(maxsize=None)  # keyed by value: equal partitions share one entry
    def conjugate(self) -> "Partition":
        if not self:
            return _EMPTY
        return Partition(
            sum(1 for p in self if p >= i) for i in range(1, self[0] + 1)
        )

    def exponent_string(self) -> str:
        """Compact human form, e.g. (2,1,1) -> "2,1^2"; empty -> "0"."""
        if not self:
            return "0"
        runs: list[list[int]] = []
        for p in self:
            if runs and runs[-1][0] == p:
                runs[-1][1] += 1
            else:
                runs.append([p, 1])
        return ",".join(f"{p}^{m}" if m > 1 else f"{p}" for p, m in runs)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


_EMPTY = tuple.__new__(Partition, ())


def is_weakly_decreasing(w: Weight) -> bool:
    return all(a >= b for a, b in zip(w, w[1:]))


def dual_weight(w: Weight) -> Weight:
    """Weight of the dual module: negate and reverse."""
    return tuple(-x for x in reversed(w))


def schur_rank(lam: Partition, n: int) -> int:
    """Rank of the Schur (equivalently, of the Weyl) functor S_lam applied to
    a free module of rank n.

    Hook content formula: product over boxes (i, j) of (n + j - i) divided by
    the hook length product.  All arithmetic is exact; the division is done
    once at the end and must be exact.  Returns 0 exactly when the diagram
    has more than n rows.  lam may be any sequence of parts: it becomes a
    Partition first, and the rank is cached per (partition, n), since a
    Betti table asks for the same few ranks many times.
    """
    return _schur_rank(Partition(lam), operator.index(n))  # before the cache: 3.0 must not key it


@lru_cache(maxsize=None)
def _schur_rank(lam: Partition, n: int) -> int:
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if lam.length() > n:
        return 0
    conj = lam.conjugate()
    num = 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj[j] - i) - 1
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"hook-content product {num}/{den} is not an integer for {lam}, n={n}")
    return q


@lru_cache(maxsize=None)
def _partitions_in_box(q: int, rows: int, cols: int) -> tuple:
    if q == 0:
        return (_EMPTY,)
    if rows <= 0 or cols <= 0 or q > rows * cols:
        return ()
    out = []
    for first in range(min(q, cols), 0, -1):
        for rest in _partitions_in_box(q - first, rows - 1, first):
            out.append(Partition((first,) + tuple(rest)))
    return tuple(out)


def partitions_in_box(q: int, rows: int, cols: int) -> list[Partition]:
    """All partitions of q with at most `rows` parts, each at most `cols`,
    in lexicographic descending order."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return list(_partitions_in_box(q, rows, cols))


def partitions_of(q: int) -> list[Partition]:
    """All partitions of q, lexicographic descending."""
    return list(_partitions_in_box(q, q, q))
