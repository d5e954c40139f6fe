"""Characteristic-zero cohomology of irreducible homogeneous bundles on a
Grassmannian of subspaces of a d-dimensional space.

Conventions (load-bearing, do not change silently):

* Gr(s, L) parametrizes s-dimensional subspaces of L, with tautological
  sequence 0 -> R -> L -> Q -> 0, rank R = s, rank Q = d - s.
* The GL(d) weight fed to the dotted Weyl action is nu = (alpha, beta) with
  the quotient-bundle weight alpha (length d - s) FIRST and the sub-bundle
  weight beta (length s) second.
* rho = (d-1, d-2, ..., 1, 0).  If nu + rho has a repeated entry every
  cohomology group vanishes.  Otherwise sort nu + rho strictly decreasing;
  the number of inversions of the sorting permutation is the unique
  cohomology degree j, and H^j is the irreducible with L-weight
  sort(nu + rho) - rho.
* Partition weights on the dual bundle Q* are converted to Q-weights by
  negate-and-reverse before entering the algorithm.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from typing import NamedTuple, Optional

from .partitions import Partition, Weight, dual_weight, is_weakly_decreasing


class GrassmannianContext(namedtuple("GrassmannianContext", "s d n")):
    """Ambient data: subspace dimension s inside L of dimension d, with the
    whole space of dimension n (so the complement W has dimension n - d).

    Requires integers 1 <= s <= d < n.  s = d is the degenerate point Grassmannian.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, s: int, d: int, n: int):
        s, d, n = map(operator.index, (s, d, n))
        if not (1 <= s <= d < n):
            raise ValueError(f"need 1 <= s <= d < n, got {(s, d, n)}")
        return super().__new__(cls, s, d, n)

    @property
    def rank_sub(self) -> int:
        return self.s

    @property
    def rank_quot(self) -> int:
        return self.d - self.s

    @property
    def dim_w(self) -> int:
        return self.n - self.d

    @property
    def xi_rank(self) -> int:
        """Rank of the bundle R tensor (Q* + W)."""
        return self.s * (self.d - self.s) + self.s * (self.n - self.d)


class CohomologyResult(NamedTuple):
    """Either zero, or concentrated in a single degree with an L-weight."""

    degree: Optional[int]
    weight: Optional[Weight]

    @classmethod
    def zero(cls) -> "CohomologyResult":
        return cls(None, None)

    @property
    def is_zero(self) -> bool:
        return self.degree is None


def bott(alpha: Weight, beta: Weight, ctx: GrassmannianContext) -> CohomologyResult:
    """Cohomology of the bundle with quotient-weight alpha and sub-weight beta.

    alpha must have length d - s and beta length s, both weakly decreasing
    (entries may be negative).
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if len(alpha) != ctx.rank_quot or len(beta) != ctx.rank_sub:
        raise ValueError(
            f"weight lengths {(len(alpha), len(beta))} do not match "
            f"(d-s, s) = {(ctx.rank_quot, ctx.rank_sub)}"
        )
    if not is_weakly_decreasing(alpha) or not is_weakly_decreasing(beta):
        raise ValueError(f"weights must be weakly decreasing: {alpha}, {beta}")
    return _dotted_weyl(alpha + beta)


def _dotted_weyl(weight: Weight) -> CohomologyResult:
    """The dotted Weyl step of the module docstring, on a weight its caller checked."""
    d = len(weight)
    rho = range(d - 1, -1, -1)
    shifted = [v + r for v, r in zip(weight, rho)]
    if len(set(shifted)) < d:
        return CohomologyResult.zero()
    inversions = sum(1 for i in range(d) for k in range(i + 1, d) if shifted[i] < shifted[k])
    eta = tuple(v - r for v, r in zip(sorted(shifted, reverse=True), rho))
    return CohomologyResult(inversions, eta)


def cohomology_of_summand(
    lam_r: Partition, mu_qstar: Partition, ctx: GrassmannianContext
) -> CohomologyResult:
    """Cohomology of S_{lam_r} R tensor S_{mu_qstar} Q*.

    lam_r is a partition weight on the sub-bundle R, mu_qstar a partition
    weight on the dual quotient Q*; the latter is negate-reversed into a
    Q-weight, which enters the dotted Weyl step without bott()'s checks.
    """
    lam_r, mu_qstar = Partition(lam_r), Partition(mu_qstar)
    if lam_r.length() > ctx.rank_sub:
        raise ValueError(f"{lam_r!r} exceeds rank {ctx.rank_sub} of the sub-bundle")
    if mu_qstar.length() > ctx.rank_quot:
        raise ValueError(f"{mu_qstar!r} exceeds rank {ctx.rank_quot} of the quotient")
    return _dotted_weyl(dual_weight(mu_qstar.pad(ctx.rank_quot)) + lam_r.pad(ctx.rank_sub))

