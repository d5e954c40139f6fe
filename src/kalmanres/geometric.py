"""Free resolution assembly for the normalizations of invariant-subspace
determinantal varieties.

The bundle xi = R (x) (Q* + W) lives on Gr(s, L); pushing its exterior powers
through the Bott algorithm yields the graded equivariant Betti table of the
normalization: a summand of wedge^q(xi) with cohomology in degree j lands in
homological index i = q - j and internal degree e = q.

Hilbert series are computed twice, by design: once from the assembled table
(LR products, Bott degrees, hook-content ranks) and once, with no step of the
first, as a sum over lam of (-1)^(|lam| + (d-s)(d-s-1)/2) V(lam + rho) det(M) / D,
where det(M) sums Weyl products times D / V(lam + rho), so D divides it.  The
two routes must agree exactly; `hilbert` and the tests check it.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from math import comb, prod
from typing import Callable, Iterator, NamedTuple, Optional

from . import schur
from .bott import GrassmannianContext, cohomology_of_summand
from .partitions import Partition, partitions_in_box, schur_rank


class XiSummand(NamedTuple):
    """One irreducible summand S_{lambda_r} R (x) S_{mu_qstar} Q* (x) S_{nu_w} W
    of an exterior power of xi, with its multiplicity."""

    lambda_r: Partition
    mu_qstar: Partition
    nu_w: Partition
    mult: int

    def rank(self, ctx: GrassmannianContext) -> int:
        return (
            self.mult
            * schur_rank(self.lambda_r, ctx.rank_sub)
            * schur_rank(self.mu_qstar, ctx.rank_quot)
            * schur_rank(self.nu_w, ctx.dim_w)
        )


def xi_exterior_decomposition(
    ctx: GrassmannianContext, q: int, *, vanishes: Optional[Callable] = None
) -> list[XiSummand]:
    """Cauchy decomposition of wedge^q(xi) into XiSummands.

    wedge^q splits over the two blocks of xi; each block contributes a
    partition pair (lam, lam') resp. (mu, mu'), and the two R-side factors
    are multiplied by Littlewood-Richardson: for each lam, every nu of
    schur.lr_shapes (at most s rows, as more vanish) is read for each mu
    within schur.lr_bound, so one tableau walk of nu/lam serves every mu.
    Summands come lam first, then mu, then nu; |lambda_r| = |mu_qstar| +
    |nu_w| for each.

    vanishes(lam', nu), if given, runs once per (Q*-partition, R-partition)
    pair before any LR read of it, and drops the pair when it returns true.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    s, quot, w = ctx.rank_sub, ctx.rank_quot, ctx.dim_w
    out: list[XiSummand] = []
    for a in range(min(q, s * quot), -1, -1):
        b = q - a
        if b > s * w:
            continue
        mus = [(mu, mu.conjugate()) for mu in partitions_in_box(b, s, w)]
        for lam in partitions_in_box(a, s, quot):
            lam_conj = lam.conjugate()
            by_mu: list[list[XiSummand]] = [[] for _ in mus]
            for nu in schur.lr_shapes(lam, b, s, w):
                if vanishes and vanishes(lam_conj, nu):
                    continue
                for (mu, mu_conj), summands in zip(mus, by_mu):
                    if c := schur.lr_bound(lam, mu, nu) and schur.lr_coefficient(lam, mu, nu):
                        summands.append(XiSummand(nu, lam_conj, mu_conj, c))
            out += [summand for summands in by_mu for summand in summands]
    return out


def cohomology_table(ctx: GrassmannianContext, q: int) -> dict[int, Counter]:
    """Cohomology of wedge^q(xi), as {degree j: Counter[(L-partition,
    W-partition)] with multiplicities}.  Only nonzero degrees appear.  Bott
    runs once on each pair the sweep lists, before its LR reads, which it
    skips when it vanishes; summands read (degree, eta) back from a dict."""
    cohomology: dict[tuple, tuple[int, Partition]] = {}

    def vanishes(lam_conj: Partition, nu: Partition) -> bool:
        res = cohomology_of_summand(nu, lam_conj, ctx)
        if not res.is_zero:  # eta is nonnegative here; Partition raises otherwise
            cohomology[lam_conj, nu] = res.degree, Partition(res.weight)
        return res.is_zero

    table: dict[int, Counter] = {}
    for summand in xi_exterior_decomposition(ctx, q, vanishes=vanishes):
        degree, eta = cohomology[summand.mu_qstar, summand.lambda_r]
        table.setdefault(degree, Counter())[(eta, summand.nu_w)] += summand.mult
    return table


def _entry_order(keys) -> list:
    """Keys (i, e, lam, mu): (i, e) ascending, then (lam, mu) descending."""
    return sorted(sorted(keys, reverse=True), key=lambda key: key[:2])


class BettiTable:
    """Graded equivariant Betti numbers: a multiset of entries (homological
    index i, internal degree e, L-partition, W-partition)."""

    def __init__(self, ctx: GrassmannianContext):
        self.ctx = ctx
        self._data: Counter = Counter()

    def _with(self, data: Counter) -> "BettiTable":
        out = BettiTable(self.ctx)
        out._data = data
        return out

    # -- construction ------------------------------------------------------

    def add(self, i: int, e: int, lam: Partition, mu: Partition, mult: int = 1) -> None:
        """Raises on a summand of rank zero (lam over d rows, mu over dim W)."""
        if not self.add_nonzero(i, e, lam, mu, mult):
            raise ValueError(f"rank-zero summand {Partition(lam)!r}, {Partition(mu)!r} over {self.ctx}")

    def add_nonzero(self, i: int, e: int, lam, mu, mult: int = 1) -> bool:
        """add(), but silently drop summands of rank zero (too many rows for
        either factor), returning False.  Used by closed forms stated for large n."""
        mult = operator.index(mult)
        if mult <= 0:
            raise ValueError("multiplicity must be positive")
        lam, mu = Partition(lam), Partition(mu)
        if len(lam) > self.ctx.d or len(mu) > self.ctx.dim_w:
            return False
        self._data[(i, e, lam, mu)] += mult
        return True

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct entries, not the sum of their multiplicities."""
        return len(self._data)

    def entries(self) -> Iterator[tuple[int, int, Partition, Partition, int]]:
        """All entries (i, e, lam_L, mu_W, mult): (i, e) ascending, then
        (lam_L, mu_W) descending."""
        return (key + (self._data[key],) for key in _entry_order(self._data))

    def multiplicity(self, i: int, e: int, lam, mu) -> int:
        return self._data[(i, e, Partition(lam), Partition(mu))]

    def homological_indices(self) -> list[int]:
        return sorted({key[0] for key in self._data})

    def degrees(self, i: int) -> list[int]:
        return sorted({key[1] for key in self._data if key[0] == i})

    def entry_rank(self, lam: Partition, mu: Partition) -> int:
        return schur_rank(lam, self.ctx.d) * schur_rank(mu, self.ctx.dim_w)

    def rank(self, i: int, e: Optional[int] = None) -> int:
        return sum(
            mult * self.entry_rank(lam, mu)
            for (j, ee, lam, mu), mult in self._data.items()
            if j == i and (e is None or ee == e)
        )

    def proj_dim(self) -> int:
        if not self._data:
            raise ValueError("empty table")
        return max(key[0] for key in self._data)

    def regularity(self) -> int:
        if not self._data:
            raise ValueError("empty table")
        return max(key[1] - key[0] for key in self._data)

    # -- transforms ----------------------------------------------------------

    def twist(self, k: int) -> "BettiTable":
        """Shift every internal degree by k (tensoring with A(-k))."""
        return self._with(
            Counter({(i, e + k, lam, mu): m for (i, e, lam, mu), m in self._data.items()})
        )

    def restrict_index(self, max_i: int) -> "BettiTable":
        return self._with(Counter({key: m for key, m in self._data.items() if key[0] <= max_i}))

    def _check_ring(self, other: "BettiTable") -> None:
        if (self.ctx.d, self.ctx.n) != (other.ctx.d, other.ctx.n):
            raise ValueError("tables live over different polynomial rings")

    def __and__(self, other: "BettiTable") -> "BettiTable":
        """Multiset intersection: each (i, e, lam, mu) at the smaller of its
        two multiplicities, over this table's context."""
        self._check_ring(other)
        return self._with(self._data & other._data)

    def __sub__(self, other: "BettiTable") -> "BettiTable":
        """Multiset difference over this table's context.  Raises unless
        this table holds every entry of other at least as often."""
        self._check_ring(other)
        excess = other._data - self._data
        if excess:
            i, e, lam, mu = _entry_order(excess)[0]
            raise ValueError(
                f"cannot remove {other._data[i, e, lam, mu]} x {(lam, mu)} at "
                f"(i={i}, e={e}); have {self._data[i, e, lam, mu]}"
            )
        return self._with(self._data - other._data)

    # -- comparison / io -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (self.ctx.d, self.ctx.n, self._data) == (other.ctx.d, other.ctx.n, other._data)

    def diff(self, other: "BettiTable") -> str:
        """Human-readable multiset difference, for test failure messages."""
        lines = [
            f"(i={key[0]}, e={key[1]}) {key[2:]}: {self._data[key]} vs {other._data[key]}"
            for key in _entry_order(set(self._data) | set(other._data))
            if self._data[key] != other._data[key]
        ]
        return "\n".join(lines) or "(equal)"

    def to_json_obj(self) -> dict:
        ctx = self.ctx
        return {
            "context": {"s": ctx.s, "d": ctx.d, "n": ctx.n},
            "entries": [
                {
                    "i": i,
                    "degree": e,
                    "lambdaL": list(lam),
                    "muW": list(mu),
                    "mult": mult,
                    "rank": mult * self.entry_rank(lam, mu),
                }
                for i, e, lam, mu, mult in self.entries()
            ],
        }

    def render(self) -> str:
        header = f"{'i':>3} {'deg':>4}  {'summand':<24} {'mult':>4} {'rank':>8}"
        lines = [header, "-" * len(header)]
        for i, e, lam, mu, mult in self.entries():
            pair = f"({lam.exponent_string()}; {mu.exponent_string()})"
            lines.append(
                f"{i:>3} {e:>4}  {pair:<24} {mult:>4} "
                f"{mult * self.entry_rank(lam, mu):>8}"
            )
        return "\n".join(lines)


def resolution_terms(ctx: GrassmannianContext) -> BettiTable:
    """Betti table of the normalization attached to ctx.

    Sweeps q = 0 .. rank(xi); a cohomology class of wedge^q(xi) in degree j
    contributes at homological index q - j, internal degree q.  A negative
    index raises RuntimeError.  For s = d the bundle has no Q*-block and the
    result is the Koszul complex on L (x) W.
    """
    table = BettiTable(ctx)
    for q in range(ctx.xi_rank + 1):
        for j, counter in cohomology_table(ctx, q).items():
            i = q - j
            if i < 0:
                raise RuntimeError(f"negative homological index {i} at q={q}, j={j} for {ctx}")
            for (lam, mu), mult in counter.items():
                table.add(i, q, lam, mu, mult)
    return table


class HilbertSeries(namedtuple("HilbertSeries", "coeffs denominator_exponent")):
    """Rational series numerator / (1 - t)^denominator_exponent, with integer
    numerator coefficients (index = degree) and an integer exponent >= 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, coeffs: tuple, denominator_exponent: int):
        coeffs = tuple(map(operator.index, coeffs))
        if operator.index(denominator_exponent) < 0:
            raise ValueError(f"denominator exponent must be nonnegative, got {denominator_exponent}")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return super().__new__(cls, coeffs, denominator_exponent)

    def _check(self, other: "HilbertSeries") -> None:
        if self.denominator_exponent != other.denominator_exponent:
            raise ValueError("denominator exponents differ")

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        self._check(other)
        size = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (size - len(self.coeffs))
        for j, c in enumerate(other.coeffs):
            a[j] += c
        return HilbertSeries(tuple(a), self.denominator_exponent)

    def __neg__(self) -> "HilbertSeries":
        return HilbertSeries(tuple(-c for c in self.coeffs), self.denominator_exponent)

    def __sub__(self, other: "HilbertSeries") -> "HilbertSeries":
        return self + (-other)

    def shift(self, k: int) -> "HilbertSeries":
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("only nonnegative shifts")
        return HilbertSeries((0,) * k + self.coeffs, self.denominator_exponent)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        """Coefficient of t^k of the expanded series."""
        if k < 0:
            return 0
        dd = self.denominator_exponent
        total = 0
        for j, c in enumerate(self.coeffs[: k + 1]):
            if dd == 0:
                if j == k:
                    total += c
            else:
                total += c * comb(dd - 1 + k - j, dd - 1)
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            body = f"{mag}" if j == 0 else (f"t^{j}" if mag == 1 else f"{mag}*t^{j}")
            terms.append(f"{sign} {body}" if terms else f"{sign}{body}")
        num = " ".join(terms)
        return f"({num}) / (1-t)^{self.denominator_exponent}"


def hilbert_series(table: BettiTable) -> HilbertSeries:
    """Alternating-sum Hilbert series of the module resolved by the table,
    over the coordinate ring of all endomorphisms (n^2 variables)."""
    n = table.ctx.n
    coeffs: dict[int, int] = {}
    for i, e, lam, mu, mult in table.entries():
        if e < 0:
            raise ValueError("negative internal degree")
        sign = -1 if i % 2 else 1
        coeffs[e] = coeffs.get(e, 0) + sign * mult * table.entry_rank(lam, mu)
    return HilbertSeries(tuple(coeffs.get(e, 0) for e in range(max(coeffs, default=-1) + 1)), n * n)


def _det(matrix: list) -> int:
    """Determinant of a square integer matrix, a list of rows left as it is:
    fraction-free (Bareiss) elimination with row swaps, exact in Python ints."""
    m, sign, prev = [list(row) for row in matrix], 1, 1
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot], sign = m[pivot], m[k], sign if pivot == k else -sign
        top, head = m[k], m[k][k]
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, len(m)):
                row[j] = (row[j] * head - lead * top[j]) // prev
        prev = head
    return sign * prev


def hilbert_series_normalization(ctx: GrassmannianContext) -> HilbertSeries:
    """Hilbert series of the normalization, sum_q (-t)^q chi(wedge^q xi), with
    no LR, Bott or hook-content step; it must equal the table route's.

    By Cauchy, chi sums over lam |- q in an s x (n - s) box and mu in lam' the
    Weyl product of (dual mu, lam) times the rank of S_{lam'/mu} W.  For each
    lam that is the Laplace expansion, along its first d - s rows, of a d x d
    matrix M with columns a = d - 1, ..., 0 at c = 0, ..., d - 1: rows
    (-1)^c a^k f(a) for k = d - s - 1, ..., 0, f(a) = prod_i (a - r_i) with
    r_i = lam_i + s - 1 - i, then rows C(w, r_j - a), 0 outside 0..w.  The top
    minor on the shifted Q-entries of mu, times V(r) / D, V(x) = prod_{i<j}
    (x_i - x_j) and D = V(d - 1, ..., 0), is the Weyl product; its complement
    is the skew rank by dual Jacobi-Trudi (Macdonald, I.1.7 and I.5).  So lam
    adds (-1)^(q + (d-s)(d-s-1)/2) V(r) det(M) / D to t^q (the column signs
    cancel the expansion's), and D divides it as Weyl products are integers.
    f vanishes where entries meet and C(w, k) at k > w, so no pair needs a
    test; nothing is cached.
    """
    s, quot, d, w = ctx.rank_sub, ctx.rank_quot, ctx.d, ctx.dim_w
    cols = range(d - 1, -1, -1)
    den = prod(j - i for j in range(d) for i in range(j))
    coeffs = [0] * (ctx.xi_rank + 1)
    for q in range(ctx.xi_rank + 1):
        for lam in partitions_in_box(q, s, ctx.n - s):
            r = [v + s - 1 - i for i, v in enumerate(lam.pad(s))]
            f = [(-1) ** c * prod(a - x for x in r) for c, a in enumerate(cols)]
            m = [[y * a ** k for a, y in zip(cols, f)] for k in range(quot - 1, -1, -1)]
            m += [[comb(w, x - a) if x >= a else 0 for a in cols] for x in r]
            v = prod(x - y for i, x in enumerate(r) for y in r[i + 1 :])
            chi, rest = divmod((-1) ** (q + quot * (quot - 1) // 2) * v * _det(m), den)
            if rest:
                raise RuntimeError(f"{v} det(M) / {den} is not an integer for {lam} over {ctx}")
            coeffs[q] += chi
    return HilbertSeries(tuple(coeffs), ctx.n * ctx.n)
