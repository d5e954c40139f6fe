"""Free resolution assembly for the normalizations of invariant-subspace
determinantal varieties.

The bundle xi = R (x) (Q* + W) lives on Gr(s, L); pushing its exterior powers
through the Bott algorithm yields the graded equivariant Betti table of the
normalization: a summand of wedge^q(xi) with cohomology in degree j lands in
homological index i = q - j and internal degree e = q.

Hilbert series are computed twice, by design: once from the assembled table
(Bott degrees plus hook content ranks) and once as an Euler characteristic
via the Weyl dimension product (no sorting, no hooks).  They share the sweep
and the LR counts on regular weights; each drops vanishing weights by its own
test.  The two routes must agree exactly; tests enforce this.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, Optional

from . import schur
from .bott import GrassmannianContext, cohomology_of_summand, vanishing_test
from .partitions import Partition, Weight, dual_weight, partitions_in_box, schur_rank


@dataclass(frozen=True)
class XiSummand:
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
    are multiplied by Littlewood-Richardson.  Summands whose R-weight needs
    more than s rows vanish, so the product never generates them.  The
    invariant |lambda_r| = |mu_qstar| + |nu_w| holds for every summand.

    vanishes(lam', ctx), if given, runs once per Q*-partition lam' and returns a
    test of the R-partition nu that drops the summand before its LR count.
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
            drop = vanishes(lam_conj, ctx) if vanishes else None
            for mu, mu_conj in mus:
                for nu, c in schur.lr_product(lam, mu, s, skip=drop).items():
                    out.append(XiSummand(nu, lam_conj, mu_conj, c))
    return out


def cohomology_table(
    ctx: GrassmannianContext, q: int
) -> dict[int, Counter]:
    """Cohomology of wedge^q(xi), as {degree j: Counter[(L-partition,
    W-partition)] with multiplicities}.  Only nonzero degrees appear; Bott's
    repeat test drops the vanishing summands before their LR count."""
    table: dict[int, Counter] = {}
    for summand in xi_exterior_decomposition(ctx, q, vanishes=vanishing_test):
        res = cohomology_of_summand(summand.lambda_r, summand.mu_qstar, ctx)
        if res.is_zero:
            continue
        eta = Partition(res.weight)  # nonnegative here; raises otherwise
        table.setdefault(res.degree, Counter())[(eta, summand.nu_w)] += summand.mult
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
        if mult <= 0:
            raise ValueError("multiplicity must be positive")
        lam, mu = Partition(lam), Partition(mu)
        if len(lam) > self.ctx.d or len(mu) > self.ctx.dim_w:
            raise ValueError(f"rank-zero summand {lam!r}, {mu!r} over {self.ctx}")
        self._data[(i, e, lam, mu)] += mult

    def add_nonzero(self, i: int, e: int, lam, mu, mult: int = 1) -> None:
        """add(), but silently drop summands of rank zero (too many rows for
        either factor).  Used by closed forms stated for large n."""
        lam, mu = Partition(lam), Partition(mu)
        if schur_rank(lam, self.ctx.d) and schur_rank(mu, self.ctx.dim_w):
            self.add(i, e, lam, mu, mult)

    def subtract(self, i: int, e: int, lam: Partition, mu: Partition, mult: int = 1) -> None:
        pair = (Partition(lam), Partition(mu))
        key = (i, e) + pair
        have = self._data[key]
        if have < mult:
            raise ValueError(
                f"cannot remove {mult} x {pair} at (i={i}, e={e}); have {have}"
            )
        self._data[key] -= mult
        if self._data[key] == 0:
            del self._data[key]

    def copy(self) -> "BettiTable":
        return self._with(Counter(self._data))

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


@dataclass(frozen=True)
class HilbertSeries:
    """Rational series numerator / (1 - t)^denominator_exponent with integer
    numerator coefficients (index = degree)."""

    coeffs: tuple
    denominator_exponent: int

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

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
    size = max(coeffs, default=-1) + 1
    out = [0] * size
    for e, c in coeffs.items():
        out[e] = c
    return HilbertSeries(tuple(out), n * n)


def weyl_euler_characteristic(weight: Weight, d: int) -> int:
    """Signed Euler characteristic dimension of the weight-nu bundle on the
    flag of GL(d): product over i<j of (u_i - u_j)/(j - i) with u = nu + rho.
    Zero exactly on repeats; no sorting involved."""
    if len(weight) != d:
        raise ValueError(f"weight length {len(weight)} != {d}")
    u = [w + r for w, r in zip(weight, range(d - 1, -1, -1))]
    num = 1
    den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= u[i] - u[j]
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"Weyl product {num}/{den} is not an integer for {weight}")
    return q


def _weyl_product_vanishes(mu_qstar: Partition, ctx: GrassmannianContext) -> Callable:
    """The Euler route's own test, apart from Bott's: with Q* fixed, is the Weyl
    product of the summand zero?  Both parts of u = weight + rho strictly
    decrease, so u repeats exactly when an R-entry equals a Q-entry."""
    d, s = ctx.d, ctx.rank_sub
    alpha = dual_weight(mu_qstar.pad(ctx.rank_quot))
    u_quot = tuple(w + d - 1 - j for j, w in enumerate(alpha))

    def vanishes(lam: Partition) -> bool:
        for i in range(s):
            if (lam[i] if i < len(lam) else 0) + s - 1 - i in u_quot:
                return True
        return False

    return vanishes


@lru_cache(maxsize=None)
def hilbert_series_normalization(ctx: GrassmannianContext) -> HilbertSeries:
    """Hilbert series of the normalization, computed directly as
    sum_q (-t)^q chi(wedge^q xi) with chi through the Weyl dimension product.

    Shares the candidate sweep and the LR counts on regular weights with
    hilbert_series(resolution_terms(ctx)), drops weights of zero Weyl product
    by its own test (no Bott, no hook-content ranks); the two must agree.
    """
    coeffs = [0] * (ctx.xi_rank + 1)
    for q in range(ctx.xi_rank + 1):
        total = 0
        for summand in xi_exterior_decomposition(ctx, q, vanishes=_weyl_product_vanishes):
            nu = dual_weight(summand.mu_qstar.pad(ctx.rank_quot)) + summand.lambda_r.pad(
                ctx.rank_sub
            )
            chi = weyl_euler_characteristic(nu, ctx.d)
            if chi:
                total += summand.mult * chi * schur_rank(summand.nu_w, ctx.dim_w)
        coeffs[q] = total if q % 2 == 0 else -total
    return HilbertSeries(tuple(coeffs), ctx.n * ctx.n)
