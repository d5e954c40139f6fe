"""Independent oracles for the test suite.

Everything here is written from textbook definitions on purpose, avoiding
the library's own algorithms (hooks, Pieri recursions, tableau backtracking),
so that agreement between the two is meaningful evidence rather than a
tautology.  The exceptions are the library's former code, kept as written:
lr_coefficient_cells, the cell-by-cell LR backtracker, which shares no code
with the flat kernel that replaced it and checks it on every small triple;
the two Hilbert-series routes before their vanishing pre-tests, which
run every summand of the complete Cauchy + LR decomposition through Bott and
the Weyl product (the second is the LR-based oracle for the Euler route,
and weyl_euler_characteristic, the Weyl product it takes, left the library
when that route became one determinant per partition); the Koszul table
that filters unbounded LR products by length; the three cancellation specs
of the d = 2 and d = 3 cones, listed by hand before each cone derived its
own; the downward replay of the inductive sequence in the n = d+1 corner;
and the graded F_p Hilbert function that ranks every weight block, not one
per Weyl orbit, here on this file's own determinant, elimination, minor
index sets and torus weights.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import isqrt

from kalmanres.bott import GrassmannianContext, cohomology_of_summand
from kalmanres.geometric import (
    BettiTable,
    HilbertSeries,
    hilbert_series,
    xi_exterior_decomposition,
)
from kalmanres.partitions import (
    Partition,
    dual_weight,
    is_weakly_decreasing,
    partitions_in_box,
    schur_rank,
)
from kalmanres.resolutions import table_w_line
from kalmanres.schur import lr_product


# -- semistandard tableaux ----------------------------------------------------


@lru_cache(maxsize=None)
def ssyt_count(shape, n) -> int:
    """Number of semistandard tableaux of the given shape with entries in
    1..n: rows weakly increase, columns strictly increase."""
    shape = tuple(shape)
    if not shape:
        return 1
    rows = len(shape)

    def fill(r, c, prev_row, cur_row):
        if c == shape[r]:
            if r + 1 == rows:
                return 1
            return fill(r + 1, 0, cur_row, ())
        lo = cur_row[c - 1] if c else 1
        if r:
            lo = max(lo, prev_row[c] + 1)
        return sum(
            fill(r, c + 1, prev_row, cur_row + (v,)) for v in range(lo, n + 1)
        )

    return fill(0, 0, (), ())


# -- Gaussian binomial --------------------------------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_div_one_minus_tk(coeffs, k, total_len):
    # exact division by (1 - t^k): q_j = num_j + q_{j-k}
    out = [0] * total_len
    for j in range(total_len):
        c = coeffs[j] if j < len(coeffs) else 0
        out[j] = c + (out[j - k] if j >= k else 0)
    return out

def gaussian_binomial(r, c):
    """Coefficient list of prod_{i=1..r} (1 - t^{c+i}) / (1 - t^i); entry q
    counts partitions of q inside an r x c box."""
    top = r * c
    num = [1]
    for i in range(1, r + 1):
        factor = [0] * (c + i + 1)
        factor[0], factor[c + i] = 1, -1
        num = _poly_mul(num, factor)
    for i in range(1, r + 1):
        num = _poly_div_one_minus_tk(num, i, len(num))
    assert all(x == 0 for x in num[top + 1 :])
    return num[: top + 1]


def box_count(q, r, c):
    if q > r * c:
        return 0
    return gaussian_binomial(r, c)[q]


# -- strips -------------------------------------------------------------------


def horizontal_strips(mu, k):
    """All nu with nu/mu a horizontal strip of size k, as sorted tuples."""
    mu = tuple(mu)
    rows = len(mu) + 1
    padded = mu + (0,)
    results = []

    def rec(i, remaining, built):
        if i == rows:
            if remaining == 0:
                results.append(tuple(p for p in built if p))
            return
        lo = padded[i]
        hi = built[-1] if built else lo + remaining
        if i > 0:
            hi = min(hi, mu[i - 1])  # no two added boxes in one column
        hi = min(hi, lo + remaining)
        for v in range(lo, hi + 1):
            rec(i + 1, remaining - (v - lo), built + (v,))

    rec(0, k, ())
    return sorted(set(results), reverse=True)


def vertical_strips(mu, k):
    """All nu with nu/mu a vertical strip of size k (at most one new box per
    row), as sorted tuples."""
    mu = tuple(mu)
    rows = len(mu) + k
    padded = mu + (0,) * k
    results = []

    def rec(i, remaining, built):
        if i == rows:
            if remaining == 0:
                results.append(tuple(p for p in built if p))
            return
        for add in (0, 1):
            if add > remaining:
                continue
            v = padded[i] + add
            if built and v > built[-1]:
                continue
            rec(i + 1, remaining - add, built + (v,))

    rec(0, k, ())
    return sorted(set(results), reverse=True)


# -- Schur polynomial expansion ----------------------------------------------


@lru_cache(maxsize=None)
def schur_monomials(shape, nvars):
    """The Schur polynomial s_shape(x_1..x_nvars) as {exponent: coeff},
    summing x^content over semistandard tableaux."""
    shape = tuple(shape)
    if not shape:
        return {(0,) * nvars: 1}
    rows = len(shape)
    out = {}

    def fill(r, c, prev_row, cur_row, content):
        if c == shape[r]:
            if r + 1 == rows:
                key = tuple(content)
                out[key] = out.get(key, 0) + 1
                return
            fill(r + 1, 0, cur_row, (), content)
            return
        lo = cur_row[c - 1] if c else 1
        if r:
            lo = max(lo, prev_row[c] + 1)
        for v in range(lo, nvars + 1):
            content[v - 1] += 1
            fill(r, c + 1, prev_row, cur_row + (v,), content)
            content[v - 1] -= 1

    fill(0, 0, (), (), [0] * nvars)
    return out


def schur_product_expansion(lam, mu):
    """Expand s_lam * s_mu back into Schur polynomials by leading-monomial
    peeling (the lex-greatest exponent of a symmetric polynomial is a
    partition, and s_nu = x^nu + lex-smaller terms).  Returns
    {partition: coefficient}; the standard independent route to LR numbers."""
    lam, mu = tuple(lam), tuple(mu)
    nvars = max(sum(lam) + sum(mu), 1)
    a = schur_monomials(lam, nvars)
    b = schur_monomials(mu, nvars)
    poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            poly[k] = poly.get(k, 0) + va * vb
    result = {}
    while True:
        live = [k for k, v in poly.items() if v]
        if not live:
            break
        lead = max(live)
        assert tuple(sorted(lead, reverse=True)) == lead
        coeff = poly[lead]
        nu = tuple(p for p in lead if p)
        result[nu] = coeff
        for k, v in schur_monomials(nu, nvars).items():
            poly[k] = poly.get(k, 0) - coeff * v
    return result


# -- LR coefficients by cell-by-cell backtracking -----------------------------


@lru_cache(maxsize=None)
def lr_coefficient_cells(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu}.

    Counts column-strict skew tableaux of shape nu/lam and content mu whose
    reverse reading word (right to left along rows, top row first) is a
    lattice word.  Cells are filled in reverse reading order so the lattice
    condition prunes as we go.
    """
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    for inner in (lam, mu):
        if len(inner) > len(nu) or any(a < b for a, b in zip(nu, inner)):
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


# -- integer determinants ------------------------------------------------------


def leibniz_det(a) -> int:
    """Determinant over the integers: the Leibniz sum over permutations."""
    total = 0
    for perm in permutations(range(len(a))):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(len(a)), 2))
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


# -- the two Hilbert-series routes without vanishing pre-tests -----------------


def cohomology_table_unfiltered(ctx, q):
    """cohomology_table with every summand of the complete decomposition of
    wedge^q(xi) pushed through cohomology_of_summand."""
    table = {}
    for summand in xi_exterior_decomposition(ctx, q):
        res = cohomology_of_summand(summand.lambda_r, summand.mu_qstar, ctx)
        if res.is_zero:
            continue
        eta = Partition(res.weight)
        table.setdefault(res.degree, Counter())[(eta, summand.nu_w)] += summand.mult
    return table


def hilbert_series_normalization_unfiltered(ctx):
    """The LR-based oracle for hilbert_series_normalization: the Weyl product
    taken on every summand of the complete Cauchy + LR decomposition of each
    wedge^q(xi), where the library route uses skew ranks instead."""
    coeffs = [0] * (ctx.xi_rank + 1)
    for q in range(ctx.xi_rank + 1):
        total = 0
        for summand in xi_exterior_decomposition(ctx, q):
            nu = dual_weight(summand.mu_qstar.pad(ctx.rank_quot)) + summand.lambda_r.pad(
                ctx.rank_sub
            )
            chi = weyl_euler_characteristic(nu, ctx.d)
            if chi:
                total += summand.mult * chi * schur_rank(summand.nu_w, ctx.dim_w)
        coeffs[q] = total if q % 2 == 0 else -total
    return HilbertSeries(tuple(coeffs), ctx.n * ctx.n)


# -- the Koszul strands from unbounded products --------------------------------


def koszul_table_filtered(generators, ctx):
    """koszul_table as it was before its products took a row bound: each
    unbounded LR product, then every label of more than d resp. dim W rows
    dropped."""
    d, w = ctx.d, ctx.dim_w
    table = BettiTable(ctx)
    gens = [(Partition(lam), Partition(mu), int(c)) for (lam, mu, c) in generators]
    for i in range(d * w + 1):
        for nu in partitions_in_box(i, d, w):
            nu_conj = nu.conjugate()
            for lam, mu, c in gens:
                for left, cl in lr_product(lam, nu).items():
                    if left.length() > d:
                        continue
                    for right, cr in lr_product(mu, nu_conj).items():
                        if right.length() > w:
                            continue
                        table.add(i, i + c, left, right, cl * cr)
    return table


# -- the cancellation specs as they were written by hand -----------------------


def d2_cancellations(n: int) -> BettiTable:
    """Comparison-map isomorphisms for the d=2 cone: the divided-power
    summand (i; 1^i) at degree i+1, for i = 0..n-2."""
    spec = BettiTable(GrassmannianContext(1, 2, n))
    for i in range(n - 1):
        spec.add(i, i + 1, (i,), (1,) * i)
    return spec


def d3_stage1_cancellations(n: int) -> BettiTable:
    spec = BettiTable(GrassmannianContext(2, 3, n))
    for i, e, lam, mu in [
        (0, 2, (), ()),
        (1, 3, (1,), (1,)),
        (2, 4, (2,), (1, 1)),
        (2, 4, (1, 1), (2,)),
        (3, 5, (3,), (1, 1, 1)),
        (3, 5, (2, 1), (2, 1)),
    ]:
        spec.add_nonzero(i, e, lam, mu)
    return spec


def d3_stage2_cancellations(n: int) -> BettiTable:
    spec = BettiTable(GrassmannianContext(1, 3, n))
    for i, e, lam, mu in [
        (0, 1, (), ()),
        (0, 2, (), ()),
        (1, 3, (1, 1), (1, 1)),
        (1, 3, (1,), (1,)),
        (2, 4, (2, 1), (1, 1, 1)),
        (2, 4, (2,), (1, 1)),
    ]:
        spec.add_nonzero(i, e, lam, mu)
    return spec


# -- the inductive sequence replayed in the n = d+1 corner ----------------------


def replayed_w_line_prediction(d):
    """Replay 0 -> C_s -> N_s -> C_{s+1}(-s) -> 0 downward from C_{d+1} = 0,
    taking each N_s from the closed-form table_w_line(s, d); returns C_1."""
    tail = HilbertSeries((), (d + 1) ** 2)
    for s in range(d, 0, -1):
        tail = hilbert_series(table_w_line(s, d)) - tail.shift(s)
    return tail


# -- misc ---------------------------------------------------------------------


def weyl_dimension(weight):
    """Dimension of the GL(len(weight)) irreducible with the given weakly
    decreasing weight, by the Weyl product over positive roots, computed
    with fractions to stay honest about exactness."""
    from fractions import Fraction

    d = len(weight)
    out = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            out *= Fraction(weight[i] - weight[j] + j - i, j - i)
    assert out.denominator == 1
    return int(out)


def weyl_euler_characteristic(weight, d: int) -> int:
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


# -- bott oracles ---------------------------------------------------------------
#
# Ranks of irreducibles with a dominant weight, and sections by Kempf's
# vanishing theorem.  Both use the library's Partition type and hook-content
# rank; the tests compare them with the Bott algorithm and the Weyl product.


def weight_rank(w, n):
    """Rank of the irreducible with a weakly decreasing integer weight.

    Twisting by a power of the determinant shifts the weight by a constant
    without changing the rank, so shift to a partition first.
    """
    if len(w) > n and any(w[n:]):
        raise ValueError(f"weight {w} too long for rank {n}")
    if not is_weakly_decreasing(w):
        raise ValueError(f"weight must be weakly decreasing: {w}")
    if not w:
        return 1
    c = min(w[-1], 0)
    if len(w) < n and c < 0:
        raise ValueError(f"negative weight {w} needs explicit length {n}")
    return schur_rank(Partition(x - c for x in w), n)


def kempf_h0(alpha, beta, ctx):
    """Sections of the dual-side bundle with partition weight alpha on R* and
    beta on Q*.

    If the concatenation (alpha padded to length s, beta) is a partition,
    i.e. alpha_s >= beta_1, all sections form the irreducible on the dual of
    the ambient space labelled by that concatenation, and there is no higher
    cohomology.  Otherwise the bundle has no sections at all and None is
    returned.  This statement is characteristic-free; in characteristic zero
    it must agree with bott() on the dualized weights.
    """
    alpha = Partition(alpha)
    beta = Partition(beta)
    if alpha.length() > ctx.rank_sub:
        raise ValueError(f"{alpha!r} exceeds rank {ctx.rank_sub} of the sub-bundle")
    if beta.length() > ctx.rank_quot:
        raise ValueError(f"{beta!r} exceeds rank {ctx.rank_quot} of the quotient")
    if alpha.part(ctx.rank_sub - 1) < beta.part(0):
        return None
    return Partition(alpha.pad(ctx.rank_sub) + tuple(beta))


# -- Jacobian of the minors over F_p ------------------------------------------


def laplace_det(a, p):
    """Determinant over F_p by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0] % p
    total = 0
    for j, x in enumerate(a[0]):
        if x:
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            total += (-1) ** j * x * laplace_det(minor, p)
    return total % p


def laplace_adjugate(a, p):
    """adj(a)[i][j] = (-1)^(i+j) det(a without row j and column i) over F_p,
    so that a adj(a) = det(a) I."""
    size = len(a)
    if size == 1:
        return [[1]]
    return [
        [
            (-1) ** (i + j)
            * laplace_det([r[:i] + r[i + 1 :] for t, r in enumerate(a) if t != j], p)
            % p
            for j in range(size)
        ]
        for i in range(size)
    ]


def rank_mod_p(rows, p):
    """Rank over F_p by Gaussian elimination on lists of Python ints."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        top = rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def minors_jacobian_rank(phi, d, k, p):
    """Rank over F_p of the Jacobian of every k-minor of the stacked matrix
    (gamma; gamma alpha; ...; gamma alpha^{d-1}) of phi (a list of rows), in
    the n^2 entries x of phi.  Entry (minor, x) of the Jacobian is
    trace(adj(sub) d(sub)/dx); the derivative of the stack follows the product
    rule d(G alpha) = dG alpha + G d(alpha)."""
    n = len(phi)
    alpha = [row[:d] for row in phi[:d]]

    def stack_and_derivative(dphi):
        g, dg = [row[:d] for row in phi[d:]], [row[:d] for row in dphi[d:]]
        dalpha = [row[:d] for row in dphi[:d]]
        blocks, dblocks = [], []
        for _ in range(d):
            blocks += g
            dblocks += dg
            g, dg = _matmul(g, alpha, p), [
                [(x + y) % p for x, y in zip(r1, r2)]
                for r1, r2 in zip(_matmul(dg, alpha, p), _matmul(g, dalpha, p))
            ]
        return blocks, dblocks

    units = [
        [[int((i, j) == (r, c)) for j in range(n)] for i in range(n)]
        for r in range(n)
        for c in range(n)
    ]
    stack = stack_and_derivative(units[0])[0]
    derivatives = [stack_and_derivative(unit)[1] for unit in units]
    jac = []
    for rows in combinations(range(len(stack)), k):
        for cols in combinations(range(d), k):
            adj = laplace_adjugate([[stack[i][j] for j in cols] for i in rows], p)
            jac.append(
                [
                    sum(
                        adj[a][b] * ds[rows[b]][cols[a]]
                        for a in range(k)
                        for b in range(k)
                    )
                    % p
                    for ds in derivatives
                ]
            )
    return rank_mod_p(jac, p)


# -- moduli -------------------------------------------------------------------


def is_prime_by_trial_division(p):
    """Whether p is a prime: p >= 2 and no q with 2 <= q <= sqrt(p) divides it."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


# -- elimination over F_p -----------------------------------------------------


def echelon_unblocked(mat, p):
    """Row echelon form over F_p by one int64 rank-1 update per pivot: the
    pivot is the first nonzero row, it is scaled to 1 and the rows below it
    are eliminated across every column to its right.  Returns (e, pivots)
    in the format of kalman._echelon, which must match it bit for bit."""
    import numpy as np

    e = np.array(mat, dtype=np.int64) % p
    rows, cols = e.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nonzero = np.nonzero(e[r:, c])[0]
        if nonzero.size == 0:
            continue
        i = r + int(nonzero[0])
        if i != r:
            e[[r, i]] = e[[i, r]]
        inv = pow(int(e[r, c]), p - 2, p)
        e[r, c:] = (e[r, c:] * inv) % p
        below = np.nonzero(e[r + 1 :, c])[0]
        if below.size:
            f = e[r + 1 + below, c][:, None]
            e[r + 1 + below, c:] = (e[r + 1 + below, c:] - f * e[r, c:]) % p
        pivots.append(c)
    return e, pivots


def reduced_echelon(mat, p):
    """Reduced row echelon form over F_p: echelon_unblocked, then every
    pivot column cleared above its pivot by back-substitution.  Returns
    (e, pivots) with unit pivots."""
    e, pivots = echelon_unblocked(mat, p)
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        e[:r] = (e[:r] - e[:r, c : c + 1] * e[r]) % p
    return e, pivots


# -- seeded sampling, one seed at a time ----------------------------------------


def splitmix64_stream(seed):
    """The outputs of SplitMix64 from seed, one at a time, by the recurrence
    state += 0x9E3779B97F4A7C15 and the xor-shift-multiply mix on Python
    ints."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def splitmix64_draws(seed, count):
    return list(islice(splitmix64_stream(seed), count))


def _draw_matrix(stream, rows, cols, p):
    """The stream's next rows x cols outputs mod p, row by row."""
    import numpy as np

    return np.array([next(stream) % p for _ in range(rows * cols)], dtype=np.int64).reshape(rows, cols)


def sample_member_oracle(s, d, n, seed, p):
    """kalman.sample_member for one seed, on Python ints: phi (n x n), then
    x ((d-s) x s), from the stream; U = [I_s; x; 0], and phi's first s
    columns become U b - phi[:, s:d] x, b the drawn phi[:s, :s]."""
    import numpy as np

    stream = splitmix64_stream(seed)
    phi = _draw_matrix(stream, n, n, p).astype(object)
    x = _draw_matrix(stream, d - s, s, p).astype(object)
    u = np.zeros((n, s), dtype=object)
    u[:s] = np.eye(s, dtype=int)
    u[s:d] = x
    phi[:, :s] = (u @ phi[:s, :s] - phi[:, s:d] @ x) % p
    return phi.astype(np.int64)


def sample_generic_oracle(n, seed, p):
    """kalman.sample_generic for one seed: the first n x n draws mod p."""
    return _draw_matrix(splitmix64_stream(seed), n, n, p)


def kalman_stack(phi, d, p):
    """The stack (gamma; gamma alpha; ...; gamma alpha^{d-1}) over F_p of phi,
    or of each phi of a stack (..., n, n), from exact object-dtype products."""
    import numpy as np

    phi = np.asarray(phi, dtype=object) % p
    alpha, blocks = phi[..., :d, :d], [phi[..., d:, :d]]
    for _ in range(d - 1):
        blocks.append(blocks[-1] @ alpha % p)
    return np.concatenate(blocks, axis=-2).astype(np.int64)


def kalman_stack_rank(phi, d, p):
    """Rank over F_p of the stack (gamma; gamma alpha; ...) of one phi."""
    return len(echelon_unblocked(kalman_stack(phi, d, p), p)[1])


# -- Hilbert function by evaluation -------------------------------------------
#
# The two oracles below compute the Hilbert function over all n^2 variables
# of A, where the library ranks rows over the n d variables of A_0 =
# k[alpha, gamma] and convolves; they draw other points, so they agree with it
# by value, not point for point, which checks the reduction to A_0 and the
# convolution.  They draw with the library's SplitMix64 (checked on its own
# against splitmix64_stream); everything after that is their own: the stacks
# come from kalman_stack, the minors from permutation_det, the ranks from
# echelon_unblocked, the minor index sets from stack_minors and the torus
# weights from torus_weight.


def permutation_det(a, p):
    """Determinants over F_p of a stack of square matrices, shape (..., k, k),
    by the Leibniz formula: the sum over permutations sigma of sign(sigma)
    times the product of the a[i, sigma(i)], vectorised over the leading
    axes."""
    import numpy as np

    a = np.asarray(a, dtype=np.int64) % p
    size = a.shape[-1]
    total = np.zeros(a.shape[:-2], dtype=np.int64)
    for sigma in permutations(range(size)):
        term = np.ones(a.shape[:-2], dtype=np.int64)
        for i, j in enumerate(sigma):
            term = term * a[..., i, j] % p
        inversions = sum(sigma[i] > sigma[j] for i, j in combinations(range(size), 2))
        total = (total - term if inversions % 2 else total + term) % p
    return total


def stack_minors(s, d, n):
    """(rows, cols, degree) of every (d-s+1)-minor of the d(n-d) x d stack
    (gamma; gamma alpha; ...; gamma alpha^{d-1}): rows of block j are
    polynomials of degree j+1 in phi, so a minor's degree is the sum over its
    rows."""
    k = d - s + 1
    return [
        (rows, cols, sum(r // (n - d) + 1 for r in rows))
        for rows in combinations(range(d * (n - d)), k)
        for cols in combinations(range(d), k)
    ]


def torus_weight(d, n, rows, cols, mono):
    """Weight in Z^n of (the minor on rows x cols) times (the product of the
    variables in mono) under phi -> t phi t^-1, t = diag(t_1, ..., t_n).
    Variable a n + b is phi[a, b], of weight e_a - e_b, and n^2 is the
    constant 1.  Stack row r is row d + r mod (n-d) of phi times powers of
    alpha, so the minor weighs e_{d + r mod (n-d)} per row and -e_c per
    column c."""
    w = [0] * n
    for r in rows:
        w[d + r % (n - d)] += 1
    for c in cols:
        w[c] -= 1
    for var in mono:
        if var < n * n:
            w[var // n] += 1
            w[var % n] -= 1
    return tuple(w)


def hilbert_function_dense(s, d, n, k_max, seed, p):
    """The Hilbert function of A / (minor ideal) by evaluation in all n^2
    variables, without the torus grading: in each degree k, one evaluation
    matrix holds every (minor x monomial) row at min(rows, C(n^2+k-1, k)) +
    HF_MARGIN points, and dim I_k is its largest rank over HF_REPEATS point
    sets.  kalman.numeric_hilbert_function must return the same values; it
    ranks rows in A_0 at other points, so they match by value."""
    from itertools import combinations_with_replacement
    from math import comb

    import numpy as np

    from kalmanres.kalman import HF_MARGIN, HF_REPEATS, SplitMix64

    nn = n * n
    minors = stack_minors(s, d, n)
    minor_rows = np.array([rows for rows, _, _ in minors])[:, :, None]
    minor_cols = np.array([cols for _, cols, _ in minors])[:, None, :]
    rng = SplitMix64([seed])  # one stream, drawn as arrays
    hf = []
    for k in range(k_max + 1):
        row_specs = [
            (idx, mono)
            for idx, (_, _, deg) in enumerate(minors)
            if deg <= k
            for mono in combinations_with_replacement(range(nn), k - deg)
        ]
        dim_k = 0
        for _ in range(HF_REPEATS if row_specs else 0):
            npts = min(len(row_specs), comb(nn + k - 1, k)) + HF_MARGIN
            flats = np.empty((npts, nn), dtype=np.int64)
            stacks = np.empty((npts, d * (n - d), d), dtype=np.int64)
            for t in range(npts):
                phi = rng.matrix(n, n, p)[0]
                flats[t] = phi.reshape(-1)
                stacks[t] = kalman_stack(phi, d, p)
            minor_vals = permutation_det(stacks[:, minor_rows, minor_cols], p)
            mat = np.empty((len(row_specs), npts), dtype=np.int64)
            for r, (idx, mono) in enumerate(row_specs):
                vals = minor_vals[:, idx].copy()
                for var in mono:
                    vals = (vals * flats[:, var]) % p
                mat[r] = vals
            dim_k = max(dim_k, len(echelon_unblocked(mat, p)[1]))
        hf.append(comb(nn + k - 1, k) - dim_k)
    return hf


def hilbert_function_all_weights(s, d, n, k_max, seed, p):
    """The Hilbert function of A / (minor ideal) by evaluation in all n^2
    variables, graded by the torus but without the Levi's Weyl group: every
    weight block of the (minor x monomial) rows in A is evaluated and
    eliminated, and dim I_k is the sum of all their ranks.
    kalman.numeric_hilbert_function, which ranks one block per Weyl orbit of
    the rows in A_0 and convolves, must return the same values."""
    from itertools import combinations_with_replacement
    from math import comb

    import numpy as np

    from kalmanres.kalman import HF_MARGIN, HF_REPEATS, SplitMix64

    nn = n * n
    dims = [comb(nn + k - 1, k) for k in range(k_max + 1)]
    minors = stack_minors(s, d, n)
    minor_rows = np.array([rows for rows, _, _ in minors])
    minor_cols = np.array([cols for _, cols, _ in minors])
    rng = SplitMix64([seed])  # one stream, drawn as arrays
    hf = []
    for k in range(k_max + 1):
        # row = (minor idx[i]) x (monomial monos[i]), padded to length k by
        # the constant 1 (variable nn); blocks: weight -> its rows
        idx, monos, blocks = [], [], {}
        for i, (rows, cols, deg) in enumerate(minors):
            if deg <= k:
                for mono in combinations_with_replacement(range(nn), k - deg):
                    blocks.setdefault(torus_weight(d, n, rows, cols, mono), []).append(len(idx))
                    idx.append(i)
                    monos.append(mono + (nn,) * deg)
        dim_k = 0
        if idx:
            idx, monos = np.array(idx), np.array(monos)
            ranks = dict.fromkeys(blocks, 0)
            npts = min(max(map(len, blocks.values())), dims[k]) + HF_MARGIN
            for _ in range(HF_REPEATS):
                phis = rng.matrix(npts * n, n, p).reshape(npts, n, n)  # as npts matrix(n, n, p)
                flats = np.hstack([phis.reshape(npts, nn), np.ones((npts, 1), dtype=np.int64)])
                stacks = kalman_stack(phis, d, p)
                minor_vals = permutation_det(stacks[:, minor_rows[:, :, None], minor_cols[:, None, :]], p)
                for w, block in blocks.items():
                    m = min(len(block), dims[k]) + HF_MARGIN
                    vals = minor_vals[:m, idx[block]]
                    for j in range(k):
                        vals = vals * flats[:m, monos[block, j]] % p
                    # points x rows: its rank is the rank of the block's rows
                    ranks[w] = max(ranks[w], len(echelon_unblocked(vals, p)[1]))
            dim_k = sum(ranks.values())
        hf.append(dims[k] - dim_k)
    return hf
