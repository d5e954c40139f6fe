"""Numerical ground truth over a large prime field.

Everything here works directly with matrices, independent of the
representation-theoretic machinery: build the stacked matrix (gamma;
gamma*alpha; ...; gamma*alpha^{d-1}) whose minor vanishing cuts out the
variety, sample points on and off it, measure the Jacobian rank of the
minors, and estimate the minor ideal's Hilbert function by evaluation in
A_0 = k[alpha, gamma], the ring of the minors, one rank per weight of the
diagonal torus up to the Levi's Weyl group.  Under phi -> t phi t^-1, t =
diag(t_1, ..., t_n), x_ab = phi[a, b] weighs e_a - e_b and a product the sum
of its factors' weights, so a minor of the stack M adds e_{d + r mod (n-d)}
per row r (row d + r mod (n-d) of phi times alpha^j) and -e_c per column c.
The Levi GL(L) x GL(V/L) maps M to (I x B) M A^-1, so it keeps A_0 and each
I_k in it, and S_d x S_{n-d} permutes the weight blocks, sizes and ranks.

One point is computed on Python ints and a batch of points on numpy, and
the input selects the path: an int seed draws one point, whose phi, stack
and matrices are tuples of int rows, and a sequence of seeds draws a stack
(..., n, n) of int64 arrays.  One matrix is ranked by _echelon_rows, a
forward elimination with unit pivots on Python ints, which also serves
_left_kernel and the Jacobian rank of jacobian_codim; its matrices are a few
dozen rows and columns (at most 24 x 35 on the benchmark), where a numpy
call costs more than the arithmetic.  Batches keep three numpy kernels: a
stack (..., r, c) of small matrices goes through _gauss_jordan, one unblocked
loop over the columns for the whole stack, and numeric_hilbert_function's
weight blocks, up to about a thousand rows, through the blocked _echelon
(panels of BLOCK = 64 columns, each reaching the columns to its right as one
modular matrix product).  Array products mod p run on float64 BLAS: the left
operand is split into 16-bit limbs, so a GEMM over at most 64 terms sums
integers below 2^47 and every partial sum stays below 2^53, where float64 is
exact; every entry point checks that p is a prime below 2^31, and reads p,
sizes, seeds and entries with operator.index, so a float raises TypeError.
The Jacobian of the k-minors is never formed: at a member the stack M has
rank <= k-1; if rank M = k-1 its rank is that of the rows u_a (dM/dphi) v_b
over kernel bases u_a M = 0 = M v_b, and if rank M < k-1 it is 0.

All randomness flows through SplitMix64 (documented below) so that every
result is reproducible bit-for-bit from its seed, on either path.

numpy is imported only inside the functions that build or take a stack, not
at module level: the CLI and the package import this module, and a call
that never makes a stack (the symbolic subcommands, codim, which checks one
point, and hf until a degree has rows) would otherwise spend most of its
start-up loading numpy.  The CLI pins OpenBLAS to one thread before numpy
loads; this module sets no thread count, so a library caller keeps its own.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod
from operator import index, mul

P_DEFAULT = (1 << 31) - 1  # Mersenne prime; every modulus must be a prime below 2^31

# 64 * (2^16 - 1) * (2^31 - 1) < 2^53: a float64 GEMM of 16-bit limbs against
# residues below 2^31 is exact over at most BLOCK terms
BLOCK = 64
CHUNK = 256  # rows per trailing update, which bounds its float64 temporaries

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment
# no composite below 3,215,031,751 > 2^31 is a strong pseudoprime to all four
_PRIME_BASES = (2, 3, 5, 7)


@lru_cache(maxsize=None, typed=True)  # typed: a cached np.int64(7) must not admit 7.0
def _check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime with 2 <= p < 2^31: int64
    products of two residues and the float64 limb products of _matmul_mod
    are exact only below 2^31, and elimination needs every nonzero pivot
    to have an inverse, which holds only for prime p.

    Primality is Miller-Rabin to _PRIME_BASES, exact in this range: with
    p - 1 = 2^r t, t odd, a prime p has a^t = 1 or a^(2^i t) = -1 mod p for
    some i < r, for every base a that p does not divide."""
    p = index(p)
    if not (2 <= p < 1 << 31 and (p in _PRIME_BASES or all(_strong_probable_prime(p, a) for a in _PRIME_BASES))):
        raise ValueError(f"modulus must be a prime p with 2 <= p < 2^31, got {p}")


def _strong_probable_prime(p: int, a: int) -> bool:
    """Whether p > 1 passes the Miller-Rabin round to base a."""
    t, r = p - 1, 0
    while t % 2 == 0:
        t, r = t // 2, r + 1
    x = pow(a, t, p)
    if x in (1, p - 1):
        return True
    for _ in range(r - 1):
        x = x * x % p
        if x == p - 1:
            return True
    return False


def _mix(z):
    """SplitMix64's output function of a state in [0, 2^64), an int or a uint64 array (which wraps mod 2^64)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 streams: one for an int seed, one per seed of a flat
    sequence, every seed read with operator.index (a float raises TypeError).

    The state steps by G = 0x9E3779B97F4A7C15 mod 2^64 and each output mixes
    the new state (_mix), so output j >= 1 of seed sigma is mix(sigma + j G
    mod 2^64): one expression gives every draw of every stream.  One stream
    runs on Python ints and a sequence on numpy uint64, through the one _mix
    and state step.  Field elements are outputs mod p; for p near 2^31 the
    bias is below 2^-32 per draw, far under the tests' Schwartz-Zippel terms."""

    def __init__(self, seed):
        if hasattr(seed, "__len__"):  # a sequence of seeds (an array has __index__ too)
            seeds = [index(x) & _MASK64 for x in seed]
            import numpy as np
            self.shape, self.state = (len(seeds),), np.array(seeds, dtype=np.uint64)
        else:
            self.shape, self.state = (), index(seed) & _MASK64

    def _next(self, count: int):
        """The next count outputs: a list for one stream, a uint64 array
        (streams, count) for a sequence.  count G is reduced mod 2^64 before
        the step, since a uint64 array refuses a larger int."""
        start, self.state = self.state, (self.state + (count * _GAMMA & _MASK64)) & _MASK64
        if not self.shape:
            return [_mix((start + j * _GAMMA) & _MASK64) for j in range(1, count + 1)]
        import numpy as np
        return _mix(start[:, None] + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA))

    def matrix(self, rows: int, cols: int, p: int):
        """Each stream's next rows x cols draws mod p, row by row: a tuple of
        int rows for one stream, an int64 array of shape self.shape + (rows,
        cols) for a sequence."""
        if not self.shape:
            draws = [x % p for x in self._next(rows * cols)]
            return tuple(tuple(draws[i * cols : (i + 1) * cols]) for i in range(rows))
        import numpy as np
        draws = self._next(rows * cols) % np.uint64(p)
        return draws.astype(np.int64).reshape(self.shape + (rows, cols))


# -- one matrix, as a tuple of int rows --------------------------------------


def _echelon_rows(rows, p: int):
    """Row echelon form over F_p of one matrix given by its int rows, on
    Python ints: (e, pivots), e a list of rows in which row i has a 1 in
    column pivots[i] and zeros below it, and the rows after len(pivots) are
    zero.  The rank is len(pivots).

    In each column the pivot is the first nonzero row at or below the rank so
    far; it is swapped up, scaled to 1 and subtracted from every row below
    it with a nonzero entry there.  These are the row operations of _echelon,
    so both give the same (e, pivots)."""
    e = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(e[0]) if e else 0):
        r = len(pivots)
        if r == len(e):
            break
        i = next((i for i in range(r, len(e)) if e[i][c]), None)
        if i is None:
            continue
        e[r], e[i] = e[i], e[r]
        inv = pow(e[r][c], -1, p)
        top = e[r] = [x * inv % p for x in e[r]]
        for j in range(r + 1, len(e)):
            f = e[j][c]
            if f:
                e[j] = [(x - f * y) % p for x, y in zip(e[j], top)]
        pivots.append(c)
    return e, pivots


def _left_kernel(m, p: int):
    """(u, rank(m)) for one matrix m of int rows: the rows of u are a basis
    of {x : x m = 0} over F_p.  Eliminating [m | I] records the row
    operations in the identity block; the rows left without a pivot in m
    are combinations killing m."""
    cols = len(m[0]) if m else 0
    e, pivots = _echelon_rows([[*row, *(int(i == j) for j in range(len(m)))] for i, row in enumerate(m)], p)
    rank = sum(c < cols for c in pivots)
    return [row[cols:] for row in e[rank:]], rank


def _mul_rows(a, b, p: int):
    """a @ b over F_p for matrices given by their int rows, b with at least one row."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a)


# -- batches of points, as int64 arrays --------------------------------------


def _echelon(mat: np.ndarray, p: int):
    """Row echelon form over F_p of a single matrix as an array (a weight
    block of numeric_hilbert_function).

    Forward elimination with unit pivots; returns (e, pivots) where row i of
    e has a 1 in column pivots[i] and zeros below it, and the rows after
    len(pivots) are zero.  The rank is len(pivots).

    The columns are taken in panels of BLOCK.  Within a panel the pivot is
    the first nonzero row, it is scaled to 1 and the rows below it are
    eliminated, on a copy of the panel's columns only; each multiplier and
    pivot inverse is recorded and each row swap applied to the whole row.
    With kp pivots found, the same operations reach the trailing columns as
    products: the kp pivot rows X become M X, M being the panel's operations
    on the kp x kp identity, and the rows below become A22 - L21 (M X) with
    L21 their multipliers, CHUNK rows at a time.  These are exactly the row
    operations of the unblocked loop, applied later, so (e, pivots) does not
    depend on BLOCK.  Entries stay below p < 2^31, so the panel's int64 row
    updates do not overflow and the products are exact (_matmul_mod)."""
    import numpy as np
    e = np.array(mat, dtype=np.int64) % p
    rows, cols = e.shape
    pivots = []
    for c0 in range(0, cols, BLOCK):
        r0 = len(pivots)
        if r0 == rows:
            break
        c1 = min(c0 + BLOCK, cols)
        panel = e[r0:, c0:c1].copy()
        mult = np.zeros((rows - r0, BLOCK), dtype=np.int64)
        invs = []
        for c in range(c1 - c0):
            r = len(invs)
            if r0 + r == rows:
                break
            nonzero = np.flatnonzero(panel[r:, c])
            if nonzero.size == 0:
                continue
            i = r + int(nonzero[0])
            if i != r:
                panel[[r, i]] = panel[[i, r]]
                mult[[r, i]] = mult[[i, r]]
                e[[r0 + r, r0 + i]] = e[[r0 + i, r0 + r]]
            inv = pow(int(panel[r, c]), -1, p)
            panel[r, c:] = panel[r, c:] * inv % p
            mult[r + 1 :, r] = panel[r + 1 :, c]
            panel[r + 1 :, c:] = (panel[r + 1 :, c:] - mult[r + 1 :, r, None] * panel[r, c:]) % p
            invs.append(inv)
            pivots.append(c0 + c)
        e[r0:, c0:c1] = panel
        kp = len(invs)
        if kp == 0 or c1 == cols:
            continue
        m = np.eye(kp, dtype=np.int64)
        for j, inv in enumerate(invs):
            m[j] = m[j] * inv % p
            m[j + 1 :] = (m[j + 1 :] - mult[j + 1 : kp, j, None] * m[j]) % p
        top = _matmul_mod(m, e[r0 : r0 + kp, c1:], p)
        e[r0 : r0 + kp, c1:] = top
        for i in range(r0 + kp, rows, CHUNK):
            block = e[i : i + CHUNK, c1:]
            block -= _matmul_mod(mult[i - r0 : i - r0 + CHUNK, :kp], top, p)
            block += p * (block < 0)  # a difference of residues: one add of p reduces it
    return e, pivots


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b over F_p (numpy matmul broadcasting), exact for p < 2^31.

    a is split into 16-bit limbs, a = 2^16 hi + lo with hi < 2^15 and
    lo < 2^16, and the inner dimension is taken BLOCK terms at a time: each
    float64 GEMM then sums at most 64 products below 2^47, so every partial
    sum is an integer below 2^53 and exact.  The sums go back to int64 for
    the reduction (np.fmod is many times slower than int64 %): the chunk
    is 2^16 (hi-sum mod p) + lo-sum < 2^54, and it is added to the running
    result mod p."""
    import numpy as np
    a = np.asarray(a, dtype=np.int64) % p
    b = (np.asarray(b, dtype=np.int64) % p).astype(np.float64)
    hi = (a >> 16).astype(np.float64)
    lo = (a & 0xFFFF).astype(np.float64)
    out = 0
    # an empty inner dimension still takes one (empty) chunk, for the shape
    for k in range(0, a.shape[-1] or 1, BLOCK):
        bk = b[..., k : k + BLOCK, :]
        hk = (hi[..., k : k + BLOCK] @ bk).astype(np.int64) % p
        lk = (lo[..., k : k + BLOCK] @ bk).astype(np.int64)
        out = (out + (hk << 16) + lk) % p
    return out


def _gauss_jordan(a: np.ndarray, p: int):
    """Gauss-Jordan over F_p on a stack (..., r, c): (e, rank), rank an int64
    array of shape (...), each e a reduced row echelon form with its rows left
    unscaled (pivots nonzero and alone in their columns).  One unblocked loop
    over the columns for the whole stack: in column c each matrix swaps up its
    first nonzero row at or below its rank so far, and every other row becomes
    pivot * row - row[c] * pivot_row (no inverse; products stay below 2^62)."""
    import numpy as np
    e = np.asarray(a, dtype=np.int64).reshape(prod(a.shape[:-2]), *a.shape[-2:]) % p
    _, rows, cols = e.shape
    rank, at = np.zeros(len(e), dtype=np.int64), np.arange(len(e))
    for c in range(cols if rows else 0):
        candidates = (e[:, :, c] != 0) & (np.arange(rows) >= rank[:, None])
        found, r = candidates.any(1), np.minimum(rank, rows - 1)
        i = np.where(found, candidates.argmax(1), r)
        e[at, r], e[at, i] = e[at, i], e[at, r]
        pivot_row = e[at, r]
        factors = e[:, :, c] * found[:, None]
        factors[at, r] = 0
        e *= np.where(found, pivot_row[:, c], 1)[:, None, None]
        e -= factors[:, :, None] * pivot_row[:, None, :]
        e %= p
        rank += found
    return e.reshape(a.shape), rank.reshape(a.shape[:-2])


def _minor_table(rows: int, cols: int, k: int):
    """The k-minors of a rows x cols matrix on every row and column k-subset,
    as a memoised Laplace expansion: one level (at, on, sub) per size j =
    1..k, keyed by the j-minors on rows at[i] and columns on[i] (size j needs
    only the columns in range(cols - k + j)).  Minor i is sum_t (-1)^(t+j-1)
    m[at[i, t], on[i, -1]] times the (j-1)-minor sub[i, t], on rows at[i]
    without at[i, t] and columns on[i, :-1], which is computed once."""
    import numpy as np
    levels, index = [], {((), ()): 0}
    for j in range(1, k + 1):
        keys = [(r, c) for r in combinations(range(rows), j) for c in combinations(range(cols - k + j), j)]
        sub = [[index[r[:t] + r[t + 1 :], c[:-1]] for t in range(j)] for r, c in keys]
        levels.append((np.array([r for r, _ in keys]), np.array([c for _, c in keys]), np.array(sub)))
        index = {key: i for i, key in enumerate(keys)}
    return levels


def _minor_values(stacks: np.ndarray, table: list, p: int) -> np.ndarray:
    """The k-minors over F_p of each matrix of a stack (..., rows, cols), in
    the order of the last level of table = _minor_table(rows, cols, k): shape (..., minors)."""
    import numpy as np
    stacks = np.asarray(stacks, dtype=np.int64) % p
    vals = np.ones(stacks.shape[:-2] + (1,), dtype=np.int64)
    for j, (at, on, sub) in enumerate(table, 1):
        terms = (stacks[..., at[:, t], on[:, -1]] * vals[..., sub[:, t]] % p for t in range(j))
        vals = sum((-1) ** (t + j - 1) * term for t, term in enumerate(terms)) % p
    return vals


def _entries(data, p: int):
    """One matrix (a sequence of rows or a 2-D array) as a tuple of int rows
    mod p, each entry read with operator.index, or a stack (an integer array
    (..., r, c); a float dtype raises TypeError) as an int64 array mod p."""
    if getattr(data, "ndim", 2) != 2:
        import numpy as np
        return np.asarray(data).astype(np.int64, casting="same_kind", copy=False) % p
    rows = tuple(tuple(index(x) % p for x in row) for row in data)
    if len({len(row) for row in rows}) > 1:
        raise ValueError("the rows of a matrix must have one length")
    return rows


def _shape(data):
    """(rows, cols) of a tuple of int rows, else the stack's shape."""
    if isinstance(data, tuple):
        return len(data), len(data[0]) if data else 0
    return data.shape


class FpMatrix(namedtuple("FpMatrix", "data p")):
    """Matrix over F_p with exact arithmetic, or a stack of them.

    One matrix is held as a tuple of int rows: it hashes, and it ranks on
    Python ints (_echelon_rows) without loading numpy, which suits the
    package's own matrices (at most 24 x 35 on the benchmark) and not large
    ones, whose elimination belongs to _echelon.  A stack (..., r, c) is an
    int64 array and ranks with _gauss_jordan."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, data, p: int = P_DEFAULT):
        _check_modulus(p)
        return super().__new__(cls, _entries(data, p), p)

    @property
    def shape(self):
        return _shape(self.data)

    def rank(self):
        """An int for one matrix, an int64 array for a stack."""
        if isinstance(self.data, tuple):
            return len(_echelon_rows(self.data, self.p)[1])
        return _gauss_jordan(self.data, self.p)[1]


class KalmanPoint(namedtuple("KalmanPoint", "d n phi p")):
    """An endomorphism in the basis adapted to the marked subspace L:
    the top-left d x d block acts on L, the bottom-left block is the
    obstruction to L-invariance.  phi is one n x n matrix, held as a tuple
    of int rows, or a stack (..., n, n), held as an int64 array (FpMatrix)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, d: int, n: int, phi, p: int = P_DEFAULT):
        _check_modulus(p)
        d, n, phi = index(d), index(n), _entries(phi, p)
        if _shape(phi)[-2:] != (n, n):
            raise ValueError("phi must be n x n")
        if not 1 <= d < n:
            raise ValueError("need 1 <= d < n")
        return super().__new__(cls, d, n, phi, p)

    @property
    def alpha(self):
        if isinstance(self.phi, tuple):
            return tuple(row[: self.d] for row in self.phi[: self.d])
        return self.phi[..., : self.d, : self.d]

    @property
    def gamma(self):
        if isinstance(self.phi, tuple):
            return tuple(row[: self.d] for row in self.phi[self.d :])
        return self.phi[..., self.d :, : self.d]


def reduced_kalman_matrix(pt: KalmanPoint) -> FpMatrix:
    """Vertical stack of gamma, gamma*alpha, ..., gamma*alpha^{d-1};
    shape d(n-d) x d, one per point of a stack.  Rows from the j-th block
    are values of degree-(j+1) polynomials in the entries of phi."""
    one = isinstance(pt.phi, tuple)
    blocks = [pt.gamma]
    for _ in range(pt.d - 1):
        blocks.append((_mul_rows if one else _matmul_mod)(blocks[-1], pt.alpha, pt.p))
    if one:
        return FpMatrix(sum(blocks, ()), pt.p)
    import numpy as np
    return FpMatrix(np.concatenate(blocks, axis=-2), pt.p)


def minors_vanish(m: FpMatrix, k: int):
    """True iff every k x k minor is zero, decided as rank < k (per matrix of a stack)."""
    k = index(k)
    if not 1 <= k <= min(m.shape[-2:]):
        raise ValueError("k out of range")
    return m.rank() < k


def sample_member(s: int, d: int, n: int, seed, p: int = P_DEFAULT) -> KalmanPoint:
    """Deterministic random point of the variety, drawn from its invariant
    s-plane: draw phi (n x n), then x ((d-s) x s), and let U = [I_s; x; 0],
    whose columns span an s-plane inside L.  With b the drawn phi[:s, :s],
    phi's first s columns become U b - phi[:, s:d] x, so phi U = U b exactly
    and phi is uniform among the maps that keep U.  U ranges over the
    s-planes in L that meet span(e_{s+1}..e_d) only in 0: a dense open set
    that misses O(1/p) of them.  An int seed gives one point on Python ints;
    a sequence of seeds gives a stack, each point as its seed gives it alone."""
    _check_modulus(p)
    s, d, n = index(s), index(d), index(n)
    if not 1 <= s <= d < n:
        raise ValueError("need 1 <= s <= d < n")
    rng = SplitMix64(seed)
    phi = rng.matrix(n, n, p)
    x = rng.matrix(d - s, s, p)
    if not rng.shape:  # one point, on Python ints
        u = [[int(a == c) for c in range(s)] for a in range(s)] + [list(row) for row in x] + [[0] * s] * (n - d)
        phi = [
            [
                (sum(u[a][t] * phi[t][c] for t in range(s)) - sum(row[s + t] * x[t][c] for t in range(d - s))) % p
                for c in range(s)
            ]
            + list(row[s:])
            for a, row in enumerate(phi)
        ]
        return KalmanPoint(d, n, phi, p)
    import numpy as np
    u = np.zeros(rng.shape + (n, s), dtype=np.int64)
    u[..., :s, :] = np.eye(s, dtype=np.int64)
    u[..., s:d, :] = x
    phi[..., :s] = (_matmul_mod(u, phi[..., :s, :s], p) - _matmul_mod(phi[..., s:d], x, p)) % p
    return KalmanPoint(d, n, phi, p)


def sample_generic(d: int, n: int, seed, p: int = P_DEFAULT) -> KalmanPoint:
    """Uniform random endomorphism (no invariance constraint), one per seed."""
    _check_modulus(p)
    d, n = index(d), index(n)
    return KalmanPoint(d, n, SplitMix64(seed).matrix(n, n, p), p)


def jacobian_codim(s: int, d: int, n: int, seed: int, p: int = P_DEFAULT) -> int:
    """Rank over F_p of the Jacobian of all k-minors of the stacked matrix M,
    k = d-s+1, evaluated at sample_member(s, d, n, seed).  Equals the
    variety's codimension when the sample lands in the smooth locus.  One
    point, on Python ints.

    The rank is read off the kernels of M instead of the minors.  A member
    has rank M <= k-1.  If rank M = k-1, write M = P diag(I_{k-1}, 0) Q: the
    differentials of the k-minors span the functionals N -> (P^-1 N Q^-1)_ij
    with i, j >= k, i.e. N -> u N v for u in the left and v in the right
    kernel of M (the tangent space of a determinantal variety).  So with
    kernel bases u_a, v_b the Jacobian rank is the rank of the matrix whose
    row (a, b) holds u_a (dM/dx) v_b for every entry x of phi.  If
    rank M < k-1, every cofactor of a k x k submatrix is a vanishing
    (k-1)-minor and the rank is 0.  At s = d, k = 1 and M = 0 at every
    member, so both kernels are everything and the rank is d(n-d).

    Row (a, b) is a gradient.  With M_j = gamma alpha^j the j-th block of M
    and u^j the matching part of u, u M v = sum_j u^j gamma alpha^j v, and
    d(gamma alpha^j) = d(gamma) alpha^j + sum_{i+1+m=j} M_i d(alpha) alpha^m,
    so u (dM) v pairs d(gamma) with sum_j (u^j)^T (alpha^j v)^T and d(alpha)
    with sum_m P_m^T (alpha^m v)^T, P_m = sum_{j>m} u^j M_{j-1-m}; the beta
    and delta entries of phi do not occur in M."""
    pt = sample_member(s, d, n, seed, p)  # checks the modulus and 1 <= s <= d < n
    stack = reduced_kalman_matrix(pt).data
    k = d - s + 1
    left, rank = _left_kernel(stack, p)
    if rank >= k:
        raise RuntimeError(f"sample has a nonzero {k}-minor, so it is not on the variety")
    if rank < k - 1:
        return 0
    w = n - d
    alpha_t = tuple(zip(*pt.alpha))
    powers = []  # (alpha^m v)^T for m < d, one list per v_b
    for v in _left_kernel(tuple(zip(*stack)), p)[0]:
        rows = [v]
        for _ in range(d - 1):
            rows += _mul_rows(rows[-1:], alpha_t, p)
        powers.append(rows)
    jac = []
    for u in left:
        # P_m = (u^{m+1}, ..., u^{d-1}) (M_0; ...; M_{d-2-m})
        pm = [_mul_rows([u[(m + 1) * w :]], stack[: (d - 1 - m) * w], p)[0] for m in range(d - 1)]
        for av in powers:
            jac.append(
                [sum(pm[m][r] * av[m][c] for m in range(d - 1)) % p for r in range(d) for c in range(d)]
                + [sum(u[j * w + r] * av[j][c] for j in range(d)) % p for r in range(w) for c in range(d)]
            )
    return len(_echelon_rows(jac, p)[1])


class BudgetExceededError(Exception):
    """numeric_hilbert_function would build `count` > `budget` entries, in `what`."""

    def __init__(self, what: str, count: int, budget: int):
        self.what, self.count, self.budget = what, count, budget
        super().__init__(f"{what} = {count} exceeds budget {budget}")


HF_MARGIN = 5  # evaluation points beyond the number of rows
HF_REPEATS = 2  # independent point sets per degree; the max rank is kept
HF_BUDGET = 1_000_000  # most minors in the table, and most row entries in one degree


def _weight_tables(d: int, n: int, rows: np.ndarray, cols: np.ndarray):
    """(minor_w, var_w): the torus weights in Z^n (module docstring) of the
    minors on rows x cols, one per row of those arrays, and of the variables
    of A_0: index a d + b is x_ab = phi[a, b] (b < d), index n d the constant."""
    import numpy as np
    eye = np.eye(n, dtype=np.int64)
    a, b = np.divmod(np.arange(n * d), d)
    var_w = np.vstack([eye[a] - eye[b], np.zeros((1, n), dtype=np.int64)])  # the constant weighs 0
    return eye[d + rows % (n - d)].sum(-2) - eye[cols].sum(-2), var_w


def _arrangements(w: list) -> int:
    """Number of distinct orderings of the entries of w (a multinomial)."""
    return factorial(len(w)) // prod(factorial(w.count(v)) for v in set(w))


def numeric_hilbert_function(s: int, d: int, n: int, k_max: int, seed: int, p: int = P_DEFAULT):
    """Hilbert function of A / (minor ideal) in degrees 0..k_max, estimated
    by evaluation.  The minors lie in A_0 = k[alpha, gamma], so the ideal is
    I' A with I' in A_0, and A is free over A_0 in the m = n^2 - n d other
    variables: HF_A(k) = sum_{j <= k} HF_{A_0/I'}(j) C(m + k - j - 1, k - j).
    dim I'_j = C(n d + j - 1, j) - HF_{A_0/I'}(j) is the dimension of the
    span of the R_j = sum_e M_e C(n d + j - e - 1, j - e) rows (minor x
    complementary monomial in A_0) of degree j, M_e the minors of degree e.

    Every row is a weight vector of the torus (_weight_tables), and vectors
    of distinct weights are linearly independent, so dim I'_j is the sum over
    weights of the rank of the rows of that weight.  The Levi keeps I'
    (module docstring), so only the dominant blocks, whose weights weakly
    decrease on [0, d) and on [d, n), are kept and ranked, each rank counted
    once per weight of its S_d x S_{n-d} orbit.  With D = C(n d + j - 1, j),
    each degree and repeat draws min(largest block, D) + HF_MARGIN points
    (the Weyl group keeps block sizes, so the largest block is dominant), a
    block of r rows is evaluated at the first min(r, D) + HF_MARGIN of them,
    and the largest rank over HF_REPEATS point sets is kept.

    Error: if a block's rows span a space of dimension rho <= r, its rank at
    the points is rho unless a nonzero rho x rho determinant, a polynomial of
    degree j rho in the points' coordinates, vanishes at them; by
    Schwartz-Zippel that has probability at most j r / p.  By the union bound
    over ranked blocks and degrees, every dim I'_j is exact with probability
    at least 1 - sum_j j R'_j / p, R'_j the number of dominant rows of degree
    j in A_0.  A failure only lowers a rank, which then counts low for its
    whole orbit, so HF_{A_0/I'} can only be overestimated, and so can HF_A,
    a combination of its values with positive coefficients.  That
    one-sidedness needs the grading to be right: rows put in different
    blocks by a wrong weight would have a common span counted twice.

    Refuses (BudgetExceededError) before _minor_table if it has over
    HF_BUDGET minors, or if a degree j <= k_max has over HF_BUDGET row
    entries (n + j) R_j, a weight in Z^n and j variables each.  Below the
    least minor degree there is no row and no table is built; else one
    table serves every degree and point set (_minor_values).
    """
    _check_modulus(p)
    s, d, n, k_max = index(s), index(d), index(n), index(k_max)
    if not 1 <= s <= d < n:
        raise ValueError("need 1 <= s <= d < n")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    nd, size, height = n * d, d - s + 1, d * (n - d)
    # _minor_table's level j holds the j-minors on the first d - size + j columns
    count = sum(comb(height, j) * comb(d - size + j, j) for j in range(1, size + 1))
    if count > HF_BUDGET:
        raise BudgetExceededError(f"minor count of the {size}-minor table of the {height} x {d} stack", count, HF_BUDGET)
    # M_e: the size-sets of stack rows of degree sum e (row r has degree
    # r // (n - d) + 1), ways[size][e], times the C(d, size) column sets
    ways = [Counter({0: comb(d, size)})] + [Counter() for _ in range(size)]
    for row in range(height):
        for r in range(size, 0, -1):
            for e, w in ways[r - 1].items():
                ways[r][e + row // (n - d) + 1] += w
    minors = dict(sorted(ways[size].items()))
    if k_max < min(minors):
        return [comb(n * n + k - 1, k) for k in range(k_max + 1)]  # no minor, no row: all of A
    for k in range(k_max + 1):
        count = sum(m * comb(nd + k - e - 1, k - e) for e, m in minors.items() if e <= k)
        if (n + k) * count > HF_BUDGET:
            raise BudgetExceededError(f"degree-{k} row entries {count} x ({n} + {k})", (n + k) * count, HF_BUDGET)
    import numpy as np  # only once a degree has rows
    table = _minor_table(height, d, size)
    minor_rows, minor_cols, _ = table[-1]
    degrees = (minor_rows // (n - d) + 1).sum(1)
    by_degree = {e: np.flatnonzero(degrees == e) for e in minors}
    minor_w, var_w = _weight_tables(d, n, minor_rows, minor_cols)
    rng = SplitMix64([seed])  # one stream, drawn as a stack of one: its points are arrays
    hf0, prev_dim = [], 0  # HF_{A_0/I'}, and dim I'_{k-1}
    for k in range(k_max + 1):
        dim = comb(nd + k - 1, k)
        # the dominant rows of degree k: minor idx[i] x monomial monos[i] in
        # A_0, padded by the constant 1 (variable nd), of weight weights[i]
        parts = []
        for e, g in [(e, g) for e, g in by_degree.items() if e <= k]:
            pad = np.array([m + (nd,) * e for m in combinations_with_replacement(range(nd), k - e)], dtype=np.int64)
            weights = minor_w[g, None] + var_w[pad].sum(-2)
            # one block per S_d x S_{n-d} orbit: its weight weakly decreases on [0, d) and [d, n)
            dominant = (np.diff(weights[..., :d]) <= 0).all(-1) & (np.diff(weights[..., d:]) <= 0).all(-1)
            at, mono = np.nonzero(dominant)
            parts.append((g[at], pad[mono], weights[at, mono]))
        dim_k = 0
        if parts:
            idx, monos, weights = (np.concatenate(part) for part in zip(*parts))
            keys, inverse, counts = np.unique(weights, axis=0, return_inverse=True, return_counts=True)
            orbits = [_arrangements(w[:d]) * _arrangements(w[d:]) for w in keys.tolist()]
            inverse = inverse.reshape(-1)
            order = np.lexsort((inverse, counts[inverse]))  # the rows by block size, block by block
            ranks = np.zeros(len(keys), dtype=np.int64)
            npts = min(int(counts.max()), dim) + HF_MARGIN
            for _ in range(HF_REPEATS):
                phis = rng.matrix(npts * n, n, p).reshape(npts, n, n)  # as npts matrix(n, n, p)
                flats = np.hstack([phis[:, :, :d].reshape(npts, nd), np.ones((npts, 1), dtype=np.int64)])
                stacks = reduced_kalman_matrix(KalmanPoint(d, n, phis, p)).data
                minor_vals = _minor_values(stacks, table, p)
                for r in sorted(set(counts.tolist())):
                    # the blocks of r rows: one product per variable for all, then points x rows per block
                    rows, m = order[counts[inverse[order]] == r], min(r, dim) + HF_MARGIN
                    vals = minor_vals[:m, idx[rows]]
                    for j in range(k):
                        vals = vals * flats[:m, monos[rows, j]] % p
                    for b, block in zip(inverse[rows[::r]], np.split(vals, len(rows) // r, axis=1)):
                        if ranks[b] < r:  # a block at full row rank cannot rank higher
                            ranks[b] = max(ranks[b], len(_echelon(block, p)[1]))  # the rank of the block's rows
            dim_k = sum(int(r) * orbit for r, orbit in zip(ranks, orbits))
        # multiplying by a variable is injective on A_0, so dim I'_k cannot fall
        if dim_k < prev_dim:
            raise RuntimeError(f"dim I_{k} = {dim_k} is below dim I_{k - 1} = {prev_dim}")
        prev_dim = dim_k
        hf0.append(dim - dim_k)
    return [sum(hf0[j] * comb(n * n - nd + k - j - 1, k - j) for j in range(k + 1)) for k in range(k_max + 1)]
