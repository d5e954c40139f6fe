"""Numerical ground truth over a large prime field.

Everything here works directly with matrices, independent of the
representation-theoretic machinery: build the stacked matrix (gamma;
gamma*alpha; ...; gamma*alpha^{d-1}) whose minor vanishing cuts out the
variety, sample points on and off it, measure the Jacobian rank of the
minors, and estimate the minor ideal's Hilbert function by evaluation.

All elimination over F_p (rank, inverse, kernels) goes through _echelon.
The Jacobian of the k-minors is never formed: at a member the stack M has
rank <= k-1; if rank M = k-1 its rank is that of the rows u_a (dM/dphi) v_b
over kernel bases u_a M = 0 = M v_b, and if rank M < k-1 it is 0.

All randomness flows through SplitMix64 (documented below) so that every
result is reproducible bit-for-bit from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np

P_DEFAULT = (1 << 31) - 1  # Mersenne prime; products of two residues fit in int64

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 sequence generator.

    state_{k+1} = state_k + 0x9E3779B97F4A7C15 (mod 2^64); each output mixes
    the new state with the xor-shift-multiply chain (30/0xBF58476D1CE4E5B9,
    27/0x94D049BB133111EB, 31).  Field elements are taken as next() mod p;
    for p near 2^31 the modulo bias is below 2^-32 per draw, far under the
    Schwartz-Zippel error terms quoted in the tests.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def field_element(self, p: int) -> int:
        return self.next_u64() % p

    def matrix(self, rows: int, cols: int, p: int) -> np.ndarray:
        return np.array(
            [[self.field_element(p) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        ).reshape(rows, cols)


def _echelon(mat: np.ndarray, p: int):
    """Row echelon form over F_p: the only elimination loop in this module.

    Forward elimination with unit pivots; returns (e, pivots) where row i of
    e has a 1 in column pivots[i] and zeros below it, and the rows after
    len(pivots) are zero.  The rank is len(pivots).  Row updates keep every
    intermediate value inside int64: factors and entries are reduced below
    p < 2^31 first."""
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


def _left_kernel(m: np.ndarray, p: int):
    """(u, rank(m)): the rows of u are a basis of {x : x m = 0} over F_p.

    Eliminating [m | I] records the row operations in the identity block;
    the rows left without a pivot in m are combinations killing m."""
    rows, cols = m.shape
    e, pivots = _echelon(np.hstack([m, np.eye(rows, dtype=np.int64)]), p)
    rank = sum(c < cols for c in pivots)
    return e[rank:, cols:], rank


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # int64 dot products could overflow, so go through exact Python ints
    prod = (a.astype(object) @ b.astype(object)) % p
    return prod.astype(np.int64)


def _inverse_mod(a: np.ndarray, p: int):
    """Inverse of a square matrix over F_p, or None if singular."""
    size = a.shape[0]
    e, pivots = _echelon(np.hstack([a, np.eye(size, dtype=np.int64)]), p)
    if pivots[-1] >= size:
        return None
    for c in range(size - 1, 0, -1):
        e[:c] = (e[:c] - e[:c, c : c + 1] * e[c]) % p
    return e[:, size:]


def _det_mod(a: np.ndarray, p: int) -> int:
    """Determinant of a small square matrix over F_p by Laplace expansion;
    on the 2x2 and 3x3 minors of numeric_hilbert_function it is 3-30 times
    faster than _echelon."""
    size = a.shape[0]
    if size == 1:
        return int(a[0, 0]) % p
    if size == 2:
        return (int(a[0, 0]) * int(a[1, 1]) - int(a[0, 1]) * int(a[1, 0])) % p
    total = 0
    rest = a[1:]
    for j in range(size):
        if not a[0, j]:
            continue
        minor = np.delete(rest, j, axis=1)
        term = int(a[0, j]) * _det_mod(minor, p)
        total = total - term if j % 2 else total + term
    return total % p


@dataclass(frozen=True)
class FpMatrix:
    """Matrix over F_p with exact arithmetic."""

    data: np.ndarray
    p: int = P_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.int64) % self.p)

    @property
    def shape(self):
        return self.data.shape

    def rank(self) -> int:
        return len(_echelon(self.data, self.p)[1])

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise ValueError("field mismatch")
        return FpMatrix(_matmul_mod(self.data, other.data, self.p), self.p)


@dataclass(frozen=True)
class KalmanPoint:
    """An endomorphism in the basis adapted to the marked subspace L:
    the top-left d x d block acts on L, the bottom-left block is the
    obstruction to L-invariance."""

    d: int
    n: int
    phi: np.ndarray
    p: int = P_DEFAULT

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.int64)
        if phi.shape != (self.n, self.n):
            raise ValueError("phi must be n x n")
        if not 1 <= self.d < self.n:
            raise ValueError("need 1 <= d < n")
        object.__setattr__(self, "phi", phi % self.p)

    @property
    def alpha(self) -> np.ndarray:
        return self.phi[: self.d, : self.d]

    @property
    def beta(self) -> np.ndarray:
        return self.phi[: self.d, self.d :]

    @property
    def gamma(self) -> np.ndarray:
        return self.phi[self.d :, : self.d]

    @property
    def delta(self) -> np.ndarray:
        return self.phi[self.d :, self.d :]


def reduced_kalman_matrix(pt: KalmanPoint) -> FpMatrix:
    """Vertical stack of gamma, gamma*alpha, ..., gamma*alpha^{d-1};
    shape d(n-d) x d.  Rows from the j-th block are values of degree-(j+1)
    polynomials in the entries of phi."""
    blocks = []
    current = pt.gamma
    for _ in range(pt.d):
        blocks.append(current)
        current = _matmul_mod(current, pt.alpha, pt.p)
    return FpMatrix(np.vstack(blocks), pt.p)


def minors_vanish(m: FpMatrix, k: int) -> bool:
    """True iff every k x k minor is zero, decided as rank < k."""
    if not 1 <= k <= min(m.shape):
        raise ValueError("k out of range")
    return m.rank() < k


def sample_member(s: int, d: int, n: int, seed: int, p: int = P_DEFAULT) -> KalmanPoint:
    """Deterministic random point of the variety: start from phi0 that
    preserves span(e_1..e_s) and conjugate by a random invertible g that
    preserves L, so the invariant subspace is a generic s-plane inside L."""
    if not 1 <= s <= d < n:
        raise ValueError("need 1 <= s <= d < n")
    rng = SplitMix64(seed)
    phi0 = rng.matrix(n, n, p)
    phi0[s:, :s] = 0
    for _ in range(100):
        g = np.zeros((n, n), dtype=np.int64)
        g[:d, :d] = rng.matrix(d, d, p)
        g[:d, d:] = rng.matrix(d, n - d, p)
        g[d:, d:] = rng.matrix(n - d, n - d, p)
        g_inv = _inverse_mod(g, p)
        if g_inv is not None:
            phi = _matmul_mod(_matmul_mod(g, phi0, p), g_inv, p)
            return KalmanPoint(d, n, phi, p)
    raise RuntimeError("failed to sample an invertible block matrix")  # p is huge


def sample_generic(d: int, n: int, seed: int, p: int = P_DEFAULT) -> KalmanPoint:
    """Uniform random endomorphism (no invariance constraint)."""
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < n")
    rng = SplitMix64(seed)
    return KalmanPoint(d, n, rng.matrix(n, n, p), p)


def _minor_indices(s: int, d: int, n: int):
    """All (rows, cols, degree) index pairs of the (d-s+1)-minors of the
    stacked matrix; degree = sum of (block+1) over chosen rows."""
    k = d - s + 1
    total_rows = d * (n - d)
    out = []
    for rows in combinations(range(total_rows), k):
        deg = sum(r // (n - d) + 1 for r in rows)
        for cols in combinations(range(d), k):
            out.append((rows, cols, deg))
    return out


def jacobian_codim(s: int, d: int, n: int, seed: int, p: int = P_DEFAULT) -> int:
    """Rank over F_p of the Jacobian of all k-minors of the stacked matrix M,
    k = d-s+1, evaluated at sample_member(s, d, n, seed).  Equals the
    variety's codimension when the sample lands in the smooth locus.

    The rank is read off the kernels of M instead of the minors.  A member
    has rank M <= k-1.  If rank M = k-1, write M = P diag(I_{k-1}, 0) Q: the
    differentials of the k-minors span the functionals N -> (P^-1 N Q^-1)_ij
    with i, j >= k, i.e. N -> u N v for u in the left and v in the right
    kernel of M (the tangent space of a determinantal variety).  So with
    kernel bases u_a, v_b the Jacobian rank is the rank of the matrix whose
    row (a, b) holds u_a (dM/dx) v_b for every entry x of phi.  If
    rank M < k-1, every cofactor of a k x k submatrix is a vanishing
    (k-1)-minor and the rank is 0."""
    if not 1 <= s < d < n:
        raise ValueError("need 1 <= s < d < n")
    pt = sample_member(s, d, n, seed, p)
    stack = reduced_kalman_matrix(pt).data
    k = d - s + 1
    left, rank = _left_kernel(stack, p)
    if rank >= k:
        raise RuntimeError(f"sample has a nonzero {k}-minor, so it is not on the variety")
    if rank < k - 1:
        return 0
    right = _left_kernel(stack.T, p)[0].T

    w = n - d
    alpha_pows = [np.eye(d, dtype=np.int64)]
    for _ in range(d - 1):
        alpha_pows.append(_matmul_mod(alpha_pows[-1], pt.alpha, p))
    gamma_pows = [stack[j * w : (j + 1) * w] for j in range(d)]  # gamma*alpha^j

    # derivative of the stack with respect to each alpha and gamma entry of
    # phi; the beta and delta entries do not occur in the stack
    dstacks = []
    for u in range(d):       # alpha variables
        for v in range(d):
            ds = np.zeros_like(stack)
            for j in range(1, d):
                block = np.zeros((w, d), dtype=np.int64)
                for m_ in range(j):
                    col = gamma_pows[m_][:, u][:, None]
                    row = alpha_pows[j - 1 - m_][v, :][None, :]
                    block = (block + col * row) % p
                ds[j * w : (j + 1) * w] = block
            dstacks.append(ds)
    for u in range(w):       # gamma variables
        for v in range(d):
            ds = np.zeros_like(stack)
            for j in range(d):
                ds[j * w + u] = alpha_pows[j][v, :]
            dstacks.append(ds)
    jac = _matmul_mod(_matmul_mod(left, np.array(dstacks), p), right, p)
    return len(_echelon(jac.reshape(len(dstacks), -1).T, p)[1])


class BudgetExceededError(Exception):
    """Monomial space too large for the evaluation oracle."""

    def __init__(self, n: int, k: int, count: int, budget: int):
        self.n, self.k, self.count, self.budget = n, k, count, budget
        super().__init__(
            f"degree-{k} monomial count C({n * n + k - 1}, {k}) = {count} "
            f"exceeds budget {budget}"
        )


HF_MARGIN = 5  # evaluation points beyond the number of rows
HF_REPEATS = 2  # independent point sets per degree; the max rank is kept


def numeric_hilbert_function(
    s: int,
    d: int,
    n: int,
    k_max: int,
    seed: int,
    p: int = P_DEFAULT,
    budget: int = 100_000,
):
    """Hilbert function of A / (minor ideal) in degrees 0..k_max, estimated
    by evaluation: rows are (minor x complementary monomial), columns are
    random points; dim I_k is the rank, HF_k = C(n^2+k-1, k) - dim I_k.

    Wrong answers can only underestimate dim I_k (rank drops on unlucky
    points), so each degree is evaluated at HF_REPEATS independent sets of
    HF_MARGIN more points than rows, and the max rank taken.  Refuses
    degrees whose monomial count exceeds `budget`.
    """
    if not 1 <= s <= d < n:
        raise ValueError("need 1 <= s <= d < n")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    nn = n * n
    dims = []
    for k in range(k_max + 1):
        count = comb(nn + k - 1, k)
        if count > budget:
            raise BudgetExceededError(n, k, count, budget)
        dims.append(count)

    minors = _minor_indices(s, d, n)
    rng = SplitMix64(seed)
    hf = []
    prev_dim = 0
    for k in range(k_max + 1):
        row_specs = []
        for idx, (rows, cols, deg) in enumerate(minors):
            if deg > k:
                continue
            for mono in combinations_with_replacement(range(nn), k - deg):
                row_specs.append((idx, mono))
        if not row_specs:
            dim_k = 0
        else:
            dim_k = 0
            for _ in range(HF_REPEATS):
                npts = min(len(row_specs), dims[k]) + HF_MARGIN
                flats = np.empty((npts, nn), dtype=np.int64)
                minor_vals = np.empty((npts, len(minors)), dtype=np.int64)
                for t in range(npts):
                    pt = KalmanPoint(d, n, rng.matrix(n, n, p), p)
                    flats[t] = pt.phi.reshape(-1)
                    stack = reduced_kalman_matrix(pt).data
                    for j, (rows, cols, _) in enumerate(minors):
                        minor_vals[t, j] = _det_mod(stack[np.ix_(rows, cols)], p)
                mat = np.empty((len(row_specs), npts), dtype=np.int64)
                for r, (idx, mono) in enumerate(row_specs):
                    vals = minor_vals[:, idx].copy()
                    for var in mono:
                        vals = (vals * flats[:, var]) % p
                    mat[r] = vals
                dim_k = max(dim_k, len(_echelon(mat, p)[1]))
        if dim_k < prev_dim:
            raise RuntimeError(f"dim I_{k} = {dim_k} is below dim I_{k - 1} = {prev_dim}")
        prev_dim = dim_k
        hf.append(dims[k] - dim_k)
    return hf
