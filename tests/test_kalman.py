import json
from itertools import combinations, combinations_with_replacement, permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from kalmanres import kalman
from kalmanres.kalman import (
    HF_BUDGET,
    HF_MARGIN,
    P_DEFAULT,
    BudgetExceededError,
    FpMatrix,
    KalmanPoint,
    SplitMix64,
    _echelon,
    _echelon_rows,
    _gauss_jordan,
    _left_kernel,
    _matmul_mod,
    _minor_table,
    _minor_values,
    _weight_tables,
    jacobian_codim,
    minors_vanish,
    numeric_hilbert_function,
    reduced_kalman_matrix,
    sample_generic,
    sample_member,
)
from property_checks import (
    echelon_unblocked,
    hilbert_function_all_weights,
    hilbert_function_dense,
    is_prime_by_trial_division,
    kalman_stack,
    kalman_stack_rank,
    laplace_adjugate,
    laplace_det,
    minors_jacobian_rank,
    permutation_det,
    reduced_echelon,
    sample_generic_oracle,
    sample_member_oracle,
    splitmix64_draws,
    stack_minors,
    torus_weight,
)

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


def cases(n_max):
    """Every (s, d, n) with 1 <= s <= d < n <= n_max."""
    return [(s, d, n) for n in range(2, n_max + 1) for d in range(1, n) for s in range(1, d + 1)]


def rank(m, p):
    return len(_echelon(m, p)[1])


def as_rows(m):
    """An array or nested sequence as a tuple of int rows, the form of one matrix."""
    return tuple(tuple(int(x) for x in row) for row in m)


class TestRng:
    def test_splitmix64_published_vector(self):
        # first three outputs for seed 0, from the reference implementation,
        # on Python ints for one seed and on numpy for a sequence
        first = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert SplitMix64(0)._next(3) == first
        assert SplitMix64([0])._next(3).tolist() == [first]

    @pytest.mark.parametrize("p", [2, 97, P_DEFAULT])
    def test_vectorised_draws_equal_the_scalar_stream(self, p):
        # seeds are reduced mod 2^64, so -1 and 2^64 + 5 are states 2^64 - 1 and 5
        seeds = [0, -1, (1 << 64) + 5] + np.random.default_rng(p).integers(0, 1 << 63, 5).tolist()
        rng = SplitMix64(seeds)
        first, second = rng.matrix(3, 4, p), rng.matrix(2, 1, p)
        assert first.shape == (len(seeds), 3, 4) and second.shape == (len(seeds), 2, 1)
        for t, seed in enumerate(seeds):
            draws = [x % p for x in splitmix64_draws(seed, 14)]
            assert first[t].reshape(-1).tolist() == draws[:12]
            assert second[t].reshape(-1).tolist() == draws[12:]
            one = SplitMix64(seed)
            assert one.matrix(3, 4, p) == as_rows(first[t])
            assert one._next(1) == [splitmix64_draws(seed, 13)[12]]

    def test_matrix_shape_and_seed_sensitivity(self):
        m1 = SplitMix64(7).matrix(3, 4, P_DEFAULT)
        m2 = SplitMix64(8).matrix(3, 4, P_DEFAULT)
        assert np.shape(m1) == (3, 4) and m1 != m2
        assert SplitMix64([7, 8]).matrix(3, 4, P_DEFAULT).tolist() == [list(map(list, m)) for m in (m1, m2)]


class TestModularLinearAlgebra:
    def test_rank_of_products(self):
        rng = SplitMix64(3)
        p = P_DEFAULT
        a = rng.matrix(6, 2, p)
        b = rng.matrix(2, 6, p)
        prod = _matmul_mod(a, b, p)
        assert rank(prod, p) == 2
        assert rank(np.zeros((4, 4), dtype=np.int64), p) == 0
        assert rank(np.eye(5, dtype=np.int64), p) == 5

    def test_rank_handles_values_near_p(self):
        p = P_DEFAULT
        m = np.array([[p - 1, 1], [1, p - 1]], dtype=np.int64)
        # rows are scalar multiples mod p: (p-1, 1) = -(1, p-1)
        assert rank(m, p) == 1

    def test_echelon_pivots_and_shape(self):
        p = 97
        m = np.array([[0, 2, 4], [0, 1, 2], [1, 0, 1]], dtype=np.int64)
        e, pivots = _echelon(m, p)
        assert pivots == [0, 1]
        assert e.tolist() == [[1, 0, 1], [0, 1, 2], [0, 0, 0]]

    @pytest.mark.parametrize("p", [2, 3, P_DEFAULT])
    @pytest.mark.parametrize(
        "rows, cols",
        # one panel, one panel plus a remainder, up to three panels plus a
        # remainder; tall and wide
        [(5, 1), (70, 64), (64, 65), (150, 70), (40, 200), (130, 129), (90, 197)],
    )
    def test_echelon_matches_unblocked_loop(self, rows, cols, p):
        rng = np.random.default_rng(rows * 1000 + cols)
        full = rng.integers(0, p, (rows, cols))
        r = min(rows, cols) // 2 + 1
        low_rank = (
            rng.integers(0, p, (rows, r)).astype(object) @ rng.integers(0, p, (r, cols)).astype(object)
        ) % p
        zero_cols = rng.integers(0, p, (rows, cols))
        zero_cols[:, rng.integers(0, cols, cols // 2 + 1)] = 0
        zero_cols[: rows // 3] = 0  # the first pivots come from swaps
        for m in (full, low_rank.astype(np.int64), zero_cols):
            e, pivots = _echelon(m, p)
            expected_e, expected_pivots = echelon_unblocked(m, p)
            assert pivots == expected_pivots
            assert e.dtype == expected_e.dtype and e.tolist() == expected_e.tolist()
            # the elimination of one matrix on Python ints makes the same row operations
            assert _echelon_rows(m.tolist(), p) == (expected_e.tolist(), expected_pivots)

    @pytest.mark.parametrize("inner", [1, 64, 65, 200])
    def test_matmul_mod_exact_at_worst_case(self, inner):
        # every entry p-1 makes every limb and partial sum as large as it gets
        p = P_DEFAULT
        rng = np.random.default_rng(inner)
        cases = [
            (np.full((3, inner), p - 1), np.full((inner, 4), p - 1)),
            # near p-1 but odd and even, so that a rounded sum would show
            (p - 1 - rng.integers(0, 1 << 15, (3, inner)), p - 1 - rng.integers(0, 1 << 15, (inner, 4))),
            (np.full((3, inner), p - 1), np.full((2, inner, 4), p - 1)),
            (rng.integers(0, p, (2, 3, inner)), rng.integers(0, p, (inner, 5))),
        ]
        for a, b in cases:
            expected = (a.astype(object) @ b.astype(object)) % p
            got = _matmul_mod(a, b, p)
            assert got.dtype == np.int64 and got.tolist() == expected.tolist()

    @pytest.mark.parametrize("p", [2, 3, P_DEFAULT])
    def test_minor_table_matches_leibniz(self, p):
        # every k-minor on every row and column k-subset (so also the column
        # subsets of a stack with s > 1), keyed in the order of
        # stack_minors, at a batch of matrices, one with every entry p - 1
        rng = np.random.default_rng(p)
        for k in range(1, 6):
            for rows, cols in [(k, k), (k + 2, k), (k + 1, k + 2)]:
                batch = rng.integers(0, p, (4, 3, rows, cols))
                batch[0, 0] = p - 1
                table = _minor_table(rows, cols, k)
                at, on, _ = table[-1]
                keys = [(r, c) for r in combinations(range(rows), k) for c in combinations(range(cols), k)]
                assert list(zip(map(tuple, at.tolist()), map(tuple, on.tolist()))) == keys
                got = _minor_values(batch, table, p)
                assert got.shape == (4, 3, len(keys))
                expected = permutation_det(batch[..., at[:, :, None], on[:, None, :]], p)
                assert got.tolist() == expected.tolist(), (k, rows, cols)

    def test_left_kernel(self):
        # on Python ints: rows - rank independent rows u with u m = 0, exactly
        rng = SplitMix64([5])
        for p in (2, 3, P_DEFAULT):
            for rows, cols, r in [(6, 3, 2), (5, 5, 5), (4, 6, 1), (3, 2, 0), (12, 4, 3), (35, 24, 20)]:
                m = as_rows(_matmul_mod(rng.matrix(rows, r, p)[0], rng.matrix(r, cols, p)[0], p))
                u, got = _left_kernel(m, p)
                u = np.array(u, dtype=object).reshape(len(u), rows)
                assert got == rank(m, p) == len(_echelon_rows(m, p)[1])
                assert len(u) == rows - got and rank(u, p) == rows - got
                assert not (u @ np.array(m, dtype=object) % p).any()
                if p == P_DEFAULT:
                    assert got == r

    def test_det_and_adjugate(self):
        p = P_DEFAULT
        a = SplitMix64([11]).matrix(4, 4, p)[0]
        (det,) = _minor_values(a, _minor_table(4, 4, 4), p)
        adj = np.array(laplace_adjugate(a.tolist(), p), dtype=np.int64)
        prod = _matmul_mod(a, adj, p)
        assert prod.tolist() == (det * np.eye(4, dtype=object) % p).tolist()

    @pytest.mark.parametrize("p", [2, 3, 7, P_DEFAULT])
    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (5, 1), (4, 4), (7, 3), (3, 7), (12, 4), (7, 14), (4, 0)])
    def test_stack_ranks_match_echelon(self, rows, cols, p):
        # full, low-rank and zero-row matrices in one stack of shape (3, 20, rows, cols)
        rng = np.random.default_rng(rows * 100 + cols)
        a = rng.integers(0, p, (3, 20, rows, cols))
        inner = rng.integers(0, min(rows, cols) + 1, 20)
        for t, r in enumerate(inner):
            low = rng.integers(0, p, (rows, r)).astype(object) @ rng.integers(0, p, (r, cols)).astype(object)
            a[1, t] = (low % p).astype(np.int64)
        a[2, :, : rows // 2] = 0
        e, ranks = _gauss_jordan(a, p)
        assert e.shape == a.shape and ranks.shape == (3, 20)
        stack = FpMatrix(a, p)
        assert stack.rank().tolist() == ranks.tolist()
        for idx in np.ndindex(3, 20):
            expected, pivots = reduced_echelon(a[idx], p)
            assert ranks[idx] == len(pivots) == FpMatrix(a[idx], p).rank()
            # e is the reduced form up to the scale of each row
            lead = np.array([row[row != 0][0] if row.any() else 1 for row in e[idx]], dtype=object)
            scaled = e[idx].astype(object) * np.array([pow(int(x), -1, p) for x in lead], dtype=object)[:, None] % p
            assert scaled.tolist() == expected.tolist(), idx

    def test_rank_type_follows_the_shape(self):
        m = np.array([[1, 2], [2, 4]], dtype=np.int64)
        assert type(FpMatrix(m, 97).rank()) is int
        ranks = FpMatrix(np.stack([m, np.eye(2, dtype=np.int64)]), 97).rank()
        assert ranks.dtype == np.int64 and ranks.tolist() == [1, 2]
        assert minors_vanish(FpMatrix(np.stack([m, np.eye(2, dtype=np.int64)]), 97), 2).tolist() == [True, False]

    def test_fp_matrix_wrapper(self):
        p = 97
        m = FpMatrix(np.array([[1, 2], [3, 4]], dtype=np.int64), p)
        assert m.shape == (2, 2)
        assert m.rank() == 2


class TestModulus:
    # 2^61-1 overflows int64 products (rank 3 for a rank-2 matrix), and over
    # Z/9 a pivot such as 3 has no inverse, so elimination cannot proceed
    @pytest.mark.parametrize("p", [1, 4, 9, (1 << 31) + 11, (1 << 61) - 1])
    def test_rejected(self, p):
        with pytest.raises(ValueError, match="prime"):
            FpMatrix(np.array([[3, 1], [1, 0]], dtype=np.int64), p)
        with pytest.raises(ValueError, match="prime"):
            KalmanPoint(d=2, n=4, phi=np.zeros((4, 4), dtype=np.int64), p=p)
        with pytest.raises(ValueError, match="prime"):
            sample_member(1, 2, 4, seed=0, p=p)
        with pytest.raises(ValueError, match="prime"):
            sample_generic(2, 4, seed=0, p=p)
        with pytest.raises(ValueError, match="prime"):
            jacobian_codim(1, 2, 4, seed=0, p=p)
        with pytest.raises(ValueError, match="prime"):
            numeric_hilbert_function(1, 2, 4, k_max=1, seed=0, p=p)

    @pytest.mark.parametrize("p", [2, 3, 97, P_DEFAULT])
    def test_accepted(self, p):
        assert FpMatrix(np.array([[3, 1], [1, 0]], dtype=np.int64), p).rank() == 2

    def test_miller_rabin_matches_trial_division(self):
        # every n < 2^16; the strong pseudoprimes 2047 (base 2), 1373653
        # (bases 2 and 3) and 25326001 (bases 2, 3 and 5), which base 7
        # refuses; Carmichael numbers; the ends of the range and 46337^2 < 2^31,
        # the square of the largest prime below sqrt(2^31); the uncached check,
        # so the sweep leaves no entries in the cache
        def accepts(p):
            try:
                kalman._check_modulus.__wrapped__(p)
            except ValueError as exc:
                assert str(exc) == f"modulus must be a prime p with 2 <= p < 2^31, got {p}"
                return False
            return True

        pseudoprimes = [2047, 1373653, 25326001]
        carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
        ends = [0, 1, -7, (1 << 31) - 1, 1 << 31, (1 << 31) + 11, 46337**2]
        for p in list(range(1 << 16)) + pseudoprimes + carmichael + ends:
            assert accepts(p) == (p < 1 << 31 and is_prime_by_trial_division(p)), p
        assert [accepts(p) for p in pseudoprimes + carmichael] == [False] * 13
        assert [accepts(p) for p in ends] == [False, False, False, True, False, False, False]


@pytest.mark.parametrize(
    "call",
    [
        lambda: SplitMix64(2.5),
        lambda: SplitMix64([2.5]),  # int() truncated it to seed 2's stream
        lambda: SplitMix64([[1, 2], [3, 4]]),  # a sequence of seeds is flat
        lambda: sample_member(1, 2, 3, 2.5),  # it fell into the sequence branch
        lambda: minors_vanish(FpMatrix([[1, 2]], 7), 1.0),
        lambda: numeric_hilbert_function(1, 2, 4, 2.0, 0),
        lambda: numeric_hilbert_function(1, 2, 4, 2, 2.5),  # its stream was seed 2's
    ],
    ids=["float-seed", "float-in-seeds", "nested-seeds", "member-float-seed", "float-k", "float-k-max", "hf-float-seed"],
)
def test_float_inputs_raise_type_error(call):
    # every F_p input is read with operator.index where it enters
    with pytest.raises(TypeError):
        call()


class TestKalmanPoint:
    def test_block_views(self):
        phi = np.arange(16, dtype=np.int64).reshape(4, 4)
        pt = KalmanPoint(d=2, n=4, phi=phi, p=P_DEFAULT)
        assert pt.phi == as_rows(phi)
        assert pt.alpha == ((0, 1), (4, 5))
        assert pt.gamma == ((8, 9), (12, 13))

    def test_validation(self):
        with pytest.raises(ValueError):
            KalmanPoint(d=3, n=4, phi=np.zeros((3, 3), dtype=np.int64), p=P_DEFAULT)
        with pytest.raises(ValueError):
            KalmanPoint(d=4, n=4, phi=np.zeros((4, 4), dtype=np.int64), p=P_DEFAULT)

    def test_reduced_matrix_shape_and_blocks(self):
        d, n = 2, 5
        pt = sample_generic(d, n, seed=123)
        red = reduced_kalman_matrix(pt)
        assert red.shape == np.shape(red.data) == (d * (n - d), d)
        assert red.data[: n - d] == pt.gamma
        assert red.data[n - d :] == as_rows(_matmul_mod(pt.gamma, pt.alpha, pt.p))

    def test_reduced_matrix_powers(self):
        d, n = 3, 5
        pt = sample_generic(d, n, seed=9)
        red = reduced_kalman_matrix(pt).data
        block = pt.gamma
        for j in range(d):
            rows = red[j * (n - d) : (j + 1) * (n - d)]
            assert rows == as_rows(block)
            block = _matmul_mod(block, pt.alpha, pt.p)


class TestMinors:
    def test_minors_vanish_toy(self):
        m = FpMatrix(np.array([[1, 2], [2, 4], [3, 6]], dtype=np.int64))
        assert minors_vanish(m, 2)  # rank 1
        assert not minors_vanish(m, 1)
        with pytest.raises(ValueError):
            minors_vanish(m, 3)
        with pytest.raises(ValueError):
            minors_vanish(m, 0)

    def test_membership_certificate(self):
        # points built with an invariant s-plane satisfy the minor equations
        for s, d, n in [(1, 2, 4), (1, 3, 5), (2, 3, 5)]:
            for t in range(25):
                pt = sample_member(s, d, n, seed=1000 + t)
                red = reduced_kalman_matrix(pt)
                assert minors_vanish(red, d - s + 1), (s, d, n, t)

    def test_generic_points_fall_outside(self):
        hits = 0
        for s, d, n in [(1, 2, 4), (1, 3, 5), (2, 3, 5)]:
            for t in range(25):
                pt = sample_generic(d, n, seed=2000 + t)
                red = reduced_kalman_matrix(pt)
                if not minors_vanish(red, d - s + 1):
                    hits += 1
        assert hits >= 74  # allow one unlucky draw across all 75


class TestSampling:
    def test_member_determinism(self):
        a = sample_member(2, 3, 6, seed=5)
        b = sample_member(2, 3, 6, seed=5)
        assert a.phi == b.phi
        c = sample_member(2, 3, 6, seed=6)
        assert a.phi != c.phi

    def test_generic_determinism(self):
        a = sample_generic(3, 6, seed=5)
        b = sample_generic(3, 6, seed=5)
        assert a.phi == b.phi

    def test_member_frozen_fingerprint(self):
        # determinism across releases, not just within a process; both sums
        # are those of sample_member_oracle at the same seeds
        pt = sample_member(1, 2, 4, seed=0)
        assert sum(map(sum, pt.phi)) % P_DEFAULT == 1447017833
        assert np.shape(pt.phi) == (4, 4)
        assert pt.p == P_DEFAULT
        pt = sample_member(2, 4, 7, seed=0)
        assert sum(map(sum, pt.phi)) % P_DEFAULT == 2130367173

    @pytest.mark.parametrize("p", [2, 3, 5, P_DEFAULT])
    def test_batch_rows_equal_the_per_seed_oracle(self, p):
        seeds = list(range(-3, 37)) + [(1 << 64) + 5]
        # and one seed's point, on Python ints, has the rows, the stack and
        # the stack's rank of row t of the batch and of the oracle
        for s, d, n in [(1, 2, 4), (2, 3, 5), (2, 4, 7), (1, 1, 3)]:
            batches = [sample_member(s, d, n, seeds, p), sample_generic(d, n, seeds, p)]
            assert [pts.phi.shape for pts in batches] == [(len(seeds), n, n)] * 2
            stacks = [reduced_kalman_matrix(pts) for pts in batches]
            ranks = [stack.rank() for stack in stacks]
            for t, seed in enumerate(seeds):
                ones = [sample_member(s, d, n, seed, p), sample_generic(d, n, seed, p)]
                oracles = [sample_member_oracle(s, d, n, seed, p), sample_generic_oracle(n, seed, p)]
                for pts, stack, rank_t, one, phi in zip(batches, stacks, ranks, ones, oracles):
                    assert as_rows(pts.phi[t]) == one.phi == as_rows(phi), (s, d, n, seed)
                    one_stack = reduced_kalman_matrix(one)
                    assert as_rows(stack.data[t]) == one_stack.data == as_rows(kalman_stack(phi, d, p))
                    assert rank_t[t] == one_stack.rank() == kalman_stack_rank(phi, d, p)

    # phi keeps the plane U = [I_s; x; 0] inside L, with x and b = phi[:s, :s]
    # as drawn from the seed's stream, so the stack has rank <= d - s
    @pytest.mark.parametrize("p", [2, 3, P_DEFAULT])
    def test_member_keeps_its_plane_by_construction(self, p):
        seeds = list(range(-5, 35))
        for s, d, n in [(1, 1, 3), (1, 2, 4), (2, 2, 5), (2, 3, 5), (1, 3, 6), (3, 3, 4), (2, 4, 7)]:
            member = sample_member(s, d, n, seeds, p)
            for t, seed in enumerate(seeds):
                draws = np.array([v % p for v in splitmix64_draws(seed, n * n + (d - s) * s)], dtype=object)
                b = draws[: n * n].reshape(n, n)[:s, :s]
                u = np.zeros((n, s), dtype=object)
                u[:s] = np.eye(s, dtype=int)
                u[s:d] = draws[n * n :].reshape(d - s, s)
                phi = member.phi[t].astype(object)
                assert (phi @ u % p).tolist() == (u @ b % p).tolist(), (s, d, n, seed)
                assert kalman_stack_rank(member.phi[t], d, p) <= d - s, (s, d, n, seed)

    def test_batch_views_and_stacks(self):
        pts = sample_member(2, 4, 7, range(5))
        stacks = reduced_kalman_matrix(pts).data
        assert pts.alpha.shape == (5, 4, 4) and pts.gamma.shape == (5, 3, 4)
        assert stacks.shape == (5, 12, 4)
        for t in range(5):
            one = sample_member(2, 4, 7, t)
            assert as_rows(pts.phi[t]) == one.phi
            assert as_rows(stacks[t]) == reduced_kalman_matrix(one).data

    def test_s_equals_d_member_kills_gamma_blocks(self):
        # s = d means L itself is invariant; the whole stacked matrix vanishes
        pt = sample_member(2, 2, 5, seed=3)
        assert minors_vanish(reduced_kalman_matrix(pt), 1)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            sample_member(0, 2, 4, seed=0)  # need s >= 1
        with pytest.raises(ValueError):
            sample_member(1, 4, 4, seed=0)  # need d < n
        with pytest.raises(ValueError):
            sample_generic(4, 4, seed=0)


class TestJacobian:
    def test_expected_codimension(self):
        for s, d, n in [(1, 2, 4), (1, 3, 5), (2, 3, 5)]:
            expected = s * (n - d)
            for seed in range(5):
                assert jacobian_codim(s, d, n, seed=seed) == expected

    def test_determinism(self):
        assert jacobian_codim(1, 2, 4, seed=77) == jacobian_codim(1, 2, 4, seed=77)

    @pytest.mark.parametrize("p", [P_DEFAULT, 3])
    def test_matches_minors_oracle(self, p):
        # kernel formula against the Jacobian of every minor, by adjugates;
        # over F_3 about a quarter of the samples have rank M < k-1; at
        # s = d, M = 0 and the 1-minors are the entries of M
        for n in range(3, 7):
            for d in range(2, n):
                for s in range(1, d + 1):
                    for seed in range(3):
                        phi = sample_member(s, d, n, seed, p).phi
                        expected = minors_jacobian_rank(phi, d, d - s + 1, p)
                        assert jacobian_codim(s, d, n, seed, p) == expected, (s, d, n, seed)

    def test_validation(self):
        # s = d is admitted, as by sample_member: M = 0, and the rank is s(n-d)
        assert jacobian_codim(2, 2, 4, seed=0) == 4
        with pytest.raises(ValueError):
            jacobian_codim(0, 2, 4, seed=0)
        with pytest.raises(ValueError):
            jacobian_codim(1, 4, 4, seed=0)


class TestNumericHilbertFunction:
    def test_small_case_matches_series(self):
        from kalmanres.geometric import hilbert_series
        from kalmanres.resolutions import kalman_table_d2

        hf = numeric_hilbert_function(1, 2, 4, k_max=2, seed=0)
        series = hilbert_series(kalman_table_d2(4))
        assert hf == [series.coefficient(k) for k in range(3)]
        assert hf[:2] == [1, 16]

    def test_monotone_and_bounded(self):
        hf = numeric_hilbert_function(1, 2, 4, k_max=3, seed=1)
        assert all(hf[i] <= hf[i + 1] for i in range(len(hf) - 1))
        for k, v in enumerate(hf):
            assert v <= comb(16 + k - 1, k)

    # dense evaluation of (s, s, 4) at k = 4 eliminates 2448-3808 rows (8-21 s
    # each), so those three stop at k = 3; test_linear_ideal reaches k = 4
    @pytest.mark.parametrize("s,d,n", cases(4))
    def test_matches_dense_oracle(self, s, d, n):
        k_max = 3 if s == d and n == 4 else 4
        for seed in range(3):
            expected = hilbert_function_dense(s, d, n, k_max, seed, P_DEFAULT)
            assert numeric_hilbert_function(s, d, n, k_max, seed) == expected, seed

    @pytest.mark.parametrize("s,d,n,k_max", [(s, d, n, 4) for s, d, n in cases(4)] + [(1, 3, 5, 6)])
    def test_matches_all_weights_oracle(self, s, d, n, k_max):
        # the oracle ranks every weight block of the rows over all n^2
        # variables, with its own points, minors and elimination, so equal
        # values also check the reduction to A_0 and the convolution
        for seed in range(3):
            expected = hilbert_function_all_weights(s, d, n, k_max, seed, P_DEFAULT)
            assert numeric_hilbert_function(s, d, n, k_max, seed) == expected, seed

    @pytest.mark.parametrize("s,d,n,k_max", [(1, 2, 4, 5), (1, 3, 5, 6), (2, 3, 5, 5)])
    def test_weyl_orbits_share_sizes_and_ranks(self, s, d, n, k_max):
        # S_d x S_{n-d} permutes the weight blocks of the rows in A_0: every
        # block has the size and, at one shared point set, the rank of the
        # block of its sorted weight, so the dominant blocks times their orbit
        # sizes hold every row and the largest block is dominant
        p, nd = P_DEFAULT, n * d
        minors = stack_minors(s, d, n)
        rows = np.array([r for r, _, _ in minors])
        cols = np.array([c for _, c, _ in minors])
        rng = SplitMix64([1000 + 100 * n + 10 * d + s])  # one stream, drawn as arrays

        def dominant(w):
            return tuple(sorted(w[:d], reverse=True) + sorted(w[d:], reverse=True))

        def orbit_size(w):
            return len(set(permutations(w[:d]))) * len(set(permutations(w[d:])))

        for k in range(k_max + 1):
            specs = [
                (i, mono + (nd,) * deg)
                for i, (_, _, deg) in enumerate(minors)
                if deg <= k
                for mono in combinations_with_replacement(range(nd), k - deg)
            ]
            if not specs:
                continue
            idx = np.array([i for i, _ in specs])
            monos = np.array([mono for _, mono in specs])
            minor_w, var_w = _weight_tables(d, n, rows, cols)
            weights = minor_w[idx] + var_w[monos].sum(-2)
            blocks = {}
            for r, w in enumerate(map(tuple, weights.tolist())):
                blocks.setdefault(w, []).append(r)
            sizes = {w: len(block) for w, block in blocks.items()}
            assert all(sizes[w] == sizes[dominant(w)] for w in blocks)
            tops = [w for w in blocks if w == dominant(w)]
            assert sum(orbit_size(w) * sizes[w] for w in tops) == len(specs)
            assert max(sizes[w] for w in tops) == max(sizes.values())

            npts = min(max(sizes.values()), comb(nd + k - 1, k)) + HF_MARGIN
            phis = rng.matrix(npts * n, n, p).reshape(npts, n, n)
            flats = np.hstack([phis[:, :, :d].reshape(npts, nd), np.ones((npts, 1), dtype=np.int64)])
            stacks = reduced_kalman_matrix(KalmanPoint(d, n, phis, p)).data
            vals = permutation_det(stacks[:, rows[:, :, None], cols[:, None, :]], p)[:, idx]
            for j in range(k):
                vals = vals * flats[:, monos[:, j]] % p
            ranks = {w: rank(vals[:, block], p) for w, block in blocks.items()}
            assert all(ranks[w] == ranks[dominant(w)] for w in blocks), k

    @pytest.mark.parametrize("seed", [0, 1])
    def test_n5_matches_the_cone_and_the_prediction(self, seed):
        # the one check of an F_p Hilbert function at n = 5 against symbolic
        # series: (1, 3, 5) through degree 7, against the mapping cone's
        # series and the predicted one
        from kalmanres.geometric import hilbert_series
        from kalmanres.resolutions import kalman_cone_d3, predicted_hilbert_series

        hf = numeric_hilbert_function(1, 3, 5, 7, seed)
        assert hf == [hilbert_series(kalman_cone_d3(5)).coefficient(k) for k in range(8)]
        assert hf == [predicted_hilbert_series(3, 5).coefficient(k) for k in range(8)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_d4_matches_the_prediction(self, seed):
        # (1, 4, 6) through degree 8, the ideal's degrees 6, 7 and 8.  No cone
        # or theorem gives the series at d >= 4: predicted_hilbert_series is
        # the conjecture's prediction there, so a match is evidence for it
        from kalmanres.resolutions import predicted_hilbert_series

        hf = numeric_hilbert_function(1, 4, 6, 8, seed)
        assert hf == [predicted_hilbert_series(4, 6).coefficient(k) for k in range(9)]

    def test_convolution_to_degree_11(self):
        # (1, 2, 3) within the default budget: A_0 has 6 of A's 9 variables,
        # and HF_A(11) sums twelve values HF_{A_0/I'}(j) times C(m + 10 - j,
        # 11 - j), m = 3, the longest convolution in these tests
        from kalmanres.geometric import hilbert_series
        from kalmanres.resolutions import kalman_table_d2

        hf = numeric_hilbert_function(1, 2, 3, 11, seed=0)
        assert hf == [hilbert_series(kalman_table_d2(3)).coefficient(k) for k in range(12)]

    @pytest.mark.parametrize("d,n", [(d, n) for n in range(2, 5) for d in range(1, n)])
    def test_linear_ideal(self, d, n):
        # s = d: the 1-minors are the stack's entries, which generate the
        # ideal of the linear space gamma = 0
        free = n * n - d * (n - d)
        expected = [comb(free + k - 1, k) for k in range(5)]
        assert numeric_hilbert_function(d, d, n, k_max=4, seed=0) == expected

    @pytest.mark.parametrize("s,d,n", [(1, 2, 4), (2, 3, 4)])
    def test_benchmark_references(self, s, d, n):
        # the Hilbert function is a property of the variety: every seed must
        # reproduce the benchmark's reference, captured at seed 0
        path = REFERENCE / f"hf_s_{s}_d_{d}_n_{n}_kmax_5.stdout"
        expected = json.loads(path.read_text())["hilbert_function"]
        for seed in range(6):
            assert numeric_hilbert_function(s, d, n, k_max=5, seed=seed) == expected, seed

    @pytest.mark.parametrize("s,d,n", cases(5))
    def test_rows_are_weight_vectors(self, s, d, n):
        # every (minor x monomial) row f, monomials in A_0 of degree <= 1,
        # satisfies f(t phi t^-1) = t^w f(phi) at a random phi and diagonal t
        # over F_p
        p = P_DEFAULT
        rng = SplitMix64(100 * n + 10 * d + s)
        minors = stack_minors(s, d, n)
        rows = np.array([r for r, _, _ in minors])
        cols = np.array([c for _, c, _ in minors])
        nd = n * d
        idx = np.repeat(np.arange(len(minors)), nd + 1)
        monos = np.tile(np.arange(nd + 1), len(minors))[:, None]
        minor_w, var_w = _weight_tables(d, n, rows, cols)
        weights = minor_w[idx] + var_w[monos].sum(-2)

        def values(phi):
            stack = np.array(reduced_kalman_matrix(KalmanPoint(d, n, phi, p)).data)
            dets = np.array([laplace_det(stack[np.ix_(r, c)].tolist(), p) for r, c in zip(rows, cols)])
            flat = np.append(phi[:, :d].reshape(-1), 1)
            return dets[idx] * flat[monos[:, 0]] % p

        phi = np.array(rng.matrix(n, n, p))
        t = [1 + int(x) for x in rng.matrix(1, n, p - 1)[0]]
        conj = np.array([[int(phi[a, b]) * t[a] * pow(t[b], -1, p) % p for b in range(n)] for a in range(n)])

        def t_power(w):
            out = 1
            for t_i, e in zip(t, w.tolist()):
                out = out * pow(t_i, e, p) % p
            return out

        scale = np.array([t_power(w) for w in weights])
        assert (values(phi) * scale % p == values(conj)).all()

    @pytest.mark.parametrize("s,d,n", cases(5))
    def test_weight_tables_match_the_oracle(self, s, d, n):
        # every minor of the library's table, every variable x_ab of A_0
        # (oracle index a n + b) and the constant (oracle index n^2) weighs
        # what torus_weight says
        rows, cols, _ = _minor_table(d * (n - d), d, d - s + 1)[-1]
        minor_w, var_w = _weight_tables(d, n, rows, cols)
        assert [tuple(w) for w in minor_w.tolist()] == [
            torus_weight(d, n, r, c, ()) for r, c in zip(rows.tolist(), cols.tolist())
        ]
        variables = [a * n + b for a in range(n) for b in range(d)] + [n * n]
        assert [tuple(w) for w in var_w.tolist()] == [torus_weight(d, n, (), (), (v,)) for v in variables]

    @pytest.mark.parametrize("s,d,n", cases(6))
    def test_row_gate_counts_minors_without_the_table(self, s, d, n, monkeypatch):
        # the row-entry gate counts the minors of each degree before any
        # table: with the budget one below the oracle's entries (n + k) R_k
        # at the first degree k whose entries exceed the table's size, it
        # refuses at k with that count and never calls _minor_table
        size, minors = d - s + 1, stack_minors(s, d, n)
        table = sum(len(at) for at, _, _ in _minor_table(d * (n - d), d, size))
        k, entries = -1, 0
        while entries <= table:
            k += 1
            entries = (n + k) * sum(comb(n * d + k - e - 1, k - e) for _, _, e in minors if e <= k)

        def refuse(*args):
            raise AssertionError("_minor_table called")

        monkeypatch.setattr(kalman, "_minor_table", refuse)
        monkeypatch.setattr(kalman, "HF_BUDGET", entries - 1)
        with pytest.raises(BudgetExceededError) as exc:
            numeric_hilbert_function(s, d, n, k, seed=0)
        assert exc.value.count == entries and f"degree-{k} " in str(exc.value)

    def test_budget_refusal(self):
        # (2, 4, 7) has 305576 rows at degree 7: a weight in Z^7 and a
        # monomial of 7 variables each
        with pytest.raises(BudgetExceededError) as exc:
            numeric_hilbert_function(2, 4, 7, k_max=8, seed=0)
        assert (exc.value.count, exc.value.budget) == (14 * 305576, HF_BUDGET) == (4278064, 1_000_000)
        msg = str(exc.value)
        assert "degree-7" in msg and "305576" in msg and "4278064" in msg and "1000000" in msg

    def test_builds_the_minor_table_once(self, monkeypatch):
        # every degree and both point sets evaluate the minors of one table
        calls = []

        def counting(*args):
            calls.append(args)
            return _minor_table(*args)

        monkeypatch.setattr(kalman, "_minor_table", counting)
        for s, d, n, k_max in [(1, 2, 4, 5), (2, 3, 4, 5), (1, 3, 5, 4)]:
            calls.clear()
            numeric_hilbert_function(s, d, n, k_max, seed=0)
            assert calls == [(d * (n - d), d, d - s + 1)], (s, d, n)

    def test_second_point_set_skips_blocks_at_full_row_rank(self, monkeypatch):
        # each point set evaluates the minors once and then ranks its blocks
        # in one order: the second set of a degree eliminates only the blocks
        # whose rank after the first set is below their row count r
        sets = []

        def counting_echelon(mat, p):
            result = _echelon(mat, p)
            sets[-1].append((mat.shape[1], len(result[1])))  # (r, the block's rank)
            return result

        def marking_minor_values(*args):
            sets.append([])
            return _minor_values(*args)

        monkeypatch.setattr(kalman, "_echelon", counting_echelon)
        monkeypatch.setattr(kalman, "_minor_values", marking_minor_values)
        assert numeric_hilbert_function(1, 2, 4, 5, seed=0) == [1, 16, 135, 797, 3696, 14343]
        assert kalman.HF_REPEATS == 2 and len(sets) % 2 == 0
        for first, second in zip(sets[0::2], sets[1::2]):
            assert [r for r, _ in second] == [r for r, rank in first if rank < r]
        # both kinds occur: blocks at full rank, and blocks ranked again
        assert any(rank == r for first in sets[0::2] for r, rank in first)
        assert any(sets[1::2])

    def test_budget_boundary(self, monkeypatch):
        from kalmanres.geometric import hilbert_series
        from kalmanres.resolutions import kalman_cone_d3

        # the budget is the most row entries of one degree, (n + j) R_j,
        # counted here from the oracle's minors: (1, 3, 5) runs through
        # degree 6 at N, its degree-6 count, and refuses at N - 1
        s, d, n, k_max = 1, 3, 5, 6
        minors = stack_minors(s, d, n)
        rows = [sum(comb(n * d + j - e - 1, j - e) for _, _, e in minors if e <= j) for j in range(k_max + 1)]
        entries = [(n + j) * r for j, r in enumerate(rows)]
        N = entries[-1]
        assert N == max(entries) > len(minors)
        monkeypatch.setattr(kalman, "HF_BUDGET", N)
        hf = numeric_hilbert_function(s, d, n, k_max, seed=0)
        assert hf == [hilbert_series(kalman_cone_d3(5)).coefficient(k) for k in range(k_max + 1)]
        monkeypatch.setattr(kalman, "HF_BUDGET", N - 1)
        with pytest.raises(BudgetExceededError) as exc:
            numeric_hilbert_function(s, d, n, k_max, seed=0)
        assert (exc.value.count, exc.value.budget) == (N, N - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            numeric_hilbert_function(0, 2, 4, k_max=1, seed=0)
        with pytest.raises(ValueError):
            numeric_hilbert_function(1, 4, 4, k_max=1, seed=0)
        with pytest.raises(ValueError):
            numeric_hilbert_function(1, 2, 4, k_max=-1, seed=0)
