"""Acceptance gate: eleven headline checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every comparison is exact (integer or polynomial identity); the two timed
checks must also meet their wall-clock budgets.
"""

import time
from math import comb

from kalmanres.bott import GrassmannianContext
from kalmanres.geometric import (
    cohomology_table,
    hilbert_series,
    resolution_terms,
)
from kalmanres.kalman import (
    jacobian_codim,
    minors_vanish,
    numeric_hilbert_function,
    reduced_kalman_matrix,
    sample_generic,
    sample_member,
)
from kalmanres.partitions import schur_rank
from kalmanres.resolutions import (
    cone_table_d2,
    conjecture_consistency,
    kalman_cone_d3,
    kalman_table_d2,
    table_corank1,
    table_s1,
    table_s2_d3,
    table_w_line,
)

def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}{suffix}")
    assert ok, f"acceptance check {num} ({name}) failed"


def _group_rank(ctx, coh, j):
    return sum(
        mult * schur_rank(lam, ctx.d) * schur_rank(mu, ctx.dim_w)
        for (lam, mu), mult in coh.get(j, {}).items()
    )


def test_01_cohomology_rank_table():
    ctx = GrassmannianContext(2, 3, 8)
    expected = {1: (1, 0), 2: (45, 1), 3: (180, 15), 4: (310, 145)}
    start = time.perf_counter()
    ok = True
    for q, pair in expected.items():
        coh = cohomology_table(ctx, q)
        ok = ok and (_group_rank(ctx, coh, 1), _group_rank(ctx, coh, 2)) == pair
    ok = ok and _group_rank(ctx, cohomology_table(ctx, 5), 2) == 705
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, "cohomology ranks for (2,3,8)", ok, f"{elapsed:.2f}s < 10s")


def test_02_rank_one_closed_form():
    ok = True
    for d, n in [(2, 5), (3, 6), (4, 8), (5, 9)]:
        engine = resolution_terms(GrassmannianContext(1, d, n))
        ok = ok and engine == table_s1(d, n)
        ok = ok and engine.regularity() == d - 1
        ok = ok and engine.proj_dim() == n - d
    _report(2, "s=1 closed-form tables", ok)


def test_03_two_planes_in_three_space():
    ok = True
    for n in (5, 6, 7, 8):
        engine = resolution_terms(GrassmannianContext(2, 3, n))
        ok = ok and engine.restrict_index(3) == table_s2_d3(n)
        ok = ok and engine.regularity() == 2
    _report(3, "(2,3,n) leading terms and regularity", ok)


def test_04_d2_variety_resolution():
    ok = True
    for n in (4, 5, 6, 7, 8):
        cone = cone_table_d2(n)
        ok = ok and cone == kalman_table_d2(n)
        ok = ok and cone.proj_dim() == 2 * n - 5
        ok = ok and cone.regularity() == 2
    _report(4, "d=2 mapping cone vs closed form", ok)


def test_05_d3_generator_degrees():
    ok = True
    for n in (6, 7, 8, 9):
        table = kalman_cone_d3(n)
        counts = {e: table.rank(1, e) for e in table.degrees(1)}
        ok = ok and counts == {
            3: comb(n - 3, 3),
            4: 2 * comb(n - 2, 3),
            5: 2 * comb(n - 2, 3),
            6: comb(n - 1, 3),
        }
    _report(5, "d=3 minimal generator counts", ok)


def test_06_corank_one_leading_terms():
    ok = True
    for d in (3, 4, 5, 6):
        n = d + 3
        engine = resolution_terms(GrassmannianContext(d - 1, d, n)).restrict_index(2)
        ok = ok and engine == table_corank1(d, n)
    _report(6, "s=d-1 leading terms", ok)


def test_07_one_dimensional_complement():
    ok = True
    for d in range(1, 6):
        for s in range(1, d + 1):
            engine = resolution_terms(GrassmannianContext(s, d, d + 1))
            ok = ok and engine == table_w_line(s, d)
    _report(7, "n=d+1 box-sum tables", ok)


def test_08_inductive_sequence_residuals():
    ok = True
    for d in (2, 3):
        for n in (4, 5, 6, 7):
            report = conjecture_consistency(d, n)
            ok = ok and report.residual is not None and report.residual.is_zero
    _report(8, "predicted series residuals vanish (d=2,3)", ok)


def test_09_membership_sampling():
    ok = True
    details = []
    for s, d, n in [(1, 2, 4), (1, 3, 5), (2, 3, 5)]:
        k = d - s + 1
        sound = sum(
            minors_vanish(reduced_kalman_matrix(sample_member(s, d, n, seed=t)), k)
            for t in range(200)
        )
        generic = sum(
            not minors_vanish(reduced_kalman_matrix(sample_generic(d, n, seed=t)), k)
            for t in range(200)
        )
        details.append(f"({s},{d},{n}): {sound}/200 member, {generic}/200 generic")
        ok = ok and sound == 200 and generic >= 198
    _report(9, "finite-field membership sampling", ok, "; ".join(details))


def test_10_jacobian_codimension():
    ok = True
    for s, d, n in [(1, 2, 4), (1, 3, 5), (2, 3, 5)]:
        expected = s * (n - d)
        for seed in range(20):
            ok = ok and jacobian_codim(s, d, n, seed=seed) == expected
    _report(10, "jacobian rank equals s(n-d)", ok)


def test_11_numeric_hilbert_function_cross_check():
    start = time.perf_counter()
    hf_124 = numeric_hilbert_function(1, 2, 4, k_max=5, seed=0)
    series = hilbert_series(kalman_table_d2(4))
    ok = hf_124 == [series.coefficient(k) for k in range(6)]

    hf_134 = numeric_hilbert_function(1, 3, 4, k_max=6, seed=0)
    ideal_dims = [comb(16 + k - 1, k) - hf_134[k] for k in range(7)]
    ok = ok and ideal_dims[:6] == [0] * 6 and ideal_dims[6] == 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(11, "evaluation oracle vs symbolic series", ok, f"{elapsed:.1f}s < 300s")

