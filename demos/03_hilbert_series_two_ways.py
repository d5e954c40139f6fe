"""
One series, two computations
============================

The Hilbert series of the normalization can be read off the Betti table
(alternating sum of ranks) or assembled directly from Euler
characteristics on the Grassmannian, skipping the Betti table entirely.
The two routes share no LR, Bott or hook-content step.  The table route
decomposes the exterior powers of the bundle by Cauchy and
Littlewood-Richardson, then runs Bott's algorithm and hook-content ranks.
The Euler route splits each exterior power by Cauchy over Q* + W and takes
one d x d determinant per partition lam of the R-factor.  Its first d - s
rows carry the Weyl products, its last s rows binomials C(dim W, r_j - a),
and its Laplace expansion sums the Weyl dimension products times the ranks
of skew Schur functors of W (dual Jacobi-Trudi).  With r = lam + rho of
GL(s), V the Vandermonde product and D = V(d-1, ..., 0), lam adds
(-1)^(|lam| + (d-s)(d-s-1)/2) V(r) det / D; D divides it because every
Weyl product is an integer.  Agreement checks the LR counts, Bott's repeat
test and algorithm, and the ranks.
"""

from kalmanres import (
    GrassmannianContext,
    hilbert_series,
    hilbert_series_normalization,
    resolution_terms,
)

for s, d, n in [(1, 2, 4), (1, 2, 5), (2, 3, 6), (1, 3, 5)]:
    ctx = GrassmannianContext(s, d, n)
    via_table = hilbert_series(resolution_terms(ctx))
    via_euler = hilbert_series_normalization(ctx)
    marker = "agree" if via_table == via_euler else "DISAGREE"
    print(f"(s,d,n)=({s},{d},{n}): {via_euler}   [{marker}]")

# the series expands to the dimension counts of the graded pieces
ctx = GrassmannianContext(1, 2, 4)
series = hilbert_series_normalization(ctx)
print()
print("graded dimensions of the normalization module for (1,2,4):")
print([series.coefficient(k) for k in range(8)])
