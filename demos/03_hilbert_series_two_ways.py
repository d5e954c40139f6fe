"""
One series, two computations
============================

The Hilbert series of the normalization can be read off the Betti table
(alternating sum of ranks) or assembled directly from Euler
characteristics on the Grassmannian, skipping the Betti table entirely.
Both routes sweep the same Cauchy and Littlewood-Richardson candidates of
the exterior powers of the bundle and share the LR counts on regular
weights, so they do not check that step.  Each drops the weights that
vanish by its own test before their LR coefficient is counted: the table
route by Bott's repeat test, the Euler route by a zero Weyl product.  After
that they part: the table route runs Bott's algorithm and hook-content
ranks, the Euler route only the Weyl dimension product.  Agreement checks
both vanishing tests and everything downstream of the shared sweep.
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
