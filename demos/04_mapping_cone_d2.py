"""
From the normalization to the variety itself
============================================

For d = 2 the variety's own resolution comes from a mapping cone: resolve
the normalization, resolve the cokernel of the inclusion (a Koszul complex
on the d x (n-d) linear block), and cancel the summand pairs that the
comparison map matches isomorphically: here, every summand the two tables
share.
"""

from kalmanres import (
    GrassmannianContext,
    cone_table_d2,
    hilbert_series,
    kalman_table_d2,
    koszul_table,
    mapping_cone,
    resolution_terms,
)

n = 5

ambient = resolution_terms(GrassmannianContext(1, 2, n))
# the cokernel is the ideal generated by the bottom-left block entries
quotient = koszul_table([((), (), 1)], GrassmannianContext(2, 2, n))

# the cancellation spec: the summands the two tables share
matched = ambient & quotient
print("cancellation spec (one matched pair per line):")
for i, e, lam, mu, mult in matched.entries():
    print(f"  {mult} x ({lam.exponent_string()}; {mu.exponent_string()}) at (i={i}, e={e})")

cone = mapping_cone(ambient, quotient, matched)
print()
print(cone.render())

# the result agrees with the closed-form table, minimality included
assert cone == cone_table_d2(n) == kalman_table_d2(n)
print("matches the closed form:", cone == kalman_table_d2(n))
print("generators in degrees:", cone.degrees(1), "(quadrics and cubics)")
print("proj_dim:", cone.proj_dim(), "= 2n-5 =", 2 * n - 5)

# Euler characteristics add up across the cone, cancellations or not
assert hilbert_series(cone) == hilbert_series(ambient) - hilbert_series(quotient)
print("Hilbert series identity holds")
