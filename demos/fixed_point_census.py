"""
Torus fixed points and tangent weights
======================================

Every fixed point of the nested Hilbert scheme H^[n, n+r] is a Young
diagram of n+r boxes with r marked elbows.  The tangent weights at a
fixed point decide its cell dimension alpha, and summing t^alpha over
all fixed points gives the E-polynomial, matching the product formula.

alpha depends only on the diagram: it is n - C(r,2) - r + lambda_1.  So
e_poly_Hnnr_fixed reads the same sum off a census of partitions by
largest part and number of distinct parts, without listing fixed points.
"""

from hilbstrata import (
    LaurentPoly,
    alpha,
    e_poly_Hnnr_fixed,
    enumerate_marked,
    series_Hnnr,
    tangent_character,
)

N, R = 3, 2

print(f"fixed points of H^[{N}, {N + R}] (diagram of {N + R} boxes, {R} marks):\n")
alphas = []
for md in enumerate_marked(N, R):
    weights = tangent_character(md)
    a = alpha(weights)
    alphas.append(a)
    print(f"  parts={md.parts}  marks={sorted(md.marks)}")
    print(f"    weights: {weights}")
    print(f"    positive: {a}  ->  cell A^{a}")

by_weights = LaurentPoly((a, 1) for a in alphas)
print(f"\nsum of t^alpha = {by_weights}")

epoly = e_poly_Hnnr_fixed(N, R)
print(f"partition census = {epoly}")
assert epoly == by_weights

series_value = series_Hnnr(R, N).coeff(N)
print(f"series coefficient of q^{N} = {series_value}")
assert epoly == series_value

# the census degenerates to the classical Hilbert scheme at r = 0
print("\nE(H^[n]) from the r = 0 census:")
for n in range(6):
    print(f"  n={n}  {e_poly_Hnnr_fixed(n, 0)}")
