"""
The named generating series
===========================

Walk through the q-series the package is built on.  Coefficients are
exact Laurent polynomials in t; the q-power counts points.
"""

from hilbstrata import product_factors, series_H, series_Hnnr, series_poincare_H, series_Y0
from hilbstrata.qseries import QSeries, y0_factors

ORDER = 8

# E-polynomials of the Hilbert schemes of n points on the plane:
# the product of 1/(1 - t^{d+1} q^d).  At t = 1 the coefficient of q^n
# is the number of partitions of n.
h = series_H(ORDER)
print("E(H^[n]; t) and the partition numbers:")
for n in range(ORDER + 1):
    print(f"  n={n:<2}  {str(h.coeff(n)):<40}  p(n) = {h.coeff(n).eval_at_one()}")

# Points on the punctured plane.  The same product with numerators
# (1 - t^{d-1} q^d); the n = 1 coefficient is E(C^2) - E(point) = t^2 - 1.
y0 = series_Y0(ORDER)
print("\nE(Y0^[n]; t):")
for n in range(5):
    print(f"  n={n}  {y0.coeff(n)}")

# The dual series, series_Y0's factors with each power negated, inverts
# it exactly: their product is 1.
dual = product_factors(((t, q, -p) for t, q, p in y0_factors(ORDER)), ORDER)
assert y0 * dual == QSeries.one(ORDER)
print("\nseries_Y0 * dual == 1   (checked to order", ORDER, ")")

# Compactly supported Poincare polynomials factor the Hilbert scheme
# series through the punctured plane.
assert series_poincare_H(ORDER) * y0 == h
print("series_poincare_H * series_Y0 == series_H")

# Nested Hilbert schemes H^[n, n+r]: empty below n = C(r,2), a single
# point there.
print("\nE(H^[n, n+r]; t) for small n, r:")
for r in (1, 2, 3):
    s = series_Hnnr(r, 6)
    row = "  ".join(str(s.coeff(n)) for n in range(5))
    print(f"  r={r}:  {row}")
