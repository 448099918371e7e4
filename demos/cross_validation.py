"""
The full cross-validation suite
===============================

Every identity the construction relies on, checked exactly: Cauchy's
q-binomial theorem (which both the inversion and the closed forms rest
on), the punctured-plane series against the strata row m = 1, the
Grassmannian-bundle relation (its row r = 0 says that the strata of
H^[n] sum to series_H), the origin/punctured-plane convolution, closed
forms against the matrix pipeline, fixed-point sums against the product
series, Euler characteristics against the partition census, and the
punctual strata's column sums against the same census.  verify_all
sizes every check from the order: at order 14 Cauchy's theorem runs at
order 12 and the fixed-point sums over r <= 4, from n = C(r, 2) on.
"""

import time

from hilbstrata import verify_all

start = time.perf_counter()
report = verify_all(order=14)
print(report)
print(f"\n({time.perf_counter() - start:.2f}s)")
raise SystemExit(0 if report.passed else 1)
