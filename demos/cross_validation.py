"""
The full cross-validation suite
===============================

Every identity the construction relies on, checked exactly: matrix
inverses, the Grassmannian-bundle relation, the origin/punctured-plane
convolution, closed forms against the matrix pipeline, fixed-point sums
against the product series, Euler characteristics three ways, and the
classical q-series identities used in the derivations.
"""

import time

from hilbstrata import verify_all

start = time.perf_counter()
report = verify_all(order=14, fp_max_r=4, identity_order=12)
print(report)
print(f"\n({time.perf_counter() - start:.2f}s)")
raise SystemExit(0 if report.passed else 1)
