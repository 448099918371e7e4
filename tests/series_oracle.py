"""Test-side series oracles, each built from product_factors.

y0_dual is the reciprocal of series_Y0; euler_sides gives both sides of
Euler's product identity.  The library forms neither: no library path
multiplies two series.
"""

from math import comb

from hilbstrata.laurent import ZERO
from hilbstrata.qseries import QSeries, product_factors, y0_factors


def y0_dual(order):
    """The dual E-polynomial series 1 / series_Y0: series_Y0's factors with
    each power negated, prod_d (1 - t^{d+1} q^d)/(1 - t^{d-1} q^d)."""
    return product_factors(((t, q, -p) for t, q, p in y0_factors(order)), order)


def euler_sides(z_exp, order):
    """Both sides of Euler's identity after q -> tq, z -> t^{z_exp}:

        sum_{n>=0} (-1)^n z^n (tq)^C(n,2) / prod_{d<=n} (1 - t^d q^d)
            = (1 - z) prod_{d>=1} (1 - z t^d q^d),

    truncated at the order; term n of the sum starts at q^C(n,2)."""
    lhs = [ZERO] * (order + 1)
    n = 0
    while comb(n, 2) <= order:
        low = comb(n, 2)
        term = product_factors(((d, d, -1) for d in range(1, n + 1)), order)
        for k in range(low, order + 1):
            c = term.coeffs[k - low].shift(n * z_exp + low)
            lhs[k] = lhs[k] - c if n % 2 else lhs[k] + c
        n += 1
    rhs = product_factors(((z_exp + d, d, 1) for d in range(1, order + 1)), order)
    return QSeries(lhs), QSeries([c - c.shift(z_exp) for c in rhs.coeffs])
