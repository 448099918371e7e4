"""Truncated formal power series in q with LaurentPoly coefficients.

A QSeries of order N stores the coefficients of q^0..q^N; everything
beyond q^N is discarded.  Infinite products over a parameter d keep only
the factors whose q-exponent is <= N, which is exact because every
omitted factor is 1 + O(q^{N+1}).

Every product runs as factor steps (mul_one_minus and div_one_minus):
product_factors multiplies a list of factors onto 1, and the nested rows
are one running product per order (_hnnr_products), one factor step per
row, which series_H, series_Hnnr and the Euler check all read.

All the named generating functions live here:

  series_H          prod_d 1/(1 - t^{d+1} q^d)          (Hilbert scheme of the plane)
  series_Hnnr(r)    q^C(r,2) * series_H * prod_{d<=r} 1/(1 - t^d q^d)
  series_Y0         prod_d (1 - t^{d-1} q^d)/(1 - t^{d+1} q^d)   (punctured plane)
  series_Y0_dual    the reciprocal product (dual E-polynomials)
  series_poincare_H prod_d 1/(1 - t^{d-1} q^d)          (Poincare polynomials)
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

from .diagrams import mu_max
from .laurent import ONE, ZERO, LaurentPoly


class NotInvertibleError(ArithmeticError):
    """Constant coefficient is not a unit monomial +-t^k."""


class QSeries:
    """Power series in q truncated at a fixed order, coefficients in Z[t, 1/t]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[LaurentPoly]):
        if not coeffs:
            raise ValueError("a QSeries needs at least the q^0 coefficient")
        self.coeffs = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> QSeries:
        return cls([ONE] + cls.zero(order).coeffs[1:])

    @classmethod
    def zero(cls, order: int) -> QSeries:
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls([ZERO] * (order + 1))

    def coeff(self, n: int) -> LaurentPoly:
        """Coefficient of q^n (zero beyond the truncation order)."""
        return self.coeffs[n] if 0 <= n <= self.order else ZERO

    def __add__(self, other: QSeries) -> QSeries:
        """Termwise sum; both operands must have the same order."""
        # A sum is known only up to the smaller order; returning it would
        # drop the larger operand's top coefficients without a word.
        if self.order != other.order:
            raise ValueError(f"series orders differ ({self.order} + {other.order})")
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: QSeries) -> QSeries:
        """Cauchy product truncated at the smaller order."""
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            acc = ZERO
            for i in range(k + 1):
                a = self.coeffs[i]
                b = other.coeffs[k - i]
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return QSeries(out)

    def inv(self) -> QSeries:
        """Multiplicative inverse up to the truncation order.

        Requires the constant coefficient to be a unit monomial +-t^k;
        the inverse then has integer coefficients and f * f.inv() == 1.
        """
        f0 = self.coeffs[0]
        if not f0.is_unit_monomial():
            raise NotInvertibleError(f"constant coefficient {f0} is not a unit monomial")
        g0 = f0.invert_variable()  # 1/(+-t^k) == +-t^{-k}
        out = [g0]
        for n in range(1, self.order + 1):
            acc = ZERO
            for i in range(1, n + 1):
                fi = self.coeffs[i]
                if fi:
                    acc = acc + fi * out[n - i]
            out.append(-(g0 * acc))
        return QSeries(out)

    def mul_one_minus(self, t_exp: int, q_exp: int) -> QSeries:
        """Multiply by the single factor (1 - t^{t_exp} q^{q_exp}), q_exp >= 1."""
        if q_exp < 1:
            raise ValueError("q_exp must be positive")
        out = list(self.coeffs)
        for n in range(self.order, q_exp - 1, -1):
            out[n] = out[n].add_shifted(out[n - q_exp], t_exp, -1)
        return QSeries(out)

    def div_one_minus(self, t_exp: int, q_exp: int) -> QSeries:
        """Multiply by 1/(1 - t^{t_exp} q^{q_exp}) via the geometric recurrence."""
        if q_exp < 1:
            raise ValueError("q_exp must be positive")
        out = list(self.coeffs)
        for n in range(q_exp, self.order + 1):
            out[n] = out[n].add_shifted(out[n - q_exp], t_exp)
        return QSeries(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        inner = " + ".join(f"({c})q^{n}" for n, c in enumerate(self.coeffs) if c)
        return f"QSeries[{inner or '0'}; O(q^{self.order + 1})]"


def product_factors(
    factors: Iterable[tuple[int, int, int]], order: int
) -> QSeries:
    """Truncated product of (1 - t^{t_exp} q^{q_exp})^{power} factors.

    Each factor is a triple (t_exp, q_exp, power) with q_exp >= 1 and
    power +1 or -1, applied to 1 as one mul_one_minus / div_one_minus
    step.  Factors with q_exp > order contribute 1 + O(q^{order+1}) and
    are skipped.
    """
    out = QSeries.one(order)
    for t_exp, q_exp, power in factors:
        if q_exp < 1:
            raise ValueError("factors require q_exp >= 1")
        if q_exp > order:
            continue
        if power == 1:
            out = out.mul_one_minus(t_exp, q_exp)
        elif power == -1:
            out = out.div_one_minus(t_exp, q_exp)
        else:
            raise ValueError("factor power must be +1 or -1")
    return out


def series_H(order: int) -> QSeries:
    """Generating function of E-polynomials of Hilbert schemes of the plane."""
    return QSeries(_hnnr_products(order)[0].coeffs)


def series_Hnnr(r: int, order: int) -> QSeries:
    """Generating function of E-polynomials of the nested (n, n+r) Hilbert schemes.

    Equals q^C(r,2) * series_H * prod_{d=1}^{r} 1/(1 - t^d q^d); in
    particular the q^n coefficient vanishes for n < C(r,2), so for
    C(r,2) > order the row is zero to the order and no factor step runs.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    shift = comb(r, 2)
    if shift > order:
        return QSeries.zero(order)
    products = _hnnr_products(order)
    for k in range(1, r + 1):
        if k not in products:  # one factor step per r not yet reached
            products.setdefault(k, products[k - 1].div_one_minus(k, k))
    return QSeries([ZERO] * shift + products[r].coeffs[: order + 1 - shift])


@lru_cache(maxsize=4)
def _hnnr_products(order: int) -> dict[int, QSeries]:
    """r -> the running product series_H * prod_{d<=r} 1/(1 - t^d q^d) at
    one order, for r = 0, 1, ..., one factor step apart.

    The only builder of nested rows on the q-series side.  Its readers are
    series_H, series_Hnnr (which adds the products on demand, by
    setdefault, so concurrent callers agree), build_R, the columns of the
    hnnr table, the cache probes and euler_identity_check: at one order
    they all share one running product.  Callers get copies (series_H,
    series_Hnnr), since a QSeries's coefficient list is mutable and the
    products here outlive them.  A few orders are kept (a cached table
    probes at random orders); the products up to r = 19 at order 200 hold
    about 27 MB.
    """
    return {0: product_factors(((d + 1, d, -1) for d in range(1, order + 1)), order)}


def series_Y0(order: int) -> QSeries:
    """E-polynomial generating function for points on the punctured plane:
    series_Y0_dual's factors with each power negated."""
    return product_factors(((t, q, -p) for t, q, p in y0_dual_factors(order)), order)


def y0_dual_factors(order: int) -> list[tuple[int, int, int]]:
    """The factors of series_Y0_dual: prod_d (1 - t^{d+1} q^d)/(1 - t^{d-1} q^d)."""
    factors = [(d + 1, d, 1) for d in range(1, order + 1)]
    factors += [(d - 1, d, -1) for d in range(1, order + 1)]
    return factors


def series_Y0_dual(order: int) -> QSeries:
    """Dual E-polynomial generating function; reciprocal of series_Y0."""
    return product_factors(y0_dual_factors(order), order)


def series_poincare_H(order: int) -> QSeries:
    """Generating function of Poincare polynomials of the Hilbert schemes."""
    return product_factors(((d - 1, d, -1) for d in range(1, order + 1)), order)


def euler_identity_check(t_exp_z: int, order: int) -> bool:
    """Check the Euler expansion of prod (1 - z q^n) after q -> tq, z -> t^{t_exp_z},
    both sides multiplied by series_H.

    Euler: sum_{n>=0} (-1)^n z^n (tq)^C(n,2) / prod_{d<=n} (1 - t^d q^d)
         = (1 - z) prod_{d>=1} (1 - z t^d q^d).
    series_H has constant term 1, so multiplying both sides by it is
    injective, and the check is equivalent to Euler's identity.  Times
    series_H, term n >= 1 of the left side is (-1)^n t^{n z + C(n,2)}
    series_Hnnr(n), a row of the running product that build_R and the hnnr
    table read; the right side is series_H times the factors
    (1 - t^{z+d} q^d) and (1 - t^z).  Both are compared as truncated series.
    """
    lhs = series_H(order).coeffs
    for n in range(1, mu_max(order) + 1):
        shift, sign = n * t_exp_z + comb(n, 2), (-1) ** n
        lhs = [c.add_shifted(r, shift, sign) for c, r in zip(lhs, series_Hnnr(n, order).coeffs)]
    rhs = series_H(order)
    for d in range(1, order + 1):
        rhs = rhs.mul_one_minus(t_exp_z + d, d)
    return lhs == [c.add_shifted(c, t_exp_z, -1) for c in rhs.coeffs]
