"""Truncated formal power series in q with LaurentPoly coefficients.

A QSeries of order N stores the coefficients of q^0..q^N; everything
beyond q^N is discarded.  Infinite products over a parameter d keep only
the factors whose q-exponent is <= N, which is exact because every
omitted factor is 1 + O(q^{N+1}).

All the named generating functions live here:

  series_H          prod_d 1/(1 - t^{d+1} q^d)          (Hilbert scheme of the plane)
  series_Hnnr(r)    q^C(r,2) * series_H * prod_{d<=r} 1/(1 - t^d q^d)
  series_Hnnr_rows  series_Hnnr(r) for r = 1..max_r, one factor step apart
  series_Y0         prod_d (1 - t^{d-1} q^d)/(1 - t^{d+1} q^d)   (punctured plane)
  series_Y0_dual    the reciprocal product (dual E-polynomials)
  series_poincare_H prod_d 1/(1 - t^{d-1} q^d)          (Poincare polynomials)
  q_pochhammer(k)   prod_{d=1}^k (1 - t^d q^d)
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Sequence

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

    def truncate(self, order: int) -> QSeries:
        if order >= self.order:
            return self
        return QSeries(self.coeffs[: order + 1])

    def shift_q(self, k: int) -> QSeries:
        """Multiply by q^k at fixed order (top coefficients fall off)."""
        if k == 0:
            return self
        if k < 0:
            raise ValueError("negative q-shifts are not supported")
        n = self.order
        if k > n:
            return QSeries.zero(n)
        return QSeries([ZERO] * k + self.coeffs[: n + 1 - k])

    def scale(self, poly: LaurentPoly | int) -> QSeries:
        return QSeries([c * poly for c in self.coeffs])

    def __add__(self, other: QSeries) -> QSeries:
        """Termwise sum; both operands must have the same order."""
        self._check_same_order(other, "+")
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: QSeries) -> QSeries:
        """Termwise difference; both operands must have the same order."""
        self._check_same_order(other, "-")
        return QSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def _check_same_order(self, other: QSeries, op: str) -> None:
        # A sum is known only up to the smaller order; returning it would
        # drop the larger operand's top coefficients without a word.
        if self.order != other.order:
            raise ValueError(
                f"series orders differ ({self.order} {op} {other.order}); "
                f"truncate one operand first"
            )

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

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> QSeries:
        coeffs = [LaurentPoly.from_json(c) for c in obj["coeffs"]]
        if len(coeffs) != obj["order"] + 1:
            raise ValueError("coefficient list does not match the declared order")
        return cls(coeffs)


def times_factors(
    s: QSeries, factors: Iterable[tuple[int, int, int]]
) -> QSeries:
    """s times a product of (1 - t^{t_exp} q^{q_exp})^{power} factors, at s's order.

    Each factor is a triple (t_exp, q_exp, power) with q_exp >= 1 and
    power +1 or -1, applied as one mul_one_minus / div_one_minus step.
    Factors with q_exp > s.order contribute 1 + O(q^{order+1}) and are
    skipped.  The result never shares its coefficient list with s.
    """
    order = s.order
    out = s
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
    # a fresh series even when no step applied: callers may mutate either
    return out if out is not s else QSeries(s.coeffs)


def product_factors(
    factors: Iterable[tuple[int, int, int]], order: int
) -> QSeries:
    """Truncated product of (1 - t^{t_exp} q^{q_exp})^{power} factors; see times_factors."""
    return times_factors(QSeries.one(order), factors)


def series_H(order: int) -> QSeries:
    """Generating function of E-polynomials of Hilbert schemes of the plane."""
    return product_factors(((d + 1, d, -1) for d in range(1, order + 1)), order)


def series_Hnnr(r: int, order: int) -> QSeries:
    """Generating function of E-polynomials of the nested (n, n+r) Hilbert schemes.

    Equals q^C(r,2) * series_H * prod_{d=1}^{r} 1/(1 - t^d q^d); in
    particular the q^n coefficient vanishes for n < C(r,2).
    """
    *_, row = series_Hnnr_rows(r, order)  # raises ValueError for r < 1
    return row


def series_Hnnr_rows(max_r: int, order: int) -> Iterator[QSeries]:
    """series_Hnnr(r, order) for r = 1, ..., max_r, in that order.

    One running product series_H * prod_{d<=r} 1/(1 - t^d q^d) advances
    by a single factor step per r; row r is that product times q^C(r,2).
    """
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    return _nested_rows(series_H(order), max_r)


def _nested_rows(seed: QSeries, max_r: int) -> Iterator[QSeries]:
    """q^C(r,2) * seed * prod_{d<=r} 1/(1 - t^d q^d) for r = 1, ..., max_r.

    Seeded with series_H these are the nested-scheme rows R_r; seeded
    with series_poincare_H they are R_r * series_Y0_dual, since the two
    seeds differ by exactly series_Y0_dual's factors.
    """
    running = seed
    for r in range(1, max_r + 1):
        running = running.div_one_minus(r, r)
        yield running.shift_q(comb(r, 2))


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


def q_pochhammer(k: int, order: int) -> QSeries:
    """The finite product prod_{d=1}^{k} (1 - t^d q^d), truncated."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return product_factors(((d, d, 1) for d in range(1, k + 1)), order)


def euler_identity_check(t_exp_z: int, order: int) -> bool:
    """Check the Euler expansion of prod (1 - z q^n) after q -> tq, z -> t^{t_exp_z}.

    Left side: sum_{n>=0} (-1)^n z^n q^C(n,2) / (q)_n; right side the
    product; both expanded as truncated QSeries and compared exactly.
    """
    n = 0
    lhs = QSeries.zero(order)
    inv_pochhammer = QSeries.one(order)  # 1/prod_{d<=n}(1 - t^d q^d), one step per n
    while comb(n, 2) <= order:
        # (-1)^n t^{n*t_exp_z} (tq)^C(n,2) / prod_{d<=n}(1 - t^d q^d)
        k = comb(n, 2)
        scalar = LaurentPoly.t_power(n * t_exp_z + k, -1 if n % 2 else 1)
        lhs = lhs + inv_pochhammer.scale(scalar).shift_q(k)
        n += 1
        inv_pochhammer = inv_pochhammer.div_one_minus(n, n)
    rhs = QSeries.one(order).scale(ONE - LaurentPoly.t_power(t_exp_z))
    rhs = times_factors(rhs, ((t_exp_z + d, d, 1) for d in range(1, order + 1)))
    return lhs == rhs
