"""Exact comparisons for the verify suite, strata.verify_all's checks.

A check is a CheckResult over (where, computed, expected) cells.  This
module never reuses the routes' arithmetic: it imports nothing from
packed or strata, so StrataMatrix in its annotations is only a name.
The product checks (Cauchy's theorem, R == G.X and X == B.A) compare
each cell as p(2^K) == q(2^K), K two bits above the larger l1 norm
bound of the two sides, read off the operands themselves (_width),
which makes the comparison exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Iterable, Iterator

from . import qseries
from .laurent import LaurentPoly, gauss_binomial
from .qseries import QSeries


# One compared cell: (coordinates reported on a mismatch, computed, expected).
Comparison = tuple[list, object, object]


@dataclass
class CheckResult:
    name: str
    failures: list
    cells_compared: int

    @classmethod
    def compare(cls, name: str, comparisons: Iterable[Comparison]) -> CheckResult:
        """Run the comparisons; each mismatch is recorded by its coordinates."""
        failures, cells = [], 0
        for where, got, want in comparisons:
            cells += 1
            if got != want:
                failures.append(where)
        return cls(name, failures, cells)

    @property
    def passed(self) -> bool:
        """No mismatch, and at least one cell compared: a vacuous check fails."""
        return self.cells_compared > 0 and not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "cells_compared": self.cells_compared, "failures": self.failures}


@dataclass
class VerificationReport:
    order: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            extra = f"  {json.dumps(c.failures[:4])}" if c.failures else ""
            lines.append(f"[{status:4}] {c.name} ({c.cells_compared} cells){extra}")
        lines.append(f"{'all identities hold' if self.passed else 'MISMATCHES FOUND'}"
                     f" at order {self.order}")
        return "\n".join(lines)


def _at(p: LaurentPoly, k_bits: int, shift: int = 0) -> int:
    """p(2^K) 2^{K shift} as an int, for p with every exponent + shift >= 0."""
    terms = p._terms
    if not terms:
        return 0
    if min(terms) + shift < 0:
        raise ValueError(f"{p} times t^{shift} has a negative exponent")
    return sum(c << k_bits * (e + shift) for e, c in terms.items())


def _norm(p: LaurentPoly) -> int:
    """The l1 norm: the sum of the absolute values of p's coefficients."""
    return sum(map(abs, p._terms.values()))


def _low(polys: Iterable[LaurentPoly]) -> int:
    """min(0, the least exponent of any of the polys)."""
    return min((min(p._terms) for p in polys if p), default=0)


def _width(*bounds: int) -> int:
    """K for comparing two polynomials as ints at t = 2^K, given bounds on
    their l1 norms: both have exponents >= 0 and coefficients of absolute
    value at most the largest bound b < 2^L, L = b.bit_length(), so their
    difference has coefficients below 2^{L+1} = 2^{K-1} with K = L + 2.
    Such a polynomial is zero iff its value at 2^K is, since an int has
    one expansion in balanced base-2^K digits (each in [-2^{K-1}, 2^{K-1})).
    The bounds are read off the operands themselves, so a corrupted
    operand widens K instead of aliasing."""
    return max(bounds, default=0).bit_length() + 2


def _cauchy_cells(size: int) -> Iterator[Comparison]:
    """Cells (m, r), 1 <= r <= m <= size, of Cauchy's q-binomial theorem
    [y^r] prod_{i<m} (1 + t^i y) == t^C(r,2) gauss(m, r), as ints at t = 2^K.

    The product gains one factor per m, row[r] += t^{m-1} row[r-1]: the rule
    [m, r] = [m-1, r] + t^{m-r} [m-1, r-1], not laurent._q_pascal_row's.
    Its coefficients are nonnegative with sum C(m, r), the right side's l1
    norm is |gauss(m, r)|_1, and both are taken times t^{-low} (_low),
    which gives K (_width).  At r = 0 both sides are 1 by construction.
    """
    gauss = {(m, r): gauss_binomial(m, r) for m in range(1, size + 1) for r in range(1, m + 1)}
    low = _low(gauss.values())
    k_bits = _width(comb(size, size // 2), *map(_norm, gauss.values()))
    row = [1 << k_bits * -low]
    for m in range(1, size + 1):
        row.append(0)
        for r in range(m, 0, -1):  # from the top, so row[r - 1] is still row m - 1's
            row[r] += row[r - 1] << k_bits * (m - 1)
            yield [m, r], row[r], _at(gauss[m, r], k_bits, comb(r, 2) - low)


def series_cells(where: list, got: QSeries, want: QSeries) -> Iterator[Comparison]:
    """Compare two series coefficient by coefficient, up to the larger order."""
    for n in range(max(got.order, want.order) + 1):
        yield [*where, n], got.coeff(n), want.coeff(n)


def grassmannian_cells(
    r_matrix: StrataMatrix, x_matrix: StrataMatrix
) -> Iterator[Comparison]:
    """Cells (r, n) of R_r == sum_m gauss(m, r) X_m (Grassmannian fibers),
    compared as ints at t = 2^K.  The row r = 0, where gauss(m, 0) = 1, is
    sum_m X_m == series_H: H^[n] is the union of its strata.

    Every X cell is evaluated once, at one K for all r.  Times t^{-lg-lx}
    (lg = lx = 0 unless an operand has a negative exponent), both sides
    have exponents >= 0; the left side has l1 norm |R_r(n)|_1 and the right
    side at most sum_m |gauss(m,r)|_1 |X_m(n)|_1, so K = _width of these.
    """
    rows = x_matrix.rows
    gauss = {(m, r): gauss_binomial(m, r) for m in rows for r in r_matrix.rows}
    lg = _low(gauss.values())
    lx = min(_low(c for row in rows.values() for c in row.coeffs),
             _low(c for row in r_matrix.rows.values() for c in row.coeffs) - lg)
    order = max((row.order for row in r_matrix.rows.values()), default=0)
    cells = [[row.coeff(n) for row in rows.values()] for n in range(order + 1)]
    x_norms = [list(map(_norm, column)) for column in cells]
    g_norms = {r: [_norm(gauss[m, r]) for m in rows] for r in r_matrix.rows}
    k_bits = _width(*(max(_norm(cell), sum(map(mul, g_norms[r], x_norms[n])))
                      for r, want in r_matrix.rows.items()
                      for n, cell in enumerate(want.coeffs)))
    x_at = [[_at(c, k_bits, -lx) for c in column] for column in cells]
    for r, want in r_matrix.rows.items():
        g_at = [_at(gauss[m, r], k_bits, -lg) for m in rows]
        for n, cell in enumerate(want.coeffs):
            yield [r, n], sum(map(mul, g_at, x_at[n])), _at(cell, k_bits, -lg - lx)


def convolution_cells(
    x_matrix: StrataMatrix, b_matrix: StrataMatrix, order: int
) -> Iterator[Comparison]:
    """Cells (m, n) of X_m == B_m * series_Y0 (origin/punctured-plane split),
    compared as ints at t = 2^K, one K per row.

    The B_m cells are evaluated at 2^K and multiplied by series_Y0's
    factors 1 - t^{d-1} q^d and 1/(1 - t^{d+1} q^d) as factor steps on
    ints (_times_factor), every t-exponent >= 0, from B_m's first nonzero
    cell on.  The l1 norm of a product is at most the product of the
    norms, and the factors' norms are those of 1 + q^d and 1/(1 - q^d), so
    |(B_m series_Y0)(n)|_1 <= sum_i |B_m(i)|_1 M(n-i) with M the series of
    prod_d (1 + q^d)/(1 - q^d); K = _width of that and |X_m(n)|_1.
    """
    factors = qseries.y0_factors(order)
    majorant = [1] + [0] * order
    for _, q, p in factors:  # the majorant of (1 - x)^p is (1 - p |x|)^p
        _times_factor(majorant, q, 0, p, sign=p)
    for m, want in x_matrix.rows.items():
        cells = [want.coeff(n) for n in range(order + 1)]
        row = [b_matrix.rows[m].coeff(n) for n in range(order + 1)]
        first = next((n for n, c in enumerate(row) if c), order + 1)
        low = min(_low(cells), _low(row))
        norms = list(map(_norm, row))
        k_bits = _width(*map(_norm, cells), *(
            sum(map(mul, norms[: n + 1], majorant[n::-1])) for n in range(order + 1)))
        col = [_at(c, k_bits, -low) for c in row[first:]]
        for t, q, p in factors:
            _times_factor(col, q, k_bits * t, p)
        col[:0] = [0] * first
        for n, cell in enumerate(cells):
            yield [m, n], col[n], _at(cell, k_bits, -low)


def _times_factor(col: list[int], q_exp: int, shift: int, power: int, sign: int = -1) -> None:
    """Multiply the int column in place by (1 + sign 2^shift q^{q_exp})^power,
    power 1 (from the top coefficient down) or -1 (from the bottom up)."""
    ns = range(q_exp, len(col)) if power < 0 else range(len(col) - 1, q_exp - 1, -1)
    if sign * power > 0:
        for n in ns:
            col[n] += col[n - q_exp] << shift
    else:
        for n in ns:
            col[n] -= col[n - q_exp] << shift
