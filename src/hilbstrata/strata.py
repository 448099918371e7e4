"""Generator-count strata of punctual Hilbert schemes, two ways.

A strata family is a StrataMatrix: a dict from row label (m, or r for
the nested schemes) to that row's q-series.  The sum over n of
E(H^[n]_m) q^n is row m of X, and the same for B^[n]_m is row m of B.

Matrix pipeline: with R_r = series_Hnnr(r) the nested-scheme rows and
Ginv(m, k) = (-1)^{k-m} t^{C(k-m,2)} gauss(k, m) the inverse of the
Gaussian-binomial matrix G(k, m) = gauss(k, m),

    X_m = sum_k Ginv(m, k) R_k      (R_r = sum_m gauss(m, r) X_m, r >= 0)
    B_m = sum_k Ginv(m, k) D_k      (D_k = R_k / series_Y0)

so X_m = B_m * series_Y0.  No entry of Ginv is formed: by Cauchy's
q-binomial theorem prod_{i<m}(1 + t^i y) = sum_r t^C(r,2) gauss(m, r) y^r,
so P(y) = sum_r t^C(r,2) R_r y^r = sum_m X_m prod_{i<m}(1 + t^i y), and
dividing the factors (1 + y), (1 + t y), (1 + t^2 y), ... off P in turn
(synthetic division) leaves X_1, X_2, ... as the remainders, one step
a - t^k b, k >= 0, on q-coefficients at a time (_invert_nested).  Both
routes rest on this theorem, so verify_all checks it directly, each
y^r coefficient for m <= 12 (_cauchy_cells).  X and B are one
helper over two seeds: the rows are the running product
q^C(k,2) seed prod_{d<=k} 1/(1 - t^d q^d), advanced by one factor step
per k, and seed series_H gives R_k while seed series_poincare_H gives
D_k, the seeds that also split the closed forms' two families.  B never
reads X, so "X == B.A" compares two independent inversions.

Closed forms: with c_{m,a} = (-1)^{a+1} gauss(m,a) (t^{-1}+...+t^{-a}) t^{C(a,2)+m}
(the k = 0 factor of the paper's products folded in), the numerators
N_a = prod_{k>=1} (1 - t^{k-a} q^k) and T_m = sum_{a=1}^m c_{m,a} N_a
divided by prod_{i=1}^{m-1} (1 - t^{i+1}),

    sum_n E(B^[n]_m) q^n = T_m * prod_{k>=1} 1/(1-t^{k-1} q^k)
    sum_n E(H^[n]_m) q^n = T_m * prod_{k>=1} 1/(1-t^{k+1} q^k)

The families differ only in the q-denominator, the factors of
series_poincare_H for B and of series_H for X, applied to T_m as
factor steps.  T_m needs neither N_a nor a division: by Euler, N_a's
q^n coefficient is sum_l (-1)^l d(n, l) t^{n-al}, d(n, l) the
partitions of n into l distinct parts, and by Cauchy's theorem again
sum_a c_{m,a} x^a = t^{m-1} x (1 + t + ... + t^{m-1}) prod_{i<m-1} (1 - t^i x),
which at x = t^{-l}, divided by the denominator, is one Gaussian binomial:

    [q^n] T_m = sum_{l>=m-1} (-1)^{l-m+1} d(n, l) t^{n+m-1-ml+C(m-1,2)} gauss(l, m-1)

Its t-powers are >= C(l-m+1, 2) >= 0, since d(n, l) > 0 needs
n >= C(l+1, 2) (module packed works the algebra).
Neither route nor verify_all forms a product of two series.

Both routes run on packed ints (t -> 2^K, module packed), by different
formulas and separate factor-step code: the closed forms sum shifted
plain-int products into T_m (module packed), and the matrix pipeline
runs its running product and synthetic division here, each step one
left shift and one add or subtract.  They share only packed.digit_bits,
packed.unpack and the t = 1 guard (_decode).  Unpacking is exact when
every final coefficient c has |c| < 2^{K-1}, so K is one bit more than
a bound proven at t = 1 with plain ints, one for both families:
X_m = sum_k Ginv(m, k) R_k and
B_m = sum_k Ginv(m, k) D_k with |Ginv(m, k)|_1 = C(k, m), and R_k and
D_k = q^{C(k,2)} series_poincare_H prod_{d<=k} 1/(1-t^d q^d)
have nonnegative coefficients and equal R_k at t = 1, so every
|coefficient| of X_m(n) and B_m(n) is at most sum_k C(k, m) R_k(n)|_{t=1}.
At t = 1 both families are chi(B^[n]_m) (series_Y0 is 1 there), so
every unpacked coefficient of either route is checked against
packed.chi_at_one, and a mismatch raises ArithmeticError naming (m, n).

A fault in the shared part that keeps the values at t = 1 would pass
the guard and the cross-route check alike, so verify_all also checks
every X and B cell without reading a packed value: X_1 == series_Y0
(B_1 = 1; the y0 table reads series_Y0), R == G.X with R_0, R_1, ...
built by qseries factor steps (R_0 = series_H and gauss(m, 0) = 1, so
its row r = 0 is sum_m X_m == series_H), X == B.A with series_Y0's
factors applied as int factor steps, and sum_m B_m against the
partition census.  The product checks (these two and Cauchy's theorem)
compare each cell as p(2^K) == q(2^K), K two bits above the larger l1
norm bound of the two sides, read off the operands themselves
(_width), which makes the comparison exact.  R_0..R_4 are checked
against the fixed-point sums, and chi_series, which reads the guard's
plain-int table, against the fixed-point census.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from math import comb
from operator import mul
from typing import Iterable, Iterator

from . import packed, qseries
from .diagrams import (
    count_partitions_with_mu, e_poly_Bnnr_fixed, e_poly_Hnnr_fixed, mu_max)
from .laurent import ZERO, LaurentPoly, gauss_binomial
from .qseries import QSeries


@dataclass
class StrataMatrix:
    """A strata family: row label (m or r) -> the row's q-series."""

    rows: dict[int, QSeries]

    def get(self, i: int, n: int) -> LaurentPoly:
        """Coefficient of q^n in row i; zero outside the family."""
        row = self.rows.get(i)
        return row.coeff(n) if row is not None else ZERO


# -- the matrix pipeline ------------------------------------------------


def compute_X(order: int) -> StrataMatrix:
    """Strata rows X_m = sum_k Ginv(m, k) R_k, the E-polynomials of H^[n]_m.

    Rows run over 1 <= m <= mu_max(order); the row cutoff is exact, not a
    truncation, because R_k vanishes below q^C(k, 2).  The rows R_k are
    the nested-row running product seeded with series_H, inverted by
    _invert_nested; compute_B differs only in the seed.
    """
    return _invert_nested(order, seed_shift=+1)


def compute_B(order: int, x_matrix: StrataMatrix | None = None) -> StrataMatrix:
    """Punctual strata rows B_m = sum_k Ginv(m, k) D_k, the E-polynomials of B^[n]_m.

    D_k = R_k / series_Y0 is the nested-row running product seeded
    with series_poincare_H, and B is inverted from D exactly as X is from
    R, so B never reads X and "X == B.A" compares two independent
    inversions.  x_matrix is not read: it stays in the signature only
    because existing callers pass X, among them the benchmark's
    matrix_pipeline (perfbench/workloads.py), which passes it positionally.
    """
    return _invert_nested(order, seed_shift=-1)


def _invert_nested(order: int, seed_shift: int) -> StrataMatrix:
    """{m: sum_k Ginv(m, k) rows_k} for 1 <= m <= mu_max(order), on packed
    ints at t = 2^K, K = packed.digit_bits(order).

    rows_k = q^C(k,2) seed prod_{d<=k} 1/(1 - t^d q^d), with seed
    prod_d 1/(1 - t^{d+seed_shift} q^d): series_H for +1, series_poincare_H
    for -1.  Every factor step is col[n] += col[n-d] << K e.

    The inversion is the synthetic division of the module docstring.
    Dividing level i (the dividend of the factor 1 + t^i y) from the top
    coefficient down, each quotient coefficient is t^{-i}(a - b), a the
    level's coefficient and b the quotient coefficient above.  Every
    coefficient carries a pending t-shift, C(i+j, 2) - C(i, 2) for y^j in
    level i, so a - b is a - t^j b in a's shift: one left shift and one
    subtraction, and the remainder, the row m = i, carries no shift.
    Level 0's remainder is the row m = 0, which vanishes, so P's y^0
    coefficient is never needed and stays 0.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    k_bits, top = packed.digit_bits(order), mu_max(order)
    running = [1] + [0] * order
    for d in range(1, order + 1):
        _div_one_minus(running, d + seed_shift, d, k_bits)
    level = [[0] * (order + 1)]  # P's coefficients, y^0 first
    for k in range(1, top + 1):
        _div_one_minus(running, k, k, k_bits)
        level.append([0] * comb(k, 2) + running[: order + 1 - comb(k, 2)])
    rows = {}
    for i in range(top + 1):
        for j in range(len(level) - 2, -1, -1):
            level[j] = [a - (b << k_bits * j) for a, b in zip(level[j], level[j + 1])]
        if i:
            rows[i] = _decode(i, level[0], k_bits)
        level = level[1:]
    return StrataMatrix(rows)


def _div_one_minus(col: list[int], t_exp: int, q_exp: int, k_bits: int) -> None:
    """Multiply the packed column by 1/(1 - t^{t_exp} q^{q_exp}) in place, t_exp >= 0."""
    shift = k_bits * t_exp
    for n in range(q_exp, len(col)):
        if col[n - q_exp]:
            col[n] += col[n - q_exp] << shift


# -- closed forms --------------------------------------------------------


def closed_form_B(m: int, order: int) -> QSeries:
    """Closed-form generating function of E(B^[n]_m), exact to the order:
    T_m times series_poincare_H's factors (see the module docstring).

    A coefficient that at t = 1 is not chi(B^[n]_m) raises ArithmeticError.
    """
    return _closed_form(m, order, denom_shift=-1)


def closed_form_X(m: int, order: int) -> QSeries:
    """Closed-form generating function of E(H^[n]_m): T_m times series_H's
    factors; see closed_form_B."""
    return _closed_form(m, order, denom_shift=+1)


def _closed_form(m: int, order: int, denom_shift: int) -> QSeries:
    if m < 1:
        raise ValueError("m must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    k_bits = packed.digit_bits(order)
    return _decode(m, packed.packed_column(m, order, denom_shift, k_bits), k_bits)


def _decode(m: int, column: list[int], k_bits: int) -> QSeries:
    """Row m from its packed q-coefficients, each unpacked once.

    Both families equal chi(B^[n]_m) at t = 1, so a coefficient that does
    not (a digit bound too narrow, a fault in either packed route) raises
    ArithmeticError naming (m, n).
    """
    chi = packed.chi_at_one(m, len(column) - 1)
    out = []
    for n, v in enumerate(column):
        c = packed.unpack(v, k_bits)
        if c.eval_at_one() != chi[n]:
            raise ArithmeticError(
                f"coefficient of q^{n} at m={m} is {c}, which at t = 1 is not chi(B^[{n}]_{m})")
        out.append(c)
    return QSeries(out)


# -- identities and Euler characteristics ---------------------------------


def chi_series(m: int, order: int) -> QSeries:
    """Generating function of Euler characteristics of the B^[n]_m strata.

    chi(B^[n]_m) = sum_{k>=m} (-1)^{k-m} C(k, m) R_k(n)|_{t=1}, the matrix
    pipeline's inversion at t = 1 (where series_Y0 is 1), read off the
    plain-int table packed.chi_at_one that also guards the closed forms;
    coefficients are constant in t.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    return QSeries([LaurentPoly.const(c) for c in packed.chi_at_one(m, order)])


# -- the verification suite -----------------------------------------------

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


def verify_all(order: int) -> VerificationReport:
    """Run every internal identity and cross-pipeline check at the given order.

    Every check size comes from the order.  Cauchy's q-binomial theorem
    runs at the order clamped to 8..12, and the fixed-point check compares
    the partition-census sums with the rows of R for r <= min(mu_max(order), 4)
    (R_0 = series_H among them) and C(r, 2) <= n <= order, so no cell it
    compares vanishes by construction.  A check that compares no cell fails.
    """
    checks: list[CheckResult] = []

    def run(name: str, comparisons: Iterable[Comparison]):
        checks.append(CheckResult.compare(name, comparisons))

    if order < 0:
        raise ValueError("order must be >= 0")
    identity_order = min(max(order, 8), 12)
    top = mu_max(order)  # always >= 1
    r_ser = StrataMatrix({r: qseries.series_Hnnr(r, order) for r in range(top + 1)})
    x = compute_X(order)
    b = compute_B(order)

    # the q-binomial theorem the inversion and the closed forms rest on,
    # and the y0 table's builder against the matrix pipeline's row m = 1
    run("Cauchy q-binomial theorem", _cauchy_cells(identity_order))
    run("y0 == X_1 (punctured plane)", series_cells([], qseries.series_Y0(order), x.rows[1]))

    # Grassmannian-bundle and convolution relations
    run("R == G.X (Grassmannian fibers)", grassmannian_cells(r_ser, x))
    run("X == B.A (origin/punctured split)", convolution_cells(x, b, order))

    # closed forms against the matrix pipeline
    run("closed forms == matrix pipeline", chain.from_iterable(
        series_cells([kind, m], closed_form(m, order), family.rows[m])
        for kind, closed_form, family in (("B", closed_form_B, b), ("X", closed_form_X, x))
        for m in family.rows
    ))

    # fixed points against R, for the rows r <= 4 that reach the order,
    # from n = C(r, 2) on: below it both sides vanish by construction
    run("fixed-point sums == product series", (
        ([r, n], e_poly_Hnnr_fixed(n, r), r_ser.get(r, n))
        for r in range(min(top, 4) + 1) for n in range(comb(r, 2), order + 1)
    ))

    # chi against the census (each B cell at t = 1 is chi, or _decode raised)
    def chi_cells():
        for m in range(1, top + 1):
            chi = chi_series(m, order)
            for n in range(order + 1):
                yield [m, n], chi.coeff(n), LaurentPoly.const(count_partitions_with_mu(n, m))

    run("chi == fixed-point census", chi_cells())

    # B's column sums against the census (X's are R == G.X's row r = 0)
    run("sum_m B[m][n] == partition census", (
        ([n], sum((b.get(m, n) for m in b.rows), ZERO), e_poly_Bnnr_fixed(n, 0))
        for n in range(order + 1)
    ))

    return VerificationReport(order, checks)
