"""Generator-count strata of punctual Hilbert schemes, two ways.

A strata family is a StrataMatrix: a dict from row label (m, or r for
the nested schemes) to that row's q-series.  The sum over n of
E(H^[n]_m) q^n is row m of X, and the same for B^[n]_m is row m of B.

Matrix pipeline: with R_r = series_Hnnr(r) the nested-scheme rows and
Ginv(m, k) = (-1)^{k-m} t^{C(k-m,2)} gauss(k, m) the inverse of the
Gaussian-binomial matrix G(k, m) = gauss(k, m),

    X_m = sum_k Ginv(m, k) R_k      (R_r = sum_m gauss(m, r) X_m)
    B_m = sum_k Ginv(m, k) D_k      (D_k = R_k * series_Y0_dual)

so X_m = B_m * series_Y0.  No entry of Ginv is formed: by Cauchy's
q-binomial theorem prod_{i<m}(1 + t^i y) = sum_r t^C(r,2) gauss(m, r) y^r,
so P(y) = sum_r t^C(r,2) R_r y^r = sum_m X_m prod_{i<m}(1 + t^i y), and
dividing the factors (1 + y), (1 + t y), (1 + t^2 y), ... off P in turn
(synthetic division) leaves X_1, X_2, ... as the remainders, one step
a - t^k b on q-coefficients at a time (_invert_gauss).  The rows are one
running product advanced by 1/(1 - t^r q^r) per r, with two seeds:
series_H gives R_k (series_Hnnr_rows, build_R) and series_poincare_H
gives D_k = q^C(k,2) series_poincare_H prod_{d<=k} 1/(1 - t^d q^d), the
seeds that also split the closed forms' two families.  B never reads X,
so "X == B.A" compares two independent inversions.

Closed forms: with c_{m,a} = (-1)^{a+1} gauss(m,a) (t^{-1}+...+t^{-a}) t^{C(a,2)+m}
(the k = 0 factor of the paper's products folded in), the numerators
N_a = prod_{k>=1} (1 - t^{k-a} q^k) and S_m = sum_{a=1}^m c_{m,a} N_a,

    sum_n E(B^[n]_m) q^n = S_m / prod_{i<m}(1-t^{i+1}) * prod_{k>=1} 1/(1-t^{k-1} q^k)
    sum_n E(H^[n]_m) q^n = S_m / prod_{i<m}(1-t^{i+1}) * prod_{k>=1} 1/(1-t^{k+1} q^k)

The families differ only in the q-denominator, the factors of
series_poincare_H for B and of series_H for X, applied once to S_m as
factor steps.  Neither route forms a Cauchy product of two series.

The two routes run on different arithmetic: the matrix pipeline on
LaurentPoly, the closed forms on packed ints (module packed, t -> 2^K),
where a factor step is one shift-and-add, scaling by c_{m,a} one int
multiply and the division by prod_{i<m}(1 - t^{i+1}) one exact divmod.
Unpacking is exact when every final coefficient c has |c| < 2^{K-1}, so
K is one bit more than a bound proven at t = 1 with plain ints, one for
both families: X_m = sum_k Ginv(m, k) R_k and B_m = sum_k Ginv(m, k)
(R_k series_Y0_dual) with |Ginv(m, k)|_1 = C(k, m), and R_k and
R_k series_Y0_dual = q^{C(k,2)} series_poincare_H prod_{d<=k} 1/(1-t^d q^d)
have nonnegative coefficients and equal R_k at t = 1, so every
|coefficient| of X_m(n) and B_m(n) is at most sum_k C(k, m) R_k(n)|_{t=1}.
N_a's q^n coefficient has t-powers >= n - a l(n), l(n) the largest
number of distinct parts of n, which gives the floors.  A shift that
would drop a nonzero bit and a division that leaves a remainder both raise.

Every entry is checked across both routes, against the fixed-point
census of partitions, and at t = 1 against chi_series, which inverts
the nested-scheme rows at t = 1 on plain ints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Iterable, Iterator

from . import packed, qseries
from .diagrams import (
    count_partitions_with_mu, e_poly_Bnnr_fixed, e_poly_Hnnr_fixed, mu_max)
from .laurent import ONE, ZERO, LaurentPoly, gauss_binomial
from .qseries import QSeries


class NonPolynomialCoefficientError(ArithmeticError):
    """A published E-polynomial retained a negative power of t (an internal bug)."""


@dataclass
class StrataMatrix:
    """A strata family: row label (m or r) -> the row's q-series."""

    rows: dict[int, QSeries]

    def get(self, i: int, n: int) -> LaurentPoly:
        """Coefficient of q^n in row i; zero outside the family."""
        row = self.rows.get(i)
        return row.coeff(n) if row is not None else ZERO


# -- the matrix pipeline ------------------------------------------------


def ginv_entry(m: int, k: int) -> LaurentPoly:
    """Entry (m, k) of the inverse of G(k, m) = gauss(k, m):
    (-1)^{k-m} t^{C(k-m,2)} gauss(k, m), zero for k < m."""
    if k < m:
        return ZERO
    p = gauss_binomial(k, m).shift(comb(k - m, 2))
    return -p if (k - m) % 2 else p


def build_R(max_r: int, order: int) -> StrataMatrix:
    """Nested-scheme rows R_r = series_Hnnr(r, order) for 1 <= r <= max_r,
    built by qseries.series_Hnnr_rows one factor step apart."""
    return StrataMatrix(dict(enumerate(qseries.series_Hnnr_rows(max_r, order), 1)))


def compute_X(order: int, r_matrix: StrataMatrix | None = None) -> StrataMatrix:
    """Strata rows X_m = sum_k Ginv(m, k) R_k, the E-polynomials of H^[n]_m.

    Rows run over 1 <= m <= mu_max(order); the row cutoff is exact, not a
    truncation, because R_k vanishes below q^C(k, 2).  The inversion is
    _invert_gauss over the rows R_1..R_top of r_matrix (build_R's rows
    by default).
    """
    top = mu_max(order)
    r = r_matrix if r_matrix is not None else build_R(top, order)
    return StrataMatrix(_invert_gauss([r.rows[k] for k in range(1, top + 1)]))


def compute_B(order: int, x_matrix: StrataMatrix | None = None) -> StrataMatrix:
    """Punctual strata rows B_m = sum_k Ginv(m, k) D_k, the E-polynomials of B^[n]_m.

    D_k = R_k * series_Y0_dual is the nested-row running product seeded
    with series_poincare_H, and B is inverted from D exactly as X is from
    R, so B never reads X and "X == B.A" compares two independent
    inversions.  x_matrix is not read: it stays in the signature only
    because existing callers pass X, among them the benchmark's
    matrix_pipeline (perfbench/workloads.py), which passes it positionally.
    """
    rows = qseries._nested_rows(qseries.series_poincare_H(order), mu_max(order))
    return StrataMatrix(_invert_gauss(list(rows)))


def _invert_gauss(rows: list[QSeries]) -> dict[int, QSeries]:
    """{m: sum_k Ginv(m, k) rows[k-1]} for 1 <= m <= len(rows), by the
    synthetic division of the module docstring.

    Dividing level i by (1 + t^i y) from the top coefficient down, each
    quotient coefficient is t^{-i}(a - b), a the level's coefficient and
    b the quotient coefficient above; the remainder is the row m = i.
    Level 0's remainder is the row m = 0, which vanishes, so P's y^0
    coefficient is never needed.  Every coefficient carries a pending
    t-shift, so a step is one add_shifted per q-coefficient.
    """
    # level[j] = (coeffs, s): the y^j coefficient is t^s times coeffs
    level = [None] + [(row.coeffs, comb(r, 2)) for r, row in enumerate(rows, 1)]
    out = {}
    for i in range(len(rows) + 1):
        quotient, above = [], None
        for coeff in reversed(level[1:]):
            coeffs, s = _minus(coeff, above)
            above = (coeffs, s - i)
            quotient.append(above)
        if i:
            # no shift is pending: level i's y^j coefficient carries C(i+j,2) - C(i,2)
            out[i] = QSeries(_minus(level[0], above)[0])
        level = quotient[::-1]
    return out


def _minus(a, b):
    """a - b for (coeffs, pending t-shift) pairs, in a's shift; a if b is None."""
    if b is None:
        return a
    (ca, sa), (cb, sb) = a, b
    return [x.add_shifted(y, sb - sa, -1) for x, y in zip(ca, cb)], sa


# -- closed forms --------------------------------------------------------


def closed_form_B(m: int, order: int) -> QSeries:
    """Closed-form generating function of E(B^[n]_m), exact to the order:
    S_m times series_poincare_H's factors (see the module docstring).

    Each q-coefficient is divided exactly by prod_{i<m}(1 - t^{i+1}); a
    residue of negative t-powers raises, since the strata E-polynomials
    are honest polynomials.
    """
    return _closed_form(m, order, denom_shift=-1)


def closed_form_X(m: int, order: int) -> QSeries:
    """Closed-form generating function of E(H^[n]_m): S_m times series_H's
    factors; see closed_form_B."""
    return _closed_form(m, order, denom_shift=+1)


def _closed_form(m: int, order: int, denom_shift: int) -> QSeries:
    if m < 1:
        raise ValueError("m must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    k_bits = packed.digit_bits(order)
    out = []
    for n, (low, v) in enumerate(zip(*packed.packed_column(m, order, denom_shift, k_bits))):
        c = packed.unpack(v, k_bits, low)
        if not c.is_polynomial():
            raise NonPolynomialCoefficientError(
                f"coefficient of q^{n} at m={m} kept negative t-powers: {c}"
            )
        out.append(c)
    return QSeries(out)


# -- identities and Euler characteristics ---------------------------------


def lemma_identity_check(m: int, k: int) -> bool:
    """Check sum_i (-1)^{m+i} t^{km-C(m,2)+C(i,2)-ik} gauss(m,i) == prod_{i<m}(1-t^{k-i})."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = ZERO
    for i in range(m + 1):
        term = gauss_binomial(m, i).shift(k * m - comb(m, 2) + comb(i, 2) - i * k)
        lhs = lhs + (-term if (m + i) % 2 else term)
    rhs = ONE
    for i in range(m):
        rhs = rhs * (ONE - LaurentPoly.t_power(k - i))
    return lhs == rhs


def chi_series(m: int, order: int) -> QSeries:
    """Generating function of Euler characteristics of the B^[n]_m strata.

    chi(B^[n]_m) = sum_{k>=m} (-1)^{k-m} C(k, m) R_k(n)|_{t=1}, the matrix
    pipeline's inversion at t = 1 (where series_Y0_dual is 1), on the plain
    ints of packed.nested_rows_at_one; coefficients are constant in t.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    rows = packed.nested_rows_at_one(order)
    return QSeries([LaurentPoly.const(sum((-1) ** (k - m) * comb(k, m) * rows[k - 1][n]
                                          for k in range(m, len(rows) + 1)))
                    for n in range(order + 1)])


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


def series_cells(where: list, got: QSeries, want: QSeries) -> Iterator[Comparison]:
    """Compare two series coefficient by coefficient, up to the larger order."""
    for n in range(max(got.order, want.order) + 1):
        yield [*where, n], got.coeff(n), want.coeff(n)


def grassmannian_cells(
    r_matrix: StrataMatrix, x_matrix: StrataMatrix
) -> Iterator[Comparison]:
    """Cells (r, n) of R_r == sum_m gauss(m, r) X_m (Grassmannian fibers)."""
    for r, want in r_matrix.rows.items():
        got = QSeries.zero(want.order)
        for m, row in x_matrix.rows.items():
            g = gauss_binomial(m, r)
            if g:
                got = got + row.scale(g)
        yield from series_cells([r], got, want)


def convolution_cells(
    x_matrix: StrataMatrix, b_matrix: StrataMatrix, order: int
) -> Iterator[Comparison]:
    """Cells (m, n) of X_m == B_m * series_Y0 (origin/punctured-plane split)."""
    y0 = qseries.series_Y0(order)
    for m, want in x_matrix.rows.items():
        yield from series_cells([m], b_matrix.rows[m] * y0, want)


def census_column_cells(
    x_matrix: StrataMatrix, b_matrix: StrataMatrix, order: int
) -> Iterator[Comparison]:
    """Cells (n, family) of the column sums against the partition census:
    sum_m E(B^[n]_m) == sum_{l |- n} t^{n-len(l)} and
    sum_m E(H^[n]_m) == sum_{l |- n} t^{n+len(l)} (Ellingsrud-Stromme).

    By conjugation, counting partitions by number of parts is counting
    them by largest part, which is what the census keeps: the sums are
    the r = 0 fixed-point sums e_poly_Bnnr_fixed(n, 0), e_poly_Hnnr_fixed(n, 0).
    """
    for n in range(order + 1):
        for tag, family, want in (("B", b_matrix, e_poly_Bnnr_fixed(n, 0)),
                                  ("X", x_matrix, e_poly_Hnnr_fixed(n, 0))):
            yield [n, tag], sum((family.get(m, n) for m in family.rows), ZERO), want


def verify_all(
    order: int,
    fp_max_r: int = 3,
    identity_order: int = 12,
) -> VerificationReport:
    """Run every internal identity and cross-pipeline check at the given order.

    The fixed-point check compares the partition-census sums with the rows
    of R for every r <= fp_max_r and n <= order; identity_order sizes the
    pure series identity checks, independently of the table order.  A
    check that compares no cell fails.
    """
    checks: list[CheckResult] = []

    def run(name: str, comparisons: Iterable[Comparison]):
        checks.append(CheckResult.compare(name, comparisons))

    top = mu_max(order)  # always >= 1
    r_ser = build_R(top, order)
    x = compute_X(order, r_matrix=r_ser)
    b = compute_B(order)

    # the two inverses, as the identities they stand for
    size = range(1, identity_order + 1)
    run("G * Ginv == I", (
        ([i, j],
         sum((gauss_binomial(l, i) * ginv_entry(l, j) for l in range(i, j + 1)), ZERO),
         ONE if i == j else ZERO)
        for i in size for j in size
    ))
    y0_times_dual = (qseries.series_Y0(identity_order)
                     * qseries.series_Y0_dual(identity_order))
    run("A * Ainv == I", series_cells([], y0_times_dual, QSeries.one(identity_order)))

    # Grassmannian-bundle and convolution relations
    run("R == G.X (Grassmannian fibers)", grassmannian_cells(r_ser, x))
    run("X == B.A (origin/punctured split)", convolution_cells(x, b, order))

    # closed forms against the matrix pipeline
    run("closed forms == matrix pipeline", chain.from_iterable(
        series_cells([kind, m], closed_form(m, order), family.rows[m])
        for kind, closed_form, family in (("B", closed_form_B, b), ("X", closed_form_X, x))
        for m in family.rows
    ))

    # fixed points against R; for r > top both sides vanish, since C(r, 2) > order
    run("fixed-point sums == product series", (
        ([r, n], e_poly_Hnnr_fixed(n, r), r_ser.get(r, n))
        for r in range(1, fp_max_r + 1) for n in range(order + 1)
    ))

    # Euler characteristics three ways: chi coefficients must be the
    # constant census values, and B must specialize to them at t = 1
    def chi_cells():
        for m in range(1, top + 1):
            chi = chi_series(m, order)
            for n in range(order + 1):
                census = count_partitions_with_mu(n, m)
                yield [m, n, "chi"], chi.coeff(n), LaurentPoly.const(census)
                yield [m, n, "B(1)"], b.get(m, n).eval_at_one(), census

    run("chi == B(1) == fixed-point census", chi_cells())

    # column sums against the full Hilbert scheme series
    run("sum_m X[m][n] == E(H^[n])", series_cells(
        [], sum(x.rows.values(), QSeries.zero(order)), qseries.series_H(order)))
    run("sum_m B[m][n], sum_m X[m][n] == partition census",
        census_column_cells(x, b, order))

    # q-binomial resummation lemma and the Euler identity
    run("binomial resummation lemma", (
        ([m, k], lemma_identity_check(m, k), True)
        for m in range(1, 7) for k in range(-2, 11)
    ))
    run("Euler product identity", (
        ([z], qseries.euler_identity_check(z, identity_order), True) for z in range(-5, 1)
    ))

    return VerificationReport(order, checks)
