"""Generator-count strata of punctual Hilbert schemes, two ways.

Matrix pipeline: with R the matrix of nested-scheme E-polynomials,
G the Gaussian-binomial matrix and A the Toeplitz matrix of punctured
plane E-polynomials,

    X = Ginv * R        (rows m >= 1, cols n >= 0: E-polys of H^[n] strata)
    B = X * Ainv        (E-polys of the B^[n] strata)

Ainv is the Toeplitz matrix of series_Y0_dual, a product of
(1 - t^a q^b)^{+-1} factors, so each row of B is the matching row of X
times those factors, applied as factor steps.

Closed forms: the same X and B columns come from explicit q-series,

    sum_n E(B^[n]_m) q^n = prod_{i<m} 1/(1-t^{i+1})
        * sum_{a=1}^m (-1)^{a+1} t^{C(a,2)+m-1} gauss(m,a)
                      * prod_{k>=0} (1 - q^k t^{k-a})/(1 - q^k t^{k-1})

and the analogous sum with shifted signs/exponents for the H strata.
The denominator does not depend on a: the a-sum of scaled numerators
is formed first, and the denominator is applied to it once, again as
factor steps.  Neither route forms a Cauchy product of two series; both
run on the factor steps of qseries and the Laurent kernel under them.

Every entry is checked across both routes, against the fixed-point
enumeration of diagrams, and against the Euler-characteristic series.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Literal

from . import qseries
from .diagrams import count_partitions_with_mu, e_poly_Hnnr_fixed, mu_max
from .laurent import ONE, ZERO, LaurentPoly, gauss_binomial
from .qseries import QSeries, product_factors, times_factors


class NonPolynomialCoefficientError(ArithmeticError):
    """A published E-polynomial retained a negative power of t (an internal bug)."""


@dataclass
class StrataMatrix:
    """Finite window of one of the infinite strata matrices.

    Entries are LaurentPoly; row/col labels record where the window sits
    (the G and A families start at index 1 and 0 respectively).
    """

    row_base: int
    col_base: int
    entries: list[list[LaurentPoly]]

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def get(self, i: int, j: int) -> LaurentPoly:
        """Entry by matrix label (not list offset); zero outside the window."""
        if i not in self.rows or j not in self.cols:
            return ZERO
        return self.entries[i - self.row_base][j - self.col_base]

    @property
    def rows(self) -> range:
        return range(self.row_base, self.row_base + self.n_rows)

    @property
    def cols(self) -> range:
        return range(self.col_base, self.col_base + self.n_cols)

    def matmul(self, other: StrataMatrix) -> StrataMatrix:
        if self.cols != other.rows:
            raise ValueError("column labels must match row labels for a product")
        out = []
        for i in self.rows:
            row = []
            for j in other.cols:
                acc = ZERO
                for k in self.cols:
                    a = self.get(i, k)
                    b = other.get(k, j)
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return StrataMatrix(self.row_base, other.col_base, out)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.get(i, j) == (ONE if i == j else ZERO)
            for i in self.rows
            for j in self.cols
        )

    def to_json(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> StrataMatrix:
        entries = [[LaurentPoly.from_json(p) for p in row] for row in obj["entries"]]
        return cls(obj["rows"][0], obj["cols"][0], entries)


# -- the five matrices -------------------------------------------------


def build_G(size: int) -> StrataMatrix:
    """Gaussian binomial matrix G[i][j] = gauss(j, i), 1 <= i, j <= size."""
    if size < 1:
        raise ValueError("size must be >= 1")
    entries = [
        [gauss_binomial(j, i) for j in range(1, size + 1)] for i in range(1, size + 1)
    ]
    return StrataMatrix(1, 1, entries)


def build_G_inverse(size: int) -> StrataMatrix:
    """Inverse of G in closed form: (-1)^{j-i} t^{C(j-i,2)} gauss(j, i)."""
    if size < 1:
        raise ValueError("size must be >= 1")
    entries = []
    for i in range(1, size + 1):
        row = []
        for j in range(1, size + 1):
            if j < i:
                row.append(ZERO)
                continue
            p = gauss_binomial(j, i).shift(comb(j - i, 2))
            row.append(-p if (j - i) % 2 else p)
        entries.append(row)
    return StrataMatrix(1, 1, entries)


def build_R(
    max_r: int, order: int, method: Literal["series", "fixedpoint"] = "series"
) -> StrataMatrix:
    """Nested-scheme E-polynomials R[r][n] = E(H^[n, n+r]), r >= 1, n >= 0.

    The series method reads coefficients of the closed product formula;
    the fixedpoint method sums t^alpha over marked diagrams.  Agreement
    of the two is one of the package's core cross-checks.
    """
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    entries = []
    for r in range(1, max_r + 1):
        if method == "series":
            s = qseries.series_Hnnr(r, order)
            entries.append([s.coeff(n) for n in range(order + 1)])
        elif method == "fixedpoint":
            entries.append([e_poly_Hnnr_fixed(n, r) for n in range(order + 1)])
        else:
            raise ValueError(f"unknown method {method!r}")
    return StrataMatrix(1, 0, entries)


def build_A(order: int) -> StrataMatrix:
    """Toeplitz matrix A[i][j] = E(Y0^[j-i]) on indices 0..order."""
    return _toeplitz(qseries.series_Y0(order))


def build_A_inverse(order: int) -> StrataMatrix:
    """Toeplitz matrix of dual E-polynomials; exact inverse of build_A."""
    return _toeplitz(qseries.series_Y0_dual(order))


def _toeplitz(s: QSeries) -> StrataMatrix:
    n = s.order
    entries = [
        [s.coeff(j - i) if j >= i else ZERO for j in range(n + 1)] for i in range(n + 1)
    ]
    return StrataMatrix(0, 0, entries)


# -- the matrix pipeline ------------------------------------------------


def compute_X(order: int, r_matrix: StrataMatrix | None = None) -> StrataMatrix:
    """Strata E-polynomials X[m][n] = E(H^[n]_m) via X = Ginv * R.

    Rows run over 1 <= m <= mu_max(order); the row cutoff is exact, not a
    truncation, because R[k][n] vanishes for n < C(k, 2).
    """
    top = mu_max(order)
    ginv = build_G_inverse(top)
    r = r_matrix if r_matrix is not None else build_R(top, order, "series")
    entries = []
    for m in range(1, top + 1):
        row = []
        for n in range(order + 1):
            acc = ZERO
            for k in range(m, top + 1):
                g = ginv.get(m, k)
                e = r.get(k, n)
                if g and e:
                    acc = acc + g * e
            row.append(acc)
        entries.append(row)
    return StrataMatrix(1, 0, entries)


def compute_B(order: int, x_matrix: StrataMatrix | None = None) -> StrataMatrix:
    """Punctual strata E-polynomials B[m][n] = E(B^[n]_m) via B = X * Ainv.

    Ainv is the Toeplitz matrix of series_Y0_dual, so row m of B is row m
    of X read as a q-series, times that product of (1 - t^a q^b)^{+-1}
    factors, applied one factor step at a time.
    """
    x = x_matrix if x_matrix is not None else compute_X(order)
    factors = qseries.y0_dual_factors(order)
    entries = []
    for m in x.rows:
        row = QSeries([x.get(m, n) for n in range(order + 1)])
        entries.append(times_factors(row, factors).coeffs)
    return StrataMatrix(1, 0, entries)


# -- closed forms --------------------------------------------------------


def closed_form_B(m: int, order: int) -> QSeries:
    """Closed-form generating function of E(B^[n]_m), exact to the order.

    The denominator prod_{k>=1} 1/(1 - t^{k-1} q^k) does not depend on
    the summation index a, so the a-sum of scaled numerators
    prod_{k>=1} (1 - t^{k-a} q^k) (each built once per (a, order) and
    shared by every column and by closed_form_X) is formed first and the
    denominator is applied to it once, as factor steps.  Each
    q-coefficient is then divided exactly by prod_{i=1}^{m-1}(1 - t^{i+1});
    any residue of negative t-powers raises, since the strata
    E-polynomials are honest polynomials.
    """
    return _closed_form(m, order, sign_offset=1, t_offset=m - 1, denom_shift=-1)


def closed_form_X(m: int, order: int) -> QSeries:
    """Closed-form generating function of E(H^[n]_m); see closed_form_B."""
    return _closed_form(m, order, sign_offset=0, t_offset=m, denom_shift=+1)


@lru_cache(maxsize=None)
def _numerator(a: int, order: int) -> QSeries:
    """prod_{k>=1} (1 - t^{k-a} q^k), truncated; shared, so never mutate it."""
    return product_factors(((k - a, k, 1) for k in range(1, order + 1)), order)


def _closed_form(
    m: int, order: int, sign_offset: int, t_offset: int, denom_shift: int
) -> QSeries:
    if m < 1:
        raise ValueError("m must be >= 1")
    total = QSeries.zero(order)
    for a in range(1, m + 1):
        # k = 0 factor (1 - t^{-a}) / (1 - t^{denom_shift_at_0}), an exact Laurent scalar
        k0 = (ONE - LaurentPoly.t_power(-a)).exact_div(
            ONE - LaurentPoly.t_power(-1 if denom_shift == -1 else 1)
        )
        scalar = gauss_binomial(m, a) * k0
        scalar = scalar.shift(comb(a, 2) + t_offset)
        if (a + sign_offset) % 2:
            scalar = -scalar
        total = total + _numerator(a, order).scale(scalar)
    # the a-independent denominator prod_{k>=1} 1/(1 - t^{k+denom_shift} q^k)
    total = times_factors(total, ((k + denom_shift, k, -1) for k in range(1, order + 1)))
    prefactor = ONE
    for i in range(1, m):
        prefactor = prefactor * (ONE - LaurentPoly.t_power(i + 1))
    out = []
    for n in range(order + 1):
        c = total.coeff(n).exact_div(prefactor) if total.coeff(n) else ZERO
        if not c.is_polynomial():
            raise NonPolynomialCoefficientError(
                f"coefficient of q^{n} at m={m} kept negative t-powers: {c}"
            )
        out.append(c)
    return QSeries(out)


# -- identities and Euler characteristics ---------------------------------


def lemma_identity_check(m: int, k: int, as_symbol: bool = True) -> bool:
    """Check sum_i (-1)^{m+i} t^{km-C(m,2)+C(i,2)-ik} gauss(m,i) == prod_{i<m}(1-t^{k-i}).

    as_symbol compares exact Laurent polynomials; otherwise both sides
    are spot-checked at t = 2 and t = 3 with exact rationals.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = ZERO
    for i in range(m + 1):
        term = gauss_binomial(m, i).shift(k * m - comb(m, 2) + comb(i, 2) - i * k)
        lhs = lhs + (-term if (m + i) % 2 else term)
    rhs = ONE
    for i in range(m):
        rhs = rhs * (ONE - LaurentPoly.t_power(k - i))
    if as_symbol:
        return lhs == rhs
    return all(
        lhs.eval_fraction(Fraction(v)) == rhs.eval_fraction(Fraction(v)) for v in (2, 3)
    )


def chi_series(m: int, order: int) -> QSeries:
    """Generating function of Euler characteristics of the B^[n]_m strata.

    prod_d 1/(1-q^d) * sum_k (-1)^{k-m} q^C(k,2) C(k,m) / (q)_k with
    (q)_k = prod_{d<=k}(1-q^d); coefficients are plain integers (constant
    in t).  Terms beyond k = mu_max(order) start past the truncation.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = QSeries.zero(order)
    for k in range(m, mu_max(order) + 1):
        term = product_factors(((0, d, -1) for d in range(1, k + 1)), order)
        coeff = LaurentPoly.const(comb(k, m) if (k - m) % 2 == 0 else -comb(k, m))
        total = total + term.scale(coeff).shift_q(comb(k, 2))
    return times_factors(total, ((0, d, -1) for d in range(1, order + 1)))


# -- the verification suite -----------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    failures: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "failures": self.failures}


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
            extra = "" if c.passed else f"  {json.dumps(c.failures[:4])}"
            lines.append(f"[{status:4}] {c.name}{extra}")
        lines.append(f"{'all identities hold' if self.passed else 'MISMATCHES FOUND'}"
                     f" at order {self.order}")
        return "\n".join(lines)


def check_relation_grassmannian(r_matrix: StrataMatrix, x_matrix: StrataMatrix) -> list:
    """Mismatch coordinates (r, n) of R[r][n] == sum_m X[m][n] * gauss(m, r)."""
    bad = []
    for r in r_matrix.rows:
        for n in r_matrix.cols:
            total = ZERO
            for m in x_matrix.rows:
                g = gauss_binomial(m, r)
                if g and x_matrix.get(m, n):
                    total = total + x_matrix.get(m, n) * g
            if total != r_matrix.get(r, n):
                bad.append((r, n))
    return bad


def check_relation_convolution(x_matrix: StrataMatrix, b_matrix: StrataMatrix) -> list:
    """Mismatch coordinates (m, n) of X[m][n] == sum_s E(Y0^[n-s]) * B[m][s]."""
    order = x_matrix.n_cols - 1
    y0 = qseries.series_Y0(order)
    bad = []
    for m in x_matrix.rows:
        for n in range(order + 1):
            total = ZERO
            for s in range(n + 1):
                b = b_matrix.get(m, s)
                y = y0.coeff(n - s)
                if b and y:
                    total = total + b * y
            if total != x_matrix.get(m, n):
                bad.append((m, n))
    return bad


def verify_all(
    order: int,
    fp_max_r: int = 3,
    fp_max_n: int | None = None,
    identity_order: int = 12,
    progress: Callable[[str], None] | None = None,
) -> VerificationReport:
    """Run every internal identity and cross-pipeline check at the given order.

    fp_max_r / fp_max_n bound the (slower) fixed-point enumeration used
    to re-derive R; identity_order sizes the pure matrix/series identity
    checks, independently of the table order.
    """
    if fp_max_n is None:
        fp_max_n = order
    fp_max_n = min(fp_max_n, order)
    checks: list[CheckResult] = []

    def run(name: str, failures: list):
        checks.append(CheckResult(name, not failures, failures))
        if progress:
            progress(f"{name}: {'ok' if not failures else f'{len(failures)} mismatches'}")

    top = mu_max(order)  # always >= 1
    r_ser = build_R(top, order, "series")
    x = compute_X(order, r_matrix=r_ser)
    b = compute_B(order, x_matrix=x)

    # matrix inverses
    gi = build_G(identity_order).matmul(build_G_inverse(identity_order))
    run("G * Ginv == I", [] if gi.is_identity() else [["G*Ginv", identity_order]])
    ai = build_A(identity_order).matmul(build_A_inverse(identity_order))
    run("A * Ainv == I", [] if ai.is_identity() else [["A*Ainv", identity_order]])

    # Grassmannian-bundle and convolution relations
    run("R == G.X (Grassmannian fibers)", check_relation_grassmannian(r_ser, x))
    run("X == B.A (origin/punctured split)", check_relation_convolution(x, b))

    # closed forms against the matrix pipeline
    bad = []
    for m in range(1, top + 1):
        cf = closed_form_B(m, order)
        for n in range(order + 1):
            if cf.coeff(n) != b.get(m, n):
                bad.append(["B", m, n])
        cf = closed_form_X(m, order)
        for n in range(order + 1):
            if cf.coeff(n) != x.get(m, n):
                bad.append(["X", m, n])
    run("closed forms == matrix pipeline", bad)

    # fixed points against the series
    bad = []
    for r in range(1, fp_max_r + 1):
        s = qseries.series_Hnnr(r, fp_max_n)
        for n in range(fp_max_n + 1):
            if e_poly_Hnnr_fixed(n, r) != s.coeff(n):
                bad.append([r, n])
    run("fixed-point sums == product series", bad)

    # Euler characteristics three ways
    bad = []
    for m in range(1, top + 1):
        chi = chi_series(m, order)
        for n in range(order + 1):
            val = chi.coeff(n)
            c = val.eval_at_one()
            if val != LaurentPoly.const(c):
                bad.append([m, n, "chi coefficient not constant in t"])
            elif b.get(m, n).eval_at_one() != c or count_partitions_with_mu(n, m) != c:
                bad.append([m, n])
    run("chi == B(1) == fixed-point census", bad)

    # column sums against the full Hilbert scheme series
    h = qseries.series_H(order)
    bad = []
    for n in range(order + 1):
        total = ZERO
        for m in x.rows:
            total = total + x.get(m, n)
        if total != h.coeff(n):
            bad.append([n])
    run("sum_m X[m][n] == E(H^[n])", bad)

    # q-binomial resummation lemma and the Euler identity
    bad = [
        [m, k]
        for m in range(1, 7)
        for k in range(-2, 11)
        if not lemma_identity_check(m, k)
    ]
    run("binomial resummation lemma", bad)
    bad = [
        [z] for z in range(-5, 1) if not qseries.euler_identity_check(z, identity_order)
    ]
    run("Euler product identity", bad)

    return VerificationReport(order, checks)
