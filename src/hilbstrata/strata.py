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
y^r coefficient for m <= 12 (verify._cauchy_cells).  X and B are one
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
partition census.  R_0..R_4 are checked against the fixed-point sums,
and chi_series, which reads the guard's plain-int table, against the
fixed-point census.  verify_all is one table of (name, cells) entries,
compared exactly by module verify, which imports neither route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb

from . import packed, qseries
from .diagrams import (
    count_partitions_with_mu, e_poly_Bnnr_fixed, e_poly_Hnnr_fixed, mu_max)
from .laurent import ZERO, LaurentPoly
from .qseries import QSeries
from .verify import (CheckResult, VerificationReport, _cauchy_cells,
                     convolution_cells, grassmannian_cells, series_cells)


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


def verify_all(order: int) -> VerificationReport:
    """Run every internal identity and cross-pipeline check at the given order.

    Every check size comes from the order.  Cauchy's q-binomial theorem
    runs at the order clamped to 8..12, and the fixed-point check compares
    the partition-census sums with the rows of R for r <= min(mu_max(order), 4)
    (R_0 = series_H among them) and C(r, 2) <= n <= order, so no cell it
    compares vanishes by construction.  A check that compares no cell fails.

    The suite is one table of (name, cells) entries, run in order; cells
    takes no argument and builds what only its check reads.  A new check is
    one entry, a fault-matrix case it fails and a row in README's fault table.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    top = mu_max(order)  # always >= 1
    r_ser = StrataMatrix({r: qseries.series_Hnnr(r, order) for r in range(top + 1)})
    x = compute_X(order)
    b = compute_B(order)
    checks = (
        # the q-binomial theorem the inversion and the closed forms rest on,
        # and the y0 table's builder against the matrix pipeline's row m = 1
        ("Cauchy q-binomial theorem", lambda: _cauchy_cells(min(max(order, 8), 12))),
        ("y0 == X_1 (punctured plane)",
         lambda: series_cells([], qseries.series_Y0(order), x.rows[1])),
        # Grassmannian-bundle and convolution relations
        ("R == G.X (Grassmannian fibers)", lambda: grassmannian_cells(r_ser, x)),
        ("X == B.A (origin/punctured split)", lambda: convolution_cells(x, b, order)),
        ("closed forms == matrix pipeline", lambda: chain.from_iterable(
            series_cells([kind, m], closed_form(m, order), family.rows[m])
            for kind, closed_form, family in (("B", closed_form_B, b), ("X", closed_form_X, x))
            for m in family.rows)),
        ("fixed-point sums == product series", lambda: (
            ([r, n], e_poly_Hnnr_fixed(n, r), r_ser.get(r, n))
            for r in range(min(top, 4) + 1) for n in range(comb(r, 2), order + 1))),
        # chi against the census (each B cell at t = 1 is chi, or _decode raised)
        ("chi == fixed-point census", lambda: chain.from_iterable(
            series_cells([m], chi_series(m, order), QSeries(
                [LaurentPoly.const(count_partitions_with_mu(n, m)) for n in range(order + 1)]))
            for m in range(1, top + 1))),
        # B's column sums against the census (X's are R == G.X's row r = 0)
        ("sum_m B[m][n] == partition census", lambda: series_cells(
            [], QSeries([sum((b.get(m, n) for m in b.rows), ZERO) for n in range(order + 1)]),
            QSeries([e_poly_Bnnr_fixed(n, 0) for n in range(order + 1)]))),
    )
    return VerificationReport(
        order, [CheckResult.compare(name, cells()) for name, cells in checks])
