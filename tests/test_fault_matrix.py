"""The fault-injection matrix: which checks of verify_all catch a fault in
which kernel.

Each case perturbs one kernel through monkeypatch and pins the exact set
of checks of verify_all(14) that fail.  A polynomial kernel is perturbed
by a term that vanishes at t = 1, or multiplied by t, so no t = 1 guard
can see it; the partition census gains one partition.  A plain-int table
of the t = 1 guard is perturbed by one, which the guard itself must see:
those cases pin the ArithmeticError it raises instead.  Every memo cache
of the package is cleared before and after each case, so that no
perturbed value is read before the perturbation or outlives it.

The division step of strata._invert_nested is inline in its loop, so no
case can perturb it alone; the factor steps it runs on (_div_one_minus)
and the decoding it ends with (unpack) have cases.
"""

import re
import sys
from contextlib import contextmanager

import pytest

from hilbstrata import diagrams, laurent, packed, strata
from hilbstrata.laurent import LaurentPoly
from hilbstrata.qseries import QSeries
from hilbstrata.strata import verify_all

P = LaurentPoly.from_string

CAUCHY = "Cauchy q-binomial theorem"
Y0 = "y0 == X_1 (punctured plane)"
R_GX = "R == G.X (Grassmannian fibers)"
X_BA = "X == B.A (origin/punctured split)"
CLOSED_FORMS = "closed forms == matrix pipeline"
FIXED_POINTS = "fixed-point sums == product series"
CHI_CENSUS = "chi == fixed-point census"
B_CENSUS = "sum_m B[m][n] == partition census"


def clear_memo_caches():
    """Empty every module-level callable of the package with a cache_clear."""
    for name, module in list(sys.modules.items()):
        if name == "hilbstrata" or name.startswith("hilbstrata."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def factor_step(name, q_exp, n, extra, t_exp=None):
    """Add extra to q^n of every QSeries.<name> step with that q_exp (and
    that t_exp, if one is given)."""
    def perturb(mp):
        true_step = getattr(QSeries, name)

        def step(self, t, q):
            out = true_step(self, t, q)
            if q == q_exp and t_exp in (None, t) and out.order >= n:
                out.coeffs[n] = out.coeffs[n] + P(extra)
            return out

        mp.setattr(QSeries, name, step)
    return perturb


def add_shifted(shift):
    """Add t^6 - t^2 to every shift by t^shift whose result has more than 3
    terms; the sum runs on the true add_shifted, since + runs on it too."""
    def perturb(mp):
        true_add_shifted = LaurentPoly.add_shifted

        def perturbed(self, other, k, sign=1):
            out = true_add_shifted(self, other, k, sign)
            if k == shift and len(list(out.items())) > 3:
                out = true_add_shifted(out, P("t^6-t^2"), 0)
            return out

        mp.setattr(LaurentPoly, "add_shifted", perturbed)
    return perturb


def q_pascal_row(mp):
    """Add t^5 - t to the Gaussian binomial [4, 2]."""
    true_row = laurent._q_pascal_row

    def perturbed(m):
        row = true_row(m)
        return (*row[:2], row[2] + P("t^5-t"), *row[3:]) if m == 4 else row

    mp.setattr(laurent, "_q_pascal_row", perturbed)


def bump(table, i, *rest):
    """The tuple table with the entry at index path (i, *rest) raised by one."""
    entry = bump(table[i], *rest) if rest else table[i] + 1
    return (*table[:i], entry, *table[i + 1:])


def packed_table(name, edit):
    """Replace packed.<name>(*args) by edit(args, its true value)."""
    def perturb(mp):
        true_table = getattr(packed, name)
        mp.setattr(packed, name, lambda *args: edit(args, true_table(*args)))
    return perturb


def packed_div_one_minus(mp):
    """Add 2^{4K} - 2^K (t^4 - t) to q^6 after every packed step with q_exp = 3."""
    true_step = strata._div_one_minus

    def perturbed(col, t_exp, q_exp, k_bits):
        true_step(col, t_exp, q_exp, k_bits)
        if q_exp == 3 and len(col) > 6:
            col[6] += (1 << 4 * k_bits) - (1 << k_bits)

    mp.setattr(strata, "_div_one_minus", perturbed)


def unpack(mp):
    """Multiply every unpacked polynomial of degree 5 by t."""
    true_unpack = packed.unpack

    def perturbed(v, k_bits):
        out = true_unpack(v, k_bits)
        return out.shift(1) if out and out.degree() == 5 else out

    mp.setattr(packed, "unpack", perturbed)


def t_column(mp):
    """Add 2^{4K} - 2^K (t^4 - t) to q^6 of T_2."""
    true_column = packed.t_column

    def perturbed(m, order, k_bits):
        out = true_column(m, order, k_bits)
        if m == 2 and order >= 6:
            out = (*out[:6], out[6] + (1 << 4 * k_bits) - (1 << k_bits), *out[7:])
        return out

    mp.setattr(packed, "t_column", perturbed)


def gauss_at(mp):
    """Add 2^{5K} - 2^K (t^5 - t) to the packed Gaussian binomial [4, 2]."""
    true_gauss = packed.gauss_at

    def perturbed(order, k_bits):
        rows = true_gauss(order, k_bits)
        if len(rows) > 4:
            row = rows[4]
            rows = (*rows[:4], (*row[:2], row[2] + (1 << 5 * k_bits) - (1 << k_bits),
                                *row[3:]), *rows[5:])
        return rows

    mp.setattr(packed, "gauss_at", perturbed)


def census(mp):
    """Add 1 to the e = 2 entry of the last row of _census(9)."""
    true_census = diagrams._census

    def perturbed(n):
        rows = true_census(n)
        if n == 9:
            rows = [*rows[:-1], [c + (e == 2) for e, c in enumerate(rows[-1])]]
        return rows

    mp.setattr(diagrams, "_census", perturbed)


CASES = [
    ("QSeries.div_one_minus", factor_step("div_one_minus", 3, 6, "t^4-t"),
     {Y0, R_GX, FIXED_POINTS}),
    # only the running product's r = 3 step divides by 1 - t^3 q^3
    ("QSeries.div_one_minus running product",
     factor_step("div_one_minus", 3, 6, "t^4-t", t_exp=3), {R_GX, FIXED_POINTS}),
    ("QSeries.mul_one_minus", factor_step("mul_one_minus", 2, 5, "t^4-t"), {Y0}),
    ("LaurentPoly.add_shifted", add_shifted(3),
     {CAUCHY, Y0, R_GX, FIXED_POINTS}),
    # k = 0 is the shift + and - pass; only the column sums add polynomials
    ("LaurentPoly.add_shifted at k = 0", add_shifted(0), {B_CENSUS}),
    ("laurent._q_pascal_row", q_pascal_row, {CAUCHY, R_GX}),
    ("strata._div_one_minus", packed_div_one_minus,
     {Y0, R_GX, X_BA, CLOSED_FORMS, B_CENSUS}),
    ("packed.unpack", unpack, {X_BA, B_CENSUS}),
    ("packed.t_column", t_column, {CLOSED_FORMS}),
    ("packed.gauss_at", gauss_at, {CLOSED_FORMS}),
    ("diagrams._census", census, {CHI_CENSUS, FIXED_POINTS, B_CENSUS}),
]

# Faults in the plain-int tables of the t = 1 guard change values at
# t = 1, so the guard raises, naming the first (n, m) it decodes wrongly.
GUARD_CASES = [
    ("packed.distinct_parts", packed_table(
        "distinct_parts", lambda args, d: bump(d, 9, 2) if len(d) > 9 else d), 9, 1),
    ("packed.nested_rows_at_one", packed_table(
        "nested_rows_at_one", lambda args, rows: bump(rows, 1, 9) if args[0] >= 9 else rows),
     9, 1),
    ("packed.chi_at_one", packed_table(
        "chi_at_one", lambda args, chi: bump(chi, 9) if args[0] == 2 and len(chi) > 9 else chi),
     9, 2),
]


@contextmanager
def perturbed(perturb):
    clear_memo_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            perturb(mp)
            yield
    finally:
        clear_memo_caches()


@pytest.mark.parametrize("perturb, caught_by", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_fault_is_caught(perturb, caught_by):
    with perturbed(perturb):
        report = verify_all(14)
    assert {c.name for c in report.checks if not c.passed} == caught_by
    assert verify_all(14).passed


def test_every_check_catches_a_fault():
    # a check that no injected fault fails adds nothing the others miss
    caught = set().union(*(caught_by for _, _, caught_by in CASES))
    assert caught == {c.name for c in verify_all(14).checks}


@pytest.mark.parametrize("perturb, n, m", [case[1:] for case in GUARD_CASES],
                         ids=[case[0] for case in GUARD_CASES])
def test_guard_table_fault_raises(perturb, n, m):
    with perturbed(perturb), pytest.raises(
            ArithmeticError, match=re.escape(f"coefficient of q^{n} at m={m} is ")):
        verify_all(14)
    assert verify_all(14).passed
