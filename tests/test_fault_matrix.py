"""The fault-injection matrix: which checks of verify_all catch a fault in
which kernel.

Each case perturbs one kernel through monkeypatch by a term that vanishes
at t = 1, so no t = 1 guard can see it, and pins the exact set of checks of
verify_all(14, 4, 12) that fail.  Every memo cache of the package is
cleared before and after each case, so that no perturbed value is read
before the perturbation or outlives it.
"""

import sys

import pytest

from hilbstrata import laurent
from hilbstrata.laurent import LaurentPoly
from hilbstrata.qseries import QSeries
from hilbstrata.strata import verify_all

P = LaurentPoly.from_string

G_GINV = "G * Ginv == I"
A_AINV = "A * Ainv == I"
R_GX = "R == G.X (Grassmannian fibers)"
FIXED_POINTS = "fixed-point sums == product series"
SUM_X = "sum_m X[m][n] == E(H^[n])"
LEMMA = "binomial resummation lemma"
EULER = "Euler product identity"


def clear_memo_caches():
    """Empty every module-level callable of the package with a cache_clear."""
    for name, module in list(sys.modules.items()):
        if name == "hilbstrata" or name.startswith("hilbstrata."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def factor_step(name, q_exp, n, extra):
    """Add extra to q^n of every QSeries.<name> step with that q_exp."""
    def perturb(mp):
        true_step = getattr(QSeries, name)

        def step(self, t_exp, q):
            out = true_step(self, t_exp, q)
            if q == q_exp and out.order >= n:
                out.coeffs[n] = out.coeffs[n] + P(extra)
            return out

        mp.setattr(QSeries, name, step)
    return perturb


def add_shifted(mp):
    """Add t^6 - t^2 to every shift by t^3 whose result has more than 3 terms."""
    true_add_shifted = LaurentPoly.add_shifted

    def perturbed(self, other, k, sign=1):
        out = true_add_shifted(self, other, k, sign)
        return out + P("t^6-t^2") if k == 3 and len(list(out.items())) > 3 else out

    mp.setattr(LaurentPoly, "add_shifted", perturbed)


def q_pascal_row(mp):
    """Add t^5 - t to the Gaussian binomial [4, 2]."""
    true_row = laurent._q_pascal_row

    def perturbed(m):
        row = true_row(m)
        return (*row[:2], row[2] + P("t^5-t"), *row[3:]) if m == 4 else row

    mp.setattr(laurent, "_q_pascal_row", perturbed)


CASES = [
    ("QSeries.div_one_minus", factor_step("div_one_minus", 3, 6, "t^4-t"),
     {A_AINV, R_GX, FIXED_POINTS, SUM_X, EULER}),
    ("QSeries.mul_one_minus", factor_step("mul_one_minus", 2, 5, "t^4-t"),
     {A_AINV, EULER}),
    ("LaurentPoly.add_shifted", add_shifted,
     {G_GINV, A_AINV, R_GX, FIXED_POINTS, SUM_X, LEMMA, EULER}),
    ("laurent._q_pascal_row", q_pascal_row, {G_GINV, R_GX, LEMMA}),
]


@pytest.mark.parametrize("perturb, caught_by", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_fault_is_caught(perturb, caught_by):
    clear_memo_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            perturb(mp)
            report = verify_all(14, 4, 12)
    finally:
        clear_memo_caches()
    assert {c.name for c in report.checks if not c.passed} == caught_by
    assert verify_all(14, 4, 12).passed
