"""Acceptance suite: the seven exit criteria, each timed against its budget.

Every check is exact (integer polynomial equality, zero tolerance); the
budgets are wall-clock ceilings.  Run with `pytest tests/test_acceptance.py -s`
to see one pass/fail line per criterion.
"""

import time
from contextlib import contextmanager
from math import comb

from hilbstrata.diagrams import count_partitions_with_mu, e_poly_Hnnr_fixed, mu_max
from hilbstrata.laurent import ONE, ZERO, LaurentPoly, gauss_binomial
from hilbstrata.qseries import (
    QSeries,
    euler_identity_check,
    series_H,
    series_Hnnr,
    series_Y0,
    series_Y0_dual,
)
from hilbstrata.strata import (
    chi_series,
    closed_form_B,
    closed_form_X,
    compute_B,
    compute_X,
)

from reference_data import B_TABLE, CHI_TABLE, H_TABLE, Y0_TABLE

P = LaurentPoly.from_string


def ginv_entry(m, k):
    """Oracle: entry (m, k) of the inverse of G(k, m) = gauss(k, m)."""
    if k < m:
        return ZERO
    p = gauss_binomial(k, m).shift(comb(k - m, 2))
    return -p if (k - m) % 2 else p


@contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} "
        f"({elapsed:.2f}s, budget {budget_s:.0f}s)"
    )
    assert ok, f"criterion {num} blew its {budget_s}s budget ({elapsed:.2f}s)"


def test_criterion_1_b_strata_table_both_pipelines():
    with criterion(1, "E(B^[n]_m) table, n<=14, m=2..5, both pipelines", 60):
        b = compute_B(14)
        closed = {m: closed_form_B(m, 14) for m in range(2, 6)}
        checked = 0
        for (n, m), cell in B_TABLE.items():
            expected = P(cell)
            assert b.get(m, n) == expected, ("matrix", n, m)
            assert closed[m].coeff(n) == expected, ("closed form", n, m)
            checked += 1
        assert checked == 56


def test_criterion_2_punctured_plane_table():
    with criterion(2, "E(Y0^[n]) table, n<=8", 1):
        s = series_Y0(8)
        for n, cell in enumerate(Y0_TABLE):
            assert s.coeff(n) == P(cell), n
        assert len(Y0_TABLE) == 9


def test_criterion_3_h_strata_table_both_pipelines():
    with criterion(3, "E(H^[n]_m) table, n<=4, m<=3, both pipelines", 5):
        x = compute_X(4)
        closed = {m: closed_form_X(m, 4) for m in range(1, 4)}
        checked = 0
        for (n, m), cell in H_TABLE.items():
            expected = P(cell)
            assert x.get(m, n) == expected, ("matrix", n, m)
            assert closed[m].coeff(n) == expected, ("closed form", n, m)
            checked += 1
        assert checked == 12


def test_criterion_4_euler_characteristic_table():
    with criterion(4, "chi table, n<=7, m=2..5, three derivations", 5):
        b = compute_B(7)
        chis = {m: chi_series(m, 7) for m in range(2, 6)}
        checked = 0
        for (n, m), value in CHI_TABLE.items():
            assert chis[m].coeff(n) == LaurentPoly.const(value), ("chi", n, m)
            if m <= mu_max(7):
                assert b.get(m, n).eval_at_one() == value, ("B at 1", n, m)
            assert count_partitions_with_mu(n, m) == value, ("census", n, m)
            checked += 1
        assert checked == 32


def test_criterion_5_fixed_points_match_series():
    with criterion(5, "fixed-point sums == series, n<=10, r<=4", 120):
        for r in range(1, 5):
            s = series_Hnnr(r, 10)
            for n in range(11):
                assert e_poly_Hnnr_fixed(n, r) == s.coeff(n), (n, r)


def test_criterion_6_identity_suite():
    with criterion(6, "inverse/Euler/lemma identities at order 12", 10):
        labels = range(1, 13)
        for i in labels:
            for j in labels:
                g_ginv = sum((gauss_binomial(l, i) * ginv_entry(l, j) for l in labels), ZERO)
                assert g_ginv == (ONE if i == j else ZERO), (i, j)
        assert series_Y0(12) * series_Y0_dual(12) == QSeries.one(12)
        for z_exp in range(-5, 1):
            assert euler_identity_check(z_exp, 12), z_exp
        for m in range(1, 7):
            for k in range(0, 11):
                lhs = sum((LaurentPoly.t_power(k * m - comb(m, 2) + comb(i, 2) - i * k,
                                               (-1) ** (m + i)) * gauss_binomial(m, i)
                           for i in range(m + 1)), ZERO)
                rhs = ONE
                for i in range(m):
                    rhs = rhs * (ONE - LaurentPoly.t_power(k - i))
                assert lhs == rhs, (m, k)


def test_criterion_7_structural_properties():
    with criterion(7, "structural properties of B and X at order 14", 60):
        x = compute_X(14)
        b = compute_B(14, x_matrix=x)
        for m in range(1, 6):
            for n in range(1, comb(m, 2)):
                assert b.get(m, n) == ZERO, (m, n)
            assert b.get(m, comb(m, 2)) == ONE, m
        for n in range(15):
            assert b.get(1, n) == (ONE if n == 0 else ZERO), n
        for m in b.rows:
            for n in range(15):
                cell = b.get(m, n)
                assert all(e >= 0 for e, _ in cell.items()), ("B", m, n)
                if cell:
                    assert cell.degree() <= max(n - 1, 0), ("B degree", m, n)
                assert all(e >= 0 for e, _ in x.get(m, n).items()), ("X", m, n)
        h = series_H(14)
        for n in range(15):
            total = ZERO
            for m in x.rows:
                total = total + x.get(m, n)
            assert total == h.coeff(n), n
