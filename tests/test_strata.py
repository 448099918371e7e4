"""Matrix pipeline, closed forms, Euler characteristics, verification suite."""

from math import comb

import pytest

from hilbstrata.diagrams import count_partitions_with_mu, mu_max
from hilbstrata.laurent import ONE, ZERO, LaurentPoly, gauss_binomial
from hilbstrata.qseries import QSeries, series_H, series_Y0_dual
from hilbstrata.strata import (
    NonPolynomialCoefficientError,
    StrataMatrix,
    build_A,
    build_A_inverse,
    build_G,
    build_G_inverse,
    build_R,
    check_relation_grassmannian,
    chi_series,
    closed_form_B,
    closed_form_X,
    compute_B,
    compute_X,
    lemma_identity_check,
    verify_all,
)

from reference_data import B_TABLE, CHI_TABLE, H_TABLE, Y0_TABLE

P = LaurentPoly.from_string


class TestMatrices:
    def test_G_entries(self):
        g = build_G(4)
        assert g.get(1, 1) == ONE
        assert g.get(2, 1) == ZERO
        assert g.get(1, 2) == P("1+t")

    def test_Ginv_entries(self):
        gi = build_G_inverse(4)
        assert gi.get(2, 2) == ONE
        assert gi.get(2, 3) == -gauss_binomial(3, 2)
        assert gi.get(2, 3) == P("-t^2-t-1")

    @pytest.mark.parametrize("size", [1, 4, 8])
    def test_G_inverse_both_sides(self, size):
        g = build_G(size)
        gi = build_G_inverse(size)
        assert g.matmul(gi).is_identity()
        assert gi.matmul(g).is_identity()

    def test_A_entries(self):
        a = build_A(6)
        assert all(a.get(i, i) == ONE for i in range(7))
        assert a.get(1, 2) == P("t^2-1")
        assert a.get(3, 1) == ZERO

    @pytest.mark.parametrize("order", [1, 5, 10])
    def test_A_inverse_both_sides(self, order):
        a = build_A(order)
        ai = build_A_inverse(order)
        assert a.matmul(ai).is_identity()
        assert ai.matmul(a).is_identity()

    def test_R_known_entries(self):
        r = build_R(3, 4)
        assert r.get(2, 1) == ONE
        assert r.get(3, 2) == ZERO
        assert r.get(1, 1) == P("t^2+t")

    def test_R_methods_agree(self):
        assert build_R(4, 8, "series").entries == build_R(4, 8, "fixedpoint").entries

    def test_R_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            build_R(2, 4, "guess")

    def test_matmul_requires_matching_labels(self):
        with pytest.raises(ValueError):
            build_G(3).matmul(build_A(3))  # cols 1..3 against rows 0..3

    def test_json_round_trip(self):
        m = build_R(3, 5)
        back = StrataMatrix.from_json(m.to_json())
        assert back.entries == m.entries
        assert (back.row_base, back.col_base) == (m.row_base, m.col_base)


class TestPipeline:
    def test_X_reference_cells(self):
        x = compute_X(4)
        for (n, m), cell in H_TABLE.items():
            assert x.get(m, n) == P(cell), (n, m)

    def test_X_first_row_is_punctured_plane(self):
        x = compute_X(8)
        for n in range(9):
            assert x.get(1, n) == P(Y0_TABLE[n])

    def test_X_column_zero(self):
        x = compute_X(5)
        assert x.get(1, 0) == ONE
        assert all(x.get(m, 0) == ZERO for m in range(2, mu_max(5) + 1))

    def test_B_reference_cells(self):
        b = compute_B(14)
        for (n, m), cell in B_TABLE.items():
            assert b.get(m, n) == P(cell), (n, m)

    def test_B_first_row_is_delta(self):
        b = compute_B(9)
        assert b.get(1, 0) == ONE
        assert all(b.get(1, n) == ZERO for n in range(1, 10))

    def test_B_vanishing_and_staircase_cells(self):
        b = compute_B(14)
        for m in range(1, 6):
            for n in range(1, comb(m, 2)):
                assert b.get(m, n) == ZERO, (m, n)
            assert b.get(m, comb(m, 2)) == ONE, m

    def test_B_degree_bound(self):
        b = compute_B(14)
        for m in b.rows:
            for n in b.cols:
                cell = b.get(m, n)
                assert cell.is_polynomial()
                if cell:
                    assert cell.degree() <= max(n - 1, 0), (m, n)

    def test_column_sums_give_hilbert_scheme(self):
        x = compute_X(10)
        h = series_H(10)
        for n in range(11):
            total = ZERO
            for m in x.rows:
                total = total + x.get(m, n)
            assert total == h.coeff(n)

    def test_column_sums_give_punctual_scheme(self):
        # additivity over the generator-count stratification of B^[n]
        from hilbstrata.diagrams import e_poly_Bnnr_fixed

        b = compute_B(10)
        for n in range(11):
            total = ZERO
            for m in b.rows:
                total = total + b.get(m, n)
            assert total == e_poly_Bnnr_fixed(n, 0), n


class TestClosedForms:
    def test_B_m1_is_constant_one(self):
        cf = closed_form_B(1, 10)
        assert cf.coeff(0) == ONE
        assert all(cf.coeff(n) == ZERO for n in range(1, 11))

    def test_B_reference_columns(self):
        for m in range(2, 6):
            cf = closed_form_B(m, 14)
            for n in range(1, 15):
                assert cf.coeff(n) == P(B_TABLE[(n, m)]), (n, m)

    def test_X_reference_cells(self):
        for m in range(1, 4):
            cf = closed_form_X(m, 4)
            for n in range(1, 5):
                assert cf.coeff(n) == P(H_TABLE[(n, m)]), (n, m)

    def test_matches_matrix_pipeline_including_m6(self):
        order = 15  # mu_max(15) = 6: one column past the reference tables
        assert mu_max(order) == 6
        x = compute_X(order)
        b = compute_B(order, x_matrix=x)
        for m in range(1, 7):
            cb = closed_form_B(m, order)
            cx = closed_form_X(m, order)
            for n in range(order + 1):
                assert cb.coeff(n) == b.get(m, n), ("B", m, n)
                assert cx.coeff(n) == x.get(m, n), ("X", m, n)


class TestOrder30:
    """Both pipelines run on the factor-step kernel; these pin it against
    the generic Cauchy product and the independent partition census."""

    ORDER = 30

    @pytest.fixture(scope="class")
    def pipeline(self):
        x = compute_X(self.ORDER)
        return x, compute_B(self.ORDER, x_matrix=x)

    def test_closed_forms_match_matrix_pipeline(self, pipeline):
        x, b = pipeline
        for m in x.rows:
            cb = closed_form_B(m, self.ORDER)
            cx = closed_form_X(m, self.ORDER)
            for n in range(self.ORDER + 1):
                assert cb.coeff(n) == b.get(m, n), ("B", m, n)
                assert cx.coeff(n) == x.get(m, n), ("X", m, n)

    def test_B_rows_equal_cauchy_product_with_dual(self, pipeline):
        x, b = pipeline
        dual = series_Y0_dual(self.ORDER)
        for m in x.rows:
            row = QSeries([x.get(m, n) for n in range(self.ORDER + 1)]) * dual
            assert [b.get(m, n) for n in range(self.ORDER + 1)] == row.coeffs, m

    def test_B_at_one_is_partition_census(self, pipeline):
        _, b = pipeline
        for m in b.rows:
            for n in range(self.ORDER + 1):
                assert b.get(m, n).eval_at_one() == count_partitions_with_mu(n, m), (m, n)


class TestLemma:
    def test_m1_both_sides(self):
        for k in range(-3, 6):
            assert lemma_identity_check(1, k)

    def test_examples(self):
        assert lemma_identity_check(3, 5)
        assert lemma_identity_check(5, 2)  # the k-i = 0 factor kills both sides

    def test_sweep(self):
        for m in range(1, 7):
            for k in range(-2, 11):
                assert lemma_identity_check(m, k), (m, k)

    def test_numeric_mode(self):
        assert lemma_identity_check(4, 7, as_symbol=False)


class TestChi:
    def test_reference_table(self):
        for m in range(2, 6):
            chi = chi_series(m, 7)
            for n in range(8):
                got = chi.coeff(n)
                assert got == LaurentPoly.const(CHI_TABLE[(n, m)]), (n, m)

    def test_matches_specializations(self):
        b = compute_B(10)
        for m in range(1, mu_max(10) + 1):
            chi = chi_series(m, 10)
            for n in range(11):
                c = chi.coeff(n).eval_at_one()
                assert b.get(m, n).eval_at_one() == c
                assert count_partitions_with_mu(n, m) == c

    def test_row_nine_column_four(self):
        # eval-at-one cross-check tied to the 3t^3+4t^2+2t+1 table cell
        assert chi_series(4, 9).coeff(9) == LaurentPoly.const(10)


class TestVerifyAll:
    def test_small_order_passes(self):
        report = verify_all(6, fp_max_r=3, fp_max_n=6, identity_order=6)
        assert report.passed
        assert {c.name for c in report.checks} >= {
            "G * Ginv == I",
            "A * Ainv == I",
            "closed forms == matrix pipeline",
        }

    def test_order_zero_trivially_passes(self):
        assert verify_all(0, fp_max_r=1, fp_max_n=0, identity_order=1).passed

    def test_corrupted_entry_reports_coordinates(self):
        order = 6
        r = build_R(mu_max(order), order)
        x = compute_X(order, r_matrix=r)
        x.entries[1][3] = x.entries[1][3] + ONE  # corrupt X[2][3]
        bad = check_relation_grassmannian(r, x)
        assert bad
        assert all(n == 3 for _, n in bad)

    def test_report_serializes(self):
        report = verify_all(4, fp_max_r=2, fp_max_n=4, identity_order=4)
        obj = report.to_json()
        assert obj["passed"] is True
        assert all("name" in c and "failures" in c for c in obj["checks"])


class TestErrorPaths:
    def test_non_polynomial_guard_exists(self):
        # the guard is unreachable through the public constructors, so
        # exercise the exception type directly
        with pytest.raises(NonPolynomialCoefficientError):
            raise NonPolynomialCoefficientError("negative powers survived")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            closed_form_B(0, 5)
        with pytest.raises(ValueError):
            chi_series(0, 5)
        with pytest.raises(ValueError):
            build_R(0, 5)
        with pytest.raises(ValueError):
            build_G(0)
