"""Matrix pipeline, closed forms, Euler characteristics, verification suite."""

import random
from math import comb

import pytest

from hilbstrata.diagrams import (
    count_partitions_with_mu, e_poly_Hnnr_fixed, mu_max, partitions_of)
from hilbstrata.laurent import ONE, ZERO, LaurentPoly, gauss_binomial
from hilbstrata import laurent, packed, qseries, strata
from hilbstrata.qseries import QSeries, series_H, series_Hnnr, series_Y0, series_Y0_dual
from hilbstrata.strata import (
    CheckResult,
    VerificationReport,
    build_R,
    census_column_cells,
    chi_series,
    closed_form_B,
    closed_form_X,
    compute_B,
    compute_X,
    convolution_cells,
    grassmannian_cells,
    verify_all,
)

from reference_data import B_TABLE, CHI_TABLE, H_TABLE, Y0_TABLE

P = LaurentPoly.from_string


def mismatches(comparisons):
    return [where for where, got, want in comparisons if got != want]


def ginv_entry(m, k):
    """Oracle: entry (m, k) of the inverse of G(k, m) = gauss(k, m),
    (-1)^{k-m} t^{C(k-m,2)} gauss(k, m), zero for k < m."""
    if k < m:
        return ZERO
    p = gauss_binomial(k, m).shift(comb(k - m, 2))
    return -p if (k - m) % 2 else p


def cauchy_coefficients(m):
    """Oracle: the y-coefficients of prod_{i<m} (1 + t^i y), y^0 first, in
    LaurentPoly arithmetic, one product with each factor."""
    coeffs = [ONE]
    for i in range(m):
        coeffs = [a + LaurentPoly.t_power(i) * b for a, b in zip(coeffs + [ZERO], [ZERO] + coeffs)]
    return coeffs


def q_shifted(s, k):
    """Oracle: s times q^k at s's order (top coefficients fall off)."""
    return QSeries(([ZERO] * k + s.coeffs)[: s.order + 1])


class TestMatrices:
    """G(k, m) = gauss(k, m) and its inverse; A and Ainv as the series
    series_Y0 and series_Y0_dual; R as the nested-scheme rows."""

    def test_G_entries(self):
        assert gauss_binomial(1, 1) == ONE
        assert gauss_binomial(1, 2) == ZERO
        assert gauss_binomial(2, 1) == P("1+t")

    def test_Ginv_entries(self):
        assert ginv_entry(2, 2) == ONE
        assert ginv_entry(2, 3) == -gauss_binomial(3, 2)
        assert ginv_entry(2, 3) == P("-t^2-t-1")
        assert ginv_entry(3, 2) == ZERO

    @pytest.mark.parametrize("size", [1, 4, 8])
    def test_G_inverse_both_sides(self, size):
        labels = range(1, size + 1)
        for i in labels:
            for j in labels:
                delta = ONE if i == j else ZERO
                g_ginv = sum((gauss_binomial(l, i) * ginv_entry(l, j) for l in labels), ZERO)
                ginv_g = sum((ginv_entry(i, l) * gauss_binomial(j, l) for l in labels), ZERO)
                assert g_ginv == delta, (i, j)
                assert ginv_g == delta, (i, j)

    def test_A_entries(self):
        # A(i, j) = E(Y0^[j-i]): ones on the diagonal, zero below it
        a = series_Y0(6)
        assert a.coeff(0) == ONE
        assert a.coeff(1) == P("t^2-1")
        assert a.coeff(-2) == ZERO

    @pytest.mark.parametrize("order", [1, 5, 10])
    def test_A_inverse_both_sides(self, order):
        a, ai = series_Y0(order), series_Y0_dual(order)
        assert a * ai == QSeries.one(order)
        assert ai * a == QSeries.one(order)

    def test_R_known_entries(self):
        r = build_R(3, 4)
        assert r.get(2, 1) == ONE
        assert r.get(3, 2) == ZERO
        assert r.get(1, 1) == P("t^2+t")
        assert r.get(4, 1) == ZERO  # outside the family

    def test_R_methods_agree(self):
        # the series rows against the fixed-point sums
        r = build_R(4, 8)
        for k in range(1, 5):
            for n in range(9):
                assert r.get(k, n) == e_poly_Hnnr_fixed(n, k), (k, n)

    def test_R_rows_are_nested_series(self):
        # the running product against q^C(k,2) * series_H / (tq)_k formed
        # by Cauchy product and series inversion, no factor steps after
        # series_H; series_Hnnr shares the running product
        r = build_R(6, 20)
        assert list(r.rows) == list(range(1, 7))
        for k, row in r.rows.items():
            want = q_shifted(series_H(20) * qseries.product_factors(((d, d, 1) for d in range(1, k + 1)), 20).inv(), comb(k, 2))
            assert row == want, k
            assert series_Hnnr(k, 20) == want, k


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

    @pytest.mark.parametrize("order", [0, 3])
    def test_B_rows_share_nothing_with_X(self, order):
        # at order 0 every factor lies past the truncation; B must still
        # hold its own rows, so mutating one family leaves the other alone
        x = compute_X(order)
        b = compute_B(order, x_matrix=x)
        for m in x.rows:
            assert b.rows[m] is not x.rows[m]
            assert b.rows[m].coeffs is not x.rows[m].coeffs
        x.rows[1].coeffs[0] = ZERO
        assert b.get(1, 0) == ONE

    def test_B_degree_bound(self):
        b = compute_B(14)
        for m in b.rows:
            for n in range(15):
                cell = b.get(m, n)
                assert all(e >= 0 for e, _ in cell.items())
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


class TestGaussInversion:
    """compute_X and compute_B invert the Gaussian-binomial matrix by
    monomial steps; these pin them against Ginv formed entry by entry."""

    @staticmethod
    def ginv_sums(rows, order):
        top = mu_max(order)
        return {m: sum((QSeries([c * ginv_entry(m, k) for c in rows[k].coeffs])
                        for k in range(m, top + 1)),
                       QSeries.zero(order))
                for m in range(1, top + 1)}

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6, 14, 30])
    def test_rows_are_ginv_weighted_sums(self, order):
        top = mu_max(order)
        r = build_R(top, order).rows
        dual = series_Y0_dual(order)
        d = {k: row * dual for k, row in r.items()}
        assert compute_X(order).rows == self.ginv_sums(r, order)
        assert compute_B(order).rows == self.ginv_sums(d, order)

    def test_nested_rows_times_dual_are_the_poincare_seeded_rows(self):
        # q^C(k,2) * series_poincare_H * prod_{d<=k} 1/(1 - t^d q^d), the rows
        # B is inverted from, are R_k * series_Y0_dual: the two seeds differ
        # by exactly series_Y0_dual's factors
        for k in range(1, 8):
            factors = [(d - 1, d, -1) for d in range(1, 21)] + [(d, d, -1) for d in range(1, k + 1)]
            row = q_shifted(qseries.product_factors(factors, 20), comb(k, 2))
            want = series_Hnnr(k, 20) * series_Y0_dual(20)
            assert row.coeffs == want.coeffs, k

    @pytest.mark.parametrize("order", [0, 5, 14])
    def test_no_polynomial_product_and_no_gauss_binomial(self, monkeypatch, order):
        want = compute_X(order), compute_B(order)

        def forbidden(*args):
            raise AssertionError("the matrix pipeline formed a product")

        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(LaurentPoly, name, forbidden)
        monkeypatch.setattr(QSeries, "__mul__", forbidden)
        monkeypatch.setattr(strata, "gauss_binomial", forbidden)
        monkeypatch.setattr(laurent, "gauss_binomial", forbidden)
        assert (compute_X(order), compute_B(order)) == want

    def test_B_ignores_x_matrix(self):
        x = compute_X(6)
        x.rows[2].coeffs[3] = x.rows[2].coeffs[3] + ONE
        assert compute_B(6, x_matrix=x) == compute_B(6)


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
    """The matrix pipeline runs on packed ints; these pin its rows at
    order 30 against the closed forms, the LaurentPoly Cauchy product with
    series_Y0_dual and the independent partition census."""

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


class TestPackedKernel:
    """Both routes run on packed ints (t -> 2^K), by different formulas,
    and share only digit_bits, unpack and the t = 1 guard: these pin the
    packed values against LaurentPoly references and check that a fault
    in the shared part is still caught."""

    @pytest.fixture(scope="class")
    def pipeline80(self):
        x = compute_X(80)
        return x, compute_B(80, x_matrix=x)

    @pytest.mark.parametrize("order", [14, 30, 48, 80])
    def test_closed_forms_equal_matrix_pipeline(self, pipeline80, order):
        x, b = pipeline80
        for m in range(1, mu_max(order) + 2):  # one column past the top is zero
            cb = closed_form_B(m, order)
            cx = closed_form_X(m, order)
            for n in range(order + 1):
                assert cb.coeff(n) == b.get(m, n), ("B", m, n)
                assert cx.coeff(n) == x.get(m, n), ("X", m, n)

    def test_order_zero_and_columns_past_the_top(self):
        for closed_form in (closed_form_B, closed_form_X):
            assert closed_form(1, 0) == QSeries.one(0)
            for order in range(6):
                for m in range(mu_max(order) + 1, mu_max(order) + 4):
                    assert closed_form(m, order) == QSeries.zero(order), (order, m)

    def test_packed_ints_are_the_rows_at_t_equal_two(self, pipeline80):
        # K = 1 packs at t = 2: before unpacking, the ints are E_n(2)
        x, b = pipeline80
        for order in range(31):
            for denom_shift, family in ((-1, b), (1, x)):
                for m in range(1, mu_max(order) + 1):
                    values = packed.packed_column(m, order, denom_shift, 1)
                    for n in range(order + 1):
                        cell = family.get(m, n)
                        assert values[n] == sum(c << e for e, c in cell.items()), (
                            order, denom_shift, m, n)

    def test_digit_bits_bound_every_coefficient(self, pipeline80):
        x, b = pipeline80
        for denom_shift, family in ((-1, b), (1, x)):
            bits = [max((abs(c).bit_length() for m in family.rows
                         for _, c in family.get(m, n).items()), default=0)
                    for n in range(49)]
            for order in range(49):
                assert packed.digit_bits(order) > max(bits[: order + 1]), (
                    denom_shift, order)

    def test_nested_rows_at_one_are_the_rows_at_t_equal_one(self):
        for order in range(31):
            rows = packed.nested_rows_at_one(order)
            assert len(rows) == mu_max(order)
            for k, row in enumerate(rows, 1):
                want = series_Hnnr(k, order)
                assert row == tuple(want.coeff(n).eval_at_one() for n in range(order + 1)), (
                    order, k)

    def test_bound_premise_rows_times_dual_are_nonnegative(self):
        # digit_bits bounds B by R_k series_Y0_dual at t = 1: that product must
        # have only nonnegative coefficients and equal R_k there
        dual = series_Y0_dual(20)
        products = [series_Hnnr(k, 20) * dual for k in range(1, mu_max(20) + 1)]
        for product in products:
            assert all(c >= 0 for n in range(21) for _, c in product.coeff(n).items())
        for order in range(21):
            for k, row in enumerate(packed.nested_rows_at_one(order), 1):
                assert row == tuple(products[k - 1].coeff(n).eval_at_one()
                                    for n in range(order + 1)), (order, k)

    def test_digit_bits_is_the_direct_sum_bound(self):
        # the column-at-a-time accumulation keeps the direct double sum's K
        for order in range(61):
            rows = packed.nested_rows_at_one(order)
            bound = max(sum(comb(k, m) * row[n] for k, row in enumerate(rows, 1))
                        for m in range(1, len(rows) + 1) for n in range(order + 1))
            assert packed.digit_bits(order) == bound.bit_length() + 1, order

    def test_unpack_round_trips_balanced_digits(self):
        rng = random.Random(14)
        for k_bits in range(2, 41):
            half = 1 << (k_bits - 1)
            for _ in range(40):
                digits = [rng.randrange(-half, half) for _ in range(rng.randrange(1, 30))]
                digits[-1] = digits[-1] or -half  # a nonzero top digit, of either sign
                digits = [0] * rng.randrange(6) + digits  # a run of zero low digits
                v = sum(d << k_bits * i for i, d in enumerate(digits))
                want = LaurentPoly((e, d) for e, d in enumerate(digits) if d)
                assert packed.unpack(v, k_bits) == want, (k_bits, digits)
            assert packed.unpack(-half, k_bits) == LaurentPoly.const(-half)
            assert packed.unpack(half, k_bits) == LaurentPoly({0: -half, 1: 1}.items())

    def test_one_digit_width_for_both_families(self):
        assert [packed.digit_bits(n) for n in (20, 48, 80)] == [17, 28, 37]

    def test_t_exponents_are_at_least_binomial(self):
        # [q^n] T_m = sum_l (-1)^{l-m+1} d(n, l) t^e gauss(l, m-1) with
        # e = n + m-1 - m l + C(m-1, 2) >= C(l-m+1, 2); at order 30 the
        # packed T_m, unpacked with room to spare, is exactly that sum
        order = 30
        d = packed.distinct_parts(order)
        for m in range(1, mu_max(order) + 2):
            column = packed.t_column(m, order, 64)
            for n in range(order + 1):
                want = ZERO
                for l in range(m - 1, len(d[n])):
                    e = n + m - 1 - m * l + comb(m - 1, 2)
                    assert e >= comb(l - m + 1, 2), (m, n, l)
                    term = gauss_binomial(l, m - 1).shift(e) * d[n][l]
                    want += -term if (l - m + 1) % 2 else term
                assert packed.unpack(column[n], 64) == want, (m, n)

    def test_distinct_parts_table_counts_partitions(self):
        d = packed.distinct_parts(20)
        for n in range(21):
            counts = [0] * mu_max(n)
            for p in partitions_of(n):
                if len(set(p)) == len(p):
                    counts[len(p)] += 1
            assert d[n] == tuple(counts), n

    def test_packed_value_off_by_one_raises(self, monkeypatch):
        # the t = 1 guard: every unpacked coefficient must be chi(B^[n]_m)
        true_t_column = packed.t_column

        def off_by_one(m, order, k_bits):
            values = list(true_t_column(m, order, k_bits))
            values[5] += 1
            return tuple(values)

        monkeypatch.setattr(packed, "t_column", off_by_one)
        for closed_form in (closed_form_B, closed_form_X):
            with pytest.raises(ArithmeticError, match=r"q\^5 at m=3 .* chi\(B\^\[5\]_3\)"):
                closed_form(3, 8)

    def test_matrix_pipeline_t_one_guard(self, monkeypatch):
        # K = 4 is too narrow at order 14 (digit_bits(14) = 14): the unpacked
        # digits are wrong, and the t = 1 guard names the first bad (m, n)
        monkeypatch.setattr(packed, "digit_bits", lambda order: 4)
        for compute in (compute_X, compute_B):
            with pytest.raises(ArithmeticError,
                               match=r"q\^(\d+) at m=(\d+) .* chi\(B\^\[\1\]_\2\)"):
                compute(14)

    def test_shared_decoding_fault_is_caught(self, monkeypatch):
        # unpack times t keeps every value at t = 1, so the guard passes and
        # both routes agree; the LaurentPoly-only checks must still fail
        true_unpack = packed.unpack
        monkeypatch.setattr(packed, "unpack", lambda v, k_bits: true_unpack(v, k_bits).shift(1))
        report = verify_all(14)
        failed = {c.name for c in report.checks if not c.passed}
        assert {"R == G.X (Grassmannian fibers)", "sum_m X[m][n] == E(H^[n])"} <= failed
        assert "closed forms == matrix pipeline" not in failed


class TestCauchy:
    """Cauchy's q-binomial theorem, prod_{i<m} (1 + t^i y) =
    sum_r t^C(r,2) gauss(m, r) y^r, holds in LaurentPoly arithmetic, and
    the suite's integer check (_cauchy_cells) agrees with it."""

    @staticmethod
    def corrupt_4_2(monkeypatch, extra):
        true_gauss = strata.gauss_binomial
        monkeypatch.setattr(strata, "gauss_binomial", lambda m, a: true_gauss(m, a) + (
            P(extra) if (m, a) == (4, 2) else ZERO))

    def test_m1_both_sides(self):
        assert cauchy_coefficients(1) == [ONE, ONE]
        cells = list(strata._cauchy_cells(1))
        assert [where for where, _, _ in cells] == [[1, 1]]
        assert not mismatches(cells)

    def test_examples(self):
        assert cauchy_coefficients(3) == [ONE, P("1+t+t^2"), P("t+t^2+t^3"), P("t^3")]
        cells = list(strata._cauchy_cells(3))
        assert [where for where, _, _ in cells] == [
            [1, 1], [2, 2], [2, 1], [3, 3], [3, 2], [3, 1]]
        assert not mismatches(cells)

    def test_sweep(self, monkeypatch):
        # every cell at size 12, both sides unpacked at the check's own K,
        # against the oracle's expansion
        widths = []
        true_width = strata._width

        def recorded(*bounds):
            widths.append(true_width(*bounds))
            return widths[-1]

        monkeypatch.setattr(strata, "_width", recorded)
        cells = list(strata._cauchy_cells(12))
        k_bits, = widths
        assert len(cells) == 12 * 13 // 2
        for (m, r), got, want in cells:
            oracle = cauchy_coefficients(m)[r]
            assert oracle == gauss_binomial(m, r).shift(comb(r, 2)), (m, r)
            assert packed.unpack(got, k_bits) == packed.unpack(want, k_bits) == oracle, (m, r)

    def test_false_identity_is_rejected(self, monkeypatch):
        # one Gaussian binomial off by t^5 - t, which is 0 at t = 1
        self.corrupt_4_2(monkeypatch, "t^5-t")
        assert mismatches(strata._cauchy_cells(12)) == [[4, 2]]
        assert mismatches(strata._cauchy_cells(3)) == []

    def test_negative_exponent_fault_is_rejected(self, monkeypatch):
        # t^-1 - 1 shifts both sides of every cell by t (_low)
        self.corrupt_4_2(monkeypatch, "t^-1-1")
        assert mismatches(strata._cauchy_cells(12)) == [[4, 2]]
        assert mismatches(strata._cauchy_cells(8)) == [[4, 2]]


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

    def test_columns_past_the_top_vanish(self):
        for order in range(8):
            for m in range(mu_max(order) + 1, mu_max(order) + 3):
                assert chi_series(m, order) == QSeries.zero(order), (order, m)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            chi_series(1, -1)


class TestVerifyAll:
    def test_small_order_passes(self):
        report = verify_all(6)
        assert report.passed
        assert {c.name for c in report.checks} >= {
            "Cauchy q-binomial theorem",
            "A * Ainv == I",
            "closed forms == matrix pipeline",
        }

    def test_order_zero_trivially_passes(self):
        report = verify_all(0)
        assert report.passed
        assert all(c.cells_compared > 0 for c in report.checks)

    def test_corrupted_entry_reports_coordinates(self):
        order = 6
        r = build_R(mu_max(order), order)
        x = compute_X(order)
        x.rows[2].coeffs[3] = x.rows[2].coeffs[3] + ONE  # corrupt X[2][3]
        bad = mismatches(grassmannian_cells(r, x))
        assert bad
        assert all(n == 3 for _, n in bad)

    def test_corrupted_B_reports_convolution_coordinates(self):
        order = 6
        x = compute_X(order)
        b = compute_B(order, x_matrix=x)
        assert not mismatches(convolution_cells(x, b, order))
        b.rows[3].coeffs[4] = b.rows[3].coeffs[4] + ONE  # corrupt B[3][4]
        bad = mismatches(convolution_cells(x, b, order))
        assert [3, 4] in bad
        assert all(m == 3 and n >= 4 for m, n in bad)

    def test_corrupted_X_fails_convolution(self, monkeypatch):
        # B is inverted from its own rows, so a fault in X shows up here
        true_compute_X = strata.compute_X

        def corrupted(order):
            x = true_compute_X(order)
            x.rows[2].coeffs[3] = x.rows[2].coeffs[3] + ONE  # corrupt X[2][3]
            return x

        monkeypatch.setattr(strata, "compute_X", corrupted)
        report = verify_all(6)
        check = next(c for c in report.checks if c.name == "X == B.A (origin/punctured split)")
        assert check.failures == [[2, 3]]

    def test_corrupted_R_reports_grassmannian_coordinates(self):
        order = 6
        r = build_R(mu_max(order), order)
        x = compute_X(order)
        assert not mismatches(grassmannian_cells(r, x))
        r.rows[2].coeffs[4] = r.rows[2].coeffs[4] + P("t^3-t")  # corrupt R[2][4]
        assert mismatches(grassmannian_cells(r, x)) == [[2, 4]]

    def test_corruption_by_t_minus_a_power_of_two_never_aliases(self):
        # t - 2^k is zero at t = 2^k: each check's K comes from its operands'
        # norms, which the corruption widens, so no K can hide it
        order = 6
        r = build_R(mu_max(order), order)
        b = compute_B(order)
        for k in range(2, 65):
            x = compute_X(order)
            x.rows[2].coeffs[3] = x.rows[2].coeffs[3] + LaurentPoly({1: 1, 0: -(1 << k)})
            bad = mismatches(grassmannian_cells(r, x))
            assert bad and all(n == 3 for _, n in bad), k
            assert mismatches(convolution_cells(x, b, order)) == [[2, 3]], k

    def test_corruption_with_negative_exponents_is_reported(self):
        # the integer checks shift every operand to exponents >= 0 first
        order = 6
        r = build_R(mu_max(order), order)
        x = compute_X(order)
        b = compute_B(order)
        x.rows[2].coeffs[3] = x.rows[2].coeffs[3] + P("t^-2-1")  # corrupt X[2][3]
        bad = mismatches(grassmannian_cells(r, x))
        assert bad and all(n == 3 for _, n in bad)
        assert mismatches(convolution_cells(x, b, order)) == [[2, 3]]
        x = compute_X(order)
        r.rows[2].coeffs[4] = r.rows[2].coeffs[4] + P("t^-1-1")  # corrupt R[2][4]
        b.rows[3].coeffs[4] = b.rows[3].coeffs[4] + P("t^-3-t")  # corrupt B[3][4]
        assert mismatches(grassmannian_cells(r, x)) == [[2, 4]]
        bad = mismatches(convolution_cells(x, b, order))
        assert [3, 4] in bad and all(m == 3 and n >= 4 for m, n in bad)

    def test_corrupted_gauss_binomial_fails_its_checks(self, monkeypatch):
        # + t^5 - t keeps [4, 2] at t = 1; the routes never read gauss_binomial
        true_gauss = strata.gauss_binomial

        def corrupted(m, a):
            g = true_gauss(m, a)
            return g + P("t^5-t") if (m, a) == (4, 2) else g

        monkeypatch.setattr(strata, "gauss_binomial", corrupted)
        report = verify_all(6)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"Cauchy q-binomial theorem", "R == G.X (Grassmannian fibers)"}

    def test_evaluation_fault_is_caught(self, monkeypatch):
        # the three product checks share one evaluation at t = 2^K: with its
        # top term dropped, each of them must fail
        true_at = strata._at

        def drop_top(p, k_bits, shift=0):
            if p:
                p = p - LaurentPoly.t_power(p.degree(), p.coeff(p.degree()))
            return true_at(p, k_bits, shift)

        monkeypatch.setattr(strata, "_at", drop_top)
        report = verify_all(14)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"Cauchy q-binomial theorem", "R == G.X (Grassmannian fibers)",
                          "X == B.A (origin/punctured split)"}

    def test_corrupted_B_fails_census_column_sums(self, monkeypatch):
        true_compute_B = strata.compute_B

        def corrupted(order, x_matrix=None):
            b = true_compute_B(order, x_matrix=x_matrix)
            b.rows[3].coeffs[4] = b.rows[3].coeffs[4] + ONE  # corrupt B[3][4]
            return b

        monkeypatch.setattr(strata, "compute_B", corrupted)
        report = verify_all(6)
        check = next(c for c in report.checks
                     if c.name == "sum_m B[m][n], sum_m X[m][n] == partition census")
        assert check.failures == [[4, "B"]]
        assert check.cells_compared == 2 * 7

    def test_census_column_sums_hold_at_order_30(self):
        x = compute_X(30)
        b = compute_B(30, x_matrix=x)
        assert not mismatches(census_column_cells(x, b, 30))

    def test_corrupted_dual_series_fails_A_Ainv(self, monkeypatch):
        true_dual = qseries.series_Y0_dual

        def corrupted(order):
            s = true_dual(order)
            s.coeffs[2] = s.coeffs[2] + ONE
            return s

        monkeypatch.setattr(qseries, "series_Y0_dual", corrupted)
        report = verify_all(4)
        failed = {c.name: c.failures for c in report.checks if not c.passed}
        assert list(failed) == ["A * Ainv == I"]
        assert failed["A * Ainv == I"][0] == [2]

    def test_zero_cell_check_fails(self):
        vacuous = CheckResult.compare("nothing compared", [])
        assert vacuous.cells_compared == 0 and not vacuous.failures
        assert not vacuous.passed
        report = VerificationReport(3, [CheckResult.compare("one cell", [([0], ONE, ONE)]),
                                        vacuous])
        assert not report.passed
        assert report.to_json()["checks"][1] == {
            "name": "nothing compared", "passed": False, "cells_compared": 0, "failures": []}
        assert "[FAIL] nothing compared (0 cells)" in str(report)
        assert "all identities hold" not in str(report)

    def test_fixed_point_check_covers_every_n(self):
        report = verify_all(14)
        check = next(c for c in report.checks
                     if c.name == "fixed-point sums == product series")
        assert check.passed
        assert check.cells_compared == 50  # r <= 4, C(r, 2) <= n <= 14

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 6, 8, 9, 14, 20])
    def test_fixed_point_check_compares_no_structural_zero_row(self, order, monkeypatch):
        # a cell with n < C(r, 2) is zero on both sides by construction; the
        # check reads only r <= min(mu_max(order), 4) and n >= C(r, 2), and
        # every row it reads has a nonzero cell at n = C(r, 2) <= order
        seen = []
        true_fixed = strata.e_poly_Hnnr_fixed

        def recorded(n, r):
            seen.append((n, r))
            return true_fixed(n, r)

        monkeypatch.setattr(strata, "e_poly_Hnnr_fixed", recorded)
        report = verify_all(order)
        check = next(c for c in report.checks
                     if c.name == "fixed-point sums == product series")
        rows = {r for _, r in seen if r}
        assert rows == set(range(1, min(mu_max(order), 4) + 1))
        assert all(comb(r, 2) <= n for n, r in seen)
        assert check.passed
        assert check.cells_compared == sum(order + 1 - comb(r, 2) for r in rows)
        assert order or check.cells_compared == 1  # at order 0 only r = 1, n = 0

    @pytest.mark.parametrize("order, identity_order", [(0, 8), (8, 8), (10, 10), (14, 12), (48, 12)])
    def test_identity_checks_run_at_the_clamped_order(self, order, identity_order):
        cells = {c.name: c.cells_compared for c in verify_all(order).checks}
        assert cells["Cauchy q-binomial theorem"] == identity_order * (identity_order + 1) // 2
        assert cells["A * Ainv == I"] == identity_order + 1

    def test_report_serializes(self):
        report = verify_all(4)
        obj = report.to_json()
        assert obj["passed"] is True
        assert all("name" in c and "failures" in c for c in obj["checks"])
        assert all(c["cells_compared"] > 0 for c in obj["checks"])


class TestErrorPaths:
    def test_input_validation(self):
        with pytest.raises(ValueError):
            closed_form_B(0, 5)
        with pytest.raises(ValueError):
            chi_series(0, 5)
        with pytest.raises(ValueError):
            build_R(0, 5)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            closed_form_B(1, -1)

    @pytest.mark.parametrize("build", [
        compute_X, compute_B, lambda order: build_R(2, order), verify_all,
    ], ids=["compute_X", "compute_B", "build_R", "verify_all"])
    def test_negative_order_names_the_order(self, build):
        # not mu_max's "n must be >= 0", which names no parameter of these
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            build(-1)
