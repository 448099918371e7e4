"""Truncated q-series arithmetic and the named generating functions."""

import json
import os
import tempfile
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbstrata.laurent import ONE, ZERO, LaurentPoly
from hilbstrata import qseries, strata
from hilbstrata.cache import SeriesCache, decode_row, encode_row
from hilbstrata.diagrams import mu_max
from hilbstrata.tables import build_table
from hilbstrata.qseries import (
    NotInvertibleError,
    QSeries,
    euler_identity_check,
    product_factors,
    series_H,
    series_Hnnr,
    series_poincare_H,
    series_Y0,
    series_Y0_dual,
)

P = LaurentPoly.from_string


def partition_count(n):
    """Independent oracle: p(n) by the bounded-part dynamic program."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


# random series whose constant coefficient is a unit monomial
unit_series = st.tuples(
    st.integers(-3, 3),
    st.booleans(),
    st.lists(
        st.dictionaries(st.integers(-5, 5), st.integers(-6, 6), max_size=4).map(
            LaurentPoly
        ),
        min_size=1,
        max_size=8,
    ),
).map(
    lambda tpl: QSeries(
        [LaurentPoly.t_power(tpl[0], -1 if tpl[1] else 1)] + tpl[2]
    )
)


class TestSeriesArithmetic:
    def test_mul_identity(self):
        f = series_H(6)
        assert f * QSeries.one(6) == f
        # equality reads the mutable coeffs list, so a series has no hash
        with pytest.raises(TypeError):
            hash(QSeries.one(2))

    def test_mul_small(self):
        one_plus = QSeries([ONE, ONE, ZERO])
        one_minus = QSeries([ONE, -ONE, ZERO])
        assert one_plus * one_minus == QSeries([ONE, ZERO, -ONE])

    def test_mul_truncates_to_min_order(self):
        f = series_H(8)
        g = series_H(5)
        assert (f * g).order == 5

    def test_add_rejects_mismatched_orders(self):
        with pytest.raises(ValueError, match=r"series orders differ \(5 \+ 3\)"):
            series_H(5) + series_H(3)
        with pytest.raises(ValueError):
            series_H(3) + series_H(5)
        assert (series_H(5) + QSeries(series_H(8).coeffs[:6])).order == 5

    def test_inv_geometric(self):
        f = QSeries.one(3).mul_one_minus(2, 1)  # 1 - t^2 q
        assert f.inv() == QSeries([ONE, P("t^2"), P("t^4"), P("t^6")])

    def test_inv_one(self):
        assert QSeries.one(5).inv() == QSeries.one(5)

    def test_inv_rejects_non_unit(self):
        with pytest.raises(NotInvertibleError):
            QSeries([P("1+t"), ZERO]).inv()
        with pytest.raises(NotInvertibleError):
            QSeries([P("2"), ZERO]).inv()
        with pytest.raises(NotInvertibleError):
            QSeries.zero(3).inv()

    @given(unit_series)
    def test_inv_is_right_inverse(self, f):
        assert f * f.inv() == QSeries.one(f.order)

    def test_negative_unit_constant(self):
        f = QSeries([P("-t"), ONE, ONE])
        assert f * f.inv() == QSeries.one(2)

    @given(st.lists(
        st.dictionaries(
            st.integers(-9, 9),
            st.one_of(st.just(0), st.integers(-6, 6), st.integers(-2**80, 2**80)),
            max_size=6,
        ).map(LaurentPoly),
        min_size=1,
        max_size=6,
    ))
    def test_cache_row_round_trip(self, coeffs):
        # Negative exponents, gaps (zero coefficients inside a row), the zero
        # polynomial and coefficients above 2^64, through JSON and through
        # a cache entry read back with its screening.
        rows = json.loads(json.dumps([encode_row(c) for c in coeffs]))
        assert [decode_row(row) for row in rows] == coeffs
        series, order = QSeries(coeffs), len(coeffs) - 1
        with tempfile.TemporaryDirectory() as directory:
            cache = SeriesCache(directory)

            def builder(k):
                return [QSeries(coeffs[:k + 1])] * 2

            def entry():
                stat = os.stat(cache._path("s", {}, order))
                return stat.st_ino, stat.st_mtime_ns, stat.st_size

            assert cache.get("s", {}, order, builder) == [series, series]
            written = entry()
            assert cache.get("s", {}, order, builder) == [series, series]
            assert entry() == written  # a hit: not rewritten


# random series with Laurent coefficients of either sign of t-exponent
laurent_series = st.lists(
    st.dictionaries(st.integers(-5, 5), st.integers(-6, 6), max_size=4).map(LaurentPoly),
    min_size=1,
    max_size=8,
).map(QSeries)


class TestFactorSteps:
    """The fused factor steps against generic series arithmetic."""

    @staticmethod
    def factor(t_exp, q_exp, order):
        # 1 - t^{t_exp} q^{q_exp} as a plain series of the given order
        coeffs = [ONE] + [ZERO] * order
        if q_exp <= order:
            coeffs[q_exp] = -LaurentPoly.t_power(t_exp)
        return QSeries(coeffs)

    @given(laurent_series, st.integers(-4, 4), st.integers(1, 4))
    def test_mul_one_minus_is_cauchy_product(self, s, t_exp, q_exp):
        assert s.mul_one_minus(t_exp, q_exp) == s * self.factor(t_exp, q_exp, s.order)

    @given(laurent_series, st.integers(-4, 4), st.integers(1, 4))
    def test_div_one_minus_is_product_with_inverse(self, s, t_exp, q_exp):
        inverse = self.factor(t_exp, q_exp, s.order).inv()
        assert s.div_one_minus(t_exp, q_exp) == s * inverse

    @given(st.integers(0, 7), st.lists(
        st.tuples(st.integers(-3, 3), st.integers(1, 9), st.sampled_from([1, -1])),
        max_size=5,
    ))
    def test_product_factors_is_cauchy_product_of_single_factors(self, order, factors):
        expected = QSeries.one(order)
        for t_exp, q_exp, power in factors:
            single = self.factor(t_exp, q_exp, order)
            expected = expected * (single if power == 1 else single.inv())
        assert product_factors(factors, order) == expected


class TestProductFactors:
    def test_empty(self):
        assert product_factors([], 4) == QSeries.one(4)

    def test_single_inverse_factor(self):
        assert product_factors([(2, 1, -1)], 2) == QSeries([ONE, P("t^2"), P("t^4")])

    def test_factors_beyond_order_are_skipped(self):
        assert product_factors([(1, 7, -1), (1, 7, 1)], 4) == QSeries.one(4)

    def test_hilbert_scheme_factors(self):
        s = product_factors([(d + 1, d, -1) for d in range(1, 4)], 3)
        assert [str(c) for c in s.coeffs] == ["1", "t^2", "t^4+t^3", "t^6+t^5+t^4"]

    def test_q3_coefficient_equals_fixed_point_sum(self):
        from hilbstrata.diagrams import e_poly_Hnnr_fixed

        s = product_factors([(d + 1, d, -1) for d in range(1, 4)], 3)
        assert s.coeff(3) == e_poly_Hnnr_fixed(3, 0)


class TestNamedSeries:
    def test_series_H_low_coefficients(self):
        s = series_H(10)
        assert s.coeff(0) == ONE
        assert s.coeff(1) == P("t^2")

    def test_series_H_counts_partitions(self):
        s = series_H(10)
        for n in range(11):
            assert s.coeff(n).eval_at_one() == partition_count(n)

    def test_series_H_nonnegative_cells(self):
        s = series_H(12)
        for c in s.coeffs:
            assert all(e >= 0 for e, _ in c.items())
            assert all(v > 0 for _, v in c.items())

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_series_Hnnr_vanishing_threshold(self, r):
        s = series_Hnnr(r, 12)
        for n in range(13):
            assert (not s.coeff(n)) == (n < comb(r, 2)), (r, n)

    def test_series_Hnnr_entirely_below_threshold(self):
        # C(5,2) = 10 exceeds the order: the whole window is zero
        s = series_Hnnr(5, 4)
        assert s.order == 4
        assert not any(s.coeffs)

    def test_series_Hnnr_below_threshold_runs_no_factor_step(self, monkeypatch):
        # R_r vanishes to the order once C(r, 2) > order: no r factor steps for it
        qseries._hnnr_products.cache_clear()  # so that order 3 is built here
        calls = []
        true_div = QSeries.div_one_minus

        def counted(self, t_exp, q_exp):
            calls.append((t_exp, q_exp))
            return true_div(self, t_exp, q_exp)

        monkeypatch.setattr(QSeries, "div_one_minus", counted)
        assert series_Hnnr(2000, 3) == QSeries.zero(3)
        assert series_Hnnr(4, 5) == QSeries.zero(5)
        assert calls == []
        assert series_Hnnr(3, 3).coeff(3) == ONE  # C(3, 2) = 3: still built
        assert calls
        with pytest.raises(ValueError, match="r must be >= 1"):
            series_Hnnr(0, 3)

    def test_hnnr_table_runs_one_running_product(self, monkeypatch):
        # series_H(20) once (20 steps), then one step per r: 20 + 6, where a
        # product per column ran 6 * 20 + (1 + ... + 6) = 141
        qseries._hnnr_products.cache_clear()
        calls = []
        for name in ("mul_one_minus", "div_one_minus"):
            true_step = getattr(QSeries, name)

            def counted(self, t_exp, q_exp, true_step=true_step):
                calls.append((t_exp, q_exp))
                return true_step(self, t_exp, q_exp)

            monkeypatch.setattr(QSeries, name, counted)
        build_table("hnnr", 20, max_r=6)
        assert len(calls) == 26
        strata.build_R(6, 20)
        assert len(calls) == 26

    def test_shared_running_product_is_never_handed_out(self):
        # callers may corrupt a row in place; the next caller must not see it
        want_h, want_r1, want_r3 = series_H(9), series_Hnnr(1, 9), series_Hnnr(3, 9)
        for row in (series_H(9), series_Hnnr(1, 9), series_Hnnr(3, 9),
                    *strata.build_R(3, 9).rows.values()):
            row.coeffs[5] = row.coeffs[5] + ONE
        assert (series_H(9), series_Hnnr(1, 9), series_Hnnr(3, 9)) == (want_h, want_r1, want_r3)
        assert series_H(9) == product_factors(((d + 1, d, -1) for d in range(1, 10)), 9)

    def test_negative_order_rejected(self):
        for build in (lambda: series_H(-1), lambda: series_Hnnr(2, -1),
                      lambda: QSeries.one(-2), lambda: QSeries.zero(-1)):
            with pytest.raises(ValueError, match="order must be >= 0"):
                build()

    def test_series_Hnnr_rows_agree_with_each_r(self):
        # build_R's rows against q^C(r,2) * series_H / (tq)_r by Cauchy
        # product, series inversion and slicing
        rows = strata.build_R(5, 12).rows
        assert list(rows) == [1, 2, 3, 4, 5]
        for r, row in rows.items():
            unshifted = series_H(12) * product_factors(((d, d, 1) for d in range(1, r + 1)), 12).inv()
            want = QSeries([ZERO] * comb(r, 2) + unshifted.coeffs[: 13 - comb(r, 2)])
            assert row == want, r
            assert series_Hnnr(r, 12) == want, r
        with pytest.raises(ValueError, match="max_r must be >= 1"):
            strata.build_R(0, 12)

    def test_series_Hnnr_examples(self):
        assert series_Hnnr(2, 4).coeff(0) == ZERO
        assert series_Hnnr(2, 4).coeff(1) == ONE
        assert series_Hnnr(3, 4).coeff(3) == ONE
        assert series_Hnnr(1, 4).coeff(1) == P("t^2+t")

    def test_series_Hnnr_nonnegative_cells(self):
        for r in (1, 2, 3):
            for c in series_Hnnr(r, 10).coeffs:
                assert all(e >= 0 for e, _ in c.items())
                assert all(v > 0 for _, v in c.items())

    def test_series_Y0_examples(self):
        s = series_Y0(8)
        assert s.coeff(1) == P("t^2-1")
        assert s.coeff(4) == P("t^8+t^7+t^6-t^5-3 t^4+t^2")
        assert s.coeff(8) == P(
            "t^16+t^15+t^14+t^13+t^12-t^11-5 t^10-6 t^9+t^8+7 t^7+t^6-2 t^5"
        )

    def test_series_Y0_dual_is_poincare_dual(self):
        # coefficient n of the dual series is t^{2n} E(Y0^[n]; 1/t)
        y0 = series_Y0(8)
        dual = series_Y0_dual(8)
        assert dual.coeff(0) == ONE
        assert dual.coeff(1) == P("1-t^2")
        for n in range(9):
            assert dual.coeff(n) == y0.coeff(n).invert_variable().shift(2 * n)

    def test_series_Y0_times_dual_is_one(self):
        for order in (1, 4, 10):
            assert series_Y0(order) * series_Y0_dual(order) == QSeries.one(order)

    def test_series_Y0_inverse_via_inv(self):
        assert series_Y0(8).inv() == series_Y0_dual(8)

    def test_poincare_series(self):
        s = series_poincare_H(10)
        assert s.coeff(1) == ONE
        assert s.coeff(2) == P("1+t")

    def test_factorization_through_punctured_plane(self):
        order = 12
        assert series_poincare_H(order) * series_Y0(order) == series_H(order)


class TestEulerIdentity:
    def test_z_equal_one_degenerates(self):
        assert euler_identity_check(0, 8)

    def test_reads_the_running_product_of_build_R(self, monkeypatch):
        # once build_R has run at the order, the left side's rows are all
        # built: the check runs only the right side's order mul_one_minus steps
        strata.build_R(mu_max(12), 12)
        calls = []
        for name in ("mul_one_minus", "div_one_minus"):
            true_step = getattr(QSeries, name)

            def counted(self, t_exp, q_exp, name=name, true_step=true_step):
                calls.append(name)
                return true_step(self, t_exp, q_exp)

            monkeypatch.setattr(QSeries, name, counted)
        for z_exp in range(-5, 1):
            calls.clear()
            assert euler_identity_check(z_exp, 12), z_exp
            assert calls == ["mul_one_minus"] * 12, z_exp

    @pytest.mark.parametrize("z_exp", range(-5, 1))
    def test_sweep(self, z_exp):
        assert euler_identity_check(z_exp, 12)
