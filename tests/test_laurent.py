"""Laurent polynomial arithmetic and Gaussian binomials."""

import sys
from fractions import Fraction
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbstrata import laurent
from hilbstrata.laurent import (
    ONE,
    ZERO,
    InexactDivisionError,
    LaurentPoly,
    gauss_binomial,
)

import parse_oracle
import render_oracle

P = LaurentPoly.from_string


def box_partition_poly(a, width):
    """Independent oracle: sum of t^|lambda| over partitions in an a x width box.

    Gaussian binomial [a+width over a]_t counts exactly these diagrams.
    """
    counts = {}
    # parts (p_1 >= ... >= p_a) with 0 <= p_i <= width, enumerated directly
    def rec(remaining_rows, cap, size):
        if remaining_rows == 0:
            counts[size] = counts.get(size, 0) + 1
            return
        for p in range(cap + 1):
            rec(remaining_rows - 1, p, size + p)

    rec(a, width, 0)
    return LaurentPoly(counts)


X = Fraction(3, 2)


def at(f):
    """f evaluated at t = X, exactly."""
    return sum((X ** e * c for e, c in f.items()), Fraction(0))


laurent_polys = st.dictionaries(
    st.integers(-8, 8), st.integers(-9, 9), max_size=8
).map(LaurentPoly)

# wider than laurent_polys: braced LaTeX exponents of both signs, unit and
# non-unit coefficients of both signs, and coefficients past 2^64
wide_polys = st.dictionaries(
    st.integers(-30, 30),
    st.one_of(st.sampled_from([1, -1, 2, -2]), st.integers(-99, 99),
              st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64))),
    max_size=12,
).map(LaurentPoly)


class TestArithmetic:
    def test_add_cancellation(self):
        assert P("t+1") + P("-1") == P("t")

    def test_add_identity(self):
        p = P("t^2-1")
        assert p + ZERO == p

    def test_add_term_merge(self):
        assert P("t^2-1") + P("t^4+t^3-t^2-t") == P("t^4+t^3-t-1")

    def test_mul_difference_of_squares(self):
        assert P("1+t") * P("1-t") == P("1-t^2")

    def test_mul_inverse_monomial(self):
        assert P("t^-1") * P("t") == ONE

    def test_mul_affine_plane(self):
        # E(C) * E(C) == E(C^2) in the t = uv normalization
        assert P("t") * P("t") == P("t^2")

    def test_eval_at_one(self):
        assert P("t^4+2 t^3-t").eval_at_one() == 2
        assert ZERO.eval_at_one() == 0
        assert P("3 t^3+4 t^2+2 t+1").eval_at_one() == 10

    @given(laurent_polys, laurent_polys, laurent_polys)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(laurent_polys, laurent_polys)
    def test_mul_matches_rational_evaluation(self, p, q):
        # evaluation at a nonzero rational is a ring homomorphism
        assert at(p * q) == at(p) * at(q)
        assert at(p + q) == at(p) + at(q)

    @given(laurent_polys, laurent_polys)
    def test_exact_div_inverts_mul(self, p, q):
        if not q:
            return
        assert (p * q).exact_div(q) == p

    @given(laurent_polys, laurent_polys, st.integers(-6, 6),
           st.integers(-9, 9).filter(bool))
    def test_add_shifted_matches_unfused_form(self, p, q, k, sign):
        # the unfused form p + sign t^k q, evaluated: + and * run on add_shifted
        assert at(p.add_shifted(q, k, sign)) == at(p) + sign * X ** k * at(q)

    def test_add_shifted_cancels_to_zero(self):
        p = P("t^3+2 t")
        assert p.add_shifted(P("t^2+2"), 1, -1) == ZERO

    def test_exact_div_remainder_raises(self):
        with pytest.raises(InexactDivisionError):
            P("t+1").exact_div(P("t-1"))
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    def test_shift_and_invert_variable(self):
        p = P("t^2-1")
        assert p.shift(3) == P("t^5-t^3")
        assert p.invert_variable() == P("t^-2-1").shift(0)
        # dual E-polynomial of the punctured plane: t^2 * E(1/t)
        assert p.invert_variable().shift(2) == P("1-t^2")


class TestGaussBinomial:
    def test_a_zero(self):
        assert gauss_binomial(5, 0) == ONE

    def test_a_exceeds_m(self):
        assert gauss_binomial(3, 4) == ZERO

    def test_small_values(self):
        assert gauss_binomial(2, 1) == P("1+t")
        assert gauss_binomial(4, 2) == P("1+t+2 t^2+t^3+t^4")

    @pytest.mark.parametrize("m,a", [(m, a) for m in range(11) for a in range(m + 1)])
    def test_counts_partitions_in_a_box(self, m, a):
        assert gauss_binomial(m, a) == box_partition_poly(a, m - a)

    def test_pascal_recurrence(self):
        for m in range(1, 13):
            for a in range(1, m + 1):
                lhs = gauss_binomial(m, a)
                rhs = gauss_binomial(m - 1, a - 1) + gauss_binomial(
                    m - 1, a
                ).shift(a)
                assert lhs == rhs, (m, a)

    def test_symmetry(self):
        for m in range(13):
            for a in range(m + 1):
                assert gauss_binomial(m, a) == gauss_binomial(m, m - a)

    def test_specializes_to_binomial(self):
        for m in range(13):
            for a in range(m + 1):
                assert gauss_binomial(m, a).eval_at_one() == comb(m, a)

    def test_q_pascal_equals_product_formula(self):
        # prod_{i<a} (1 - t^{m-i}) / (1 - t^{i+1}), formed here one factor
        # per a with * and exact_div; for a > m the factor i = m is zero
        for m in range(31):
            want = ONE
            for a in range(m + 2):
                assert gauss_binomial(m, a) == want, (m, a)
                want = (want * (ONE - LaurentPoly.t_power(m - a))).exact_div(
                    ONE - LaurentPoly.t_power(a + 1))

    def test_each_q_pascal_row_is_built_once(self, monkeypatch):
        # row l extends the cached row l - 1 by l - 1 add_shifted calls:
        # 0 + 1 + ... + 11 = 66 for l <= 12, where rebuilding every row from
        # row 0 ran C(13, 3) = 286
        gauss_binomial.cache_clear()
        laurent._q_pascal_row.cache_clear()
        calls = []
        true_add_shifted = LaurentPoly.add_shifted

        def counted(self, other, k, sign=1):
            calls.append(k)
            return true_add_shifted(self, other, k, sign)

        monkeypatch.setattr(LaurentPoly, "add_shifted", counted)
        for l in range(1, 13):
            for i in range(1, l + 1):
                gauss_binomial(l, i)
        assert len(calls) == 66

    def test_q_pascal_rows_do_not_recurse_per_row(self):
        gauss_binomial.cache_clear()
        laurent._q_pascal_row.cache_clear()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            g = gauss_binomial(80, 2)
        finally:
            sys.setrecursionlimit(limit)
        assert g == box_partition_poly(2, 78)

    def test_rejects_negative_arguments(self):
        for m, a in ((-1, 0), (3, -1)):
            with pytest.raises(ValueError):
                gauss_binomial(m, a)

    def test_nonnegative_polynomial(self):
        for m, a in iproduct(range(10), range(10)):
            g = gauss_binomial(m, a)
            assert all(e >= 0 for e, _ in g.items())
            assert all(c > 0 for _, c in g.items())


class TestSerialization:
    def test_json_shape(self):
        obj = P("t^4+2 t^3-t").to_json()
        assert obj == {"terms": [[1, "-1"], [3, "2"], [4, "1"]]}

    @given(laurent_polys)
    def test_json_round_trip(self, p):
        assert LaurentPoly.from_json(p.to_json()) == p

    @given(laurent_polys)
    def test_string_round_trip(self, p):
        assert LaurentPoly.from_string(str(p)) == p
        assert LaurentPoly.from_string(p.latex()) == p

    def test_rendering(self):
        assert str(P("t^4+2 t^3-t")) == "t^4+2*t^3-t"
        assert P("t^4+2 t^3-t").latex() == "t^4+2 t^3-t"
        assert str(ZERO) == "0"
        assert str(P("-t^-2+3")) == "3-t^-2"
        assert P("t^10+t^-1").latex() == "t^{10}+t^{-1}"

    @pytest.mark.parametrize("text", ["1 2", "t2", "t 2", "2t^2 3t", "t^1 0", "2 * t",
                                      "t^{1}2", "t^1{0}", "{2}t", "}t{", "{t}^3", "2*{t}",
                                      "\u0663t^\u0662", "t^{\u0661\u0660}", "\uff12*t"])
    def test_malformed_strings_raise(self, text):
        # each once parsed silently, as 12, t+2, t+2, 2t^23+t, t^10, 2t,
        # t^12, t^10, 2t, t, t^3 and 2t; the last three, in Arabic-Indic
        # and fullwidth digits, as 3t^2, t^10 and 2t
        with pytest.raises(ValueError, match="cannot parse"):
            LaurentPoly.from_string(text)

    @pytest.mark.parametrize("text", ["", "  "])
    def test_empty_string_raises(self, text):
        with pytest.raises(ValueError, match="empty polynomial string"):
            LaurentPoly.from_string(text)

    @given(st.text(alphabet="0123456789t^*+- ", max_size=12))
    @example("2 t^3-t+7")
    @example("t^-0-0")
    def test_brace_free_strings_parse_as_the_oracle_did(self, text):
        try:
            want = parse_oracle.from_string(text)
        except ValueError:
            with pytest.raises(ValueError):
                LaurentPoly.from_string(text)
        else:
            assert LaurentPoly.from_string(text) == want

    @pytest.mark.parametrize("terms", [[[1.5, "2"]], [[1, 2.7]], [[True, "3"]], [[1, "1_0"]]])
    def test_malformed_json_terms_raise(self, terms):
        # each once read silently, as 2t, 2t, 3t and 10t
        with pytest.raises(ValueError, match="malformed JSON"):
            LaurentPoly.from_json({"terms": terms})

    def test_json_reads_int_and_string_coefficients(self):
        assert LaurentPoly.from_json({"terms": [[1, "-20"], [0, 3]]}) == P("-20*t+3")

    def test_big_coefficients_round_trip(self):
        p = LaurentPoly({0: 10**40, -5: -(2**80)})
        assert LaurentPoly.from_json(p.to_json()) == p

    @given(wide_polys)
    @example(ZERO)
    def test_rendering_matches_the_term_by_term_oracle(self, p):
        assert str(p) == render_oracle.render(p, "*", False)
        assert p.latex() == render_oracle.render(p, " ", True)
        if not p:
            assert str(p) == p.latex() == "0"

    def test_constructors_store_no_zero_coefficient(self):
        assert LaurentPoly.const(0) == ZERO
        assert hash(LaurentPoly.const(0)) == hash(0)
        assert LaurentPoly.t_power(3, 0) == ZERO
        assert LaurentPoly.one() == ONE == 1
        assert LaurentPoly.const(-4) == LaurentPoly({0: -4})
        assert LaurentPoly.t_power(-2, 5) == LaurentPoly({-2: 5})

    def test_constant_hash_matches_int(self):
        assert LaurentPoly.const(7) == 7
        assert hash(LaurentPoly.const(7)) == hash(7)
        assert hash(ZERO) == hash(0)
