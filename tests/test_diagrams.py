"""Partition and marked-diagram combinatorics."""

from itertools import combinations
from math import comb

import pytest

from hilbstrata import diagrams
from hilbstrata.diagrams import (
    MarkedDiagram,
    alpha,
    count_partitions_with_mu,
    e_poly_Bnnr_fixed,
    e_poly_Hnnr_fixed,
    elbows,
    enumerate_marked,
    mu_max,
    mu_of_partition,
    partitions_of,
    q_boxes,
    remove_boxes,
    tangent_character,
)
from hilbstrata.laurent import ZERO, LaurentPoly
from hilbstrata.qseries import series_H, series_Hnnr

P = LaurentPoly.from_string


def partition_count(n):
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


class TestPartitions:
    def test_zero(self):
        assert partitions_of(0) == [()]

    def test_three(self):
        assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_reverse_lex_order(self):
        parts = partitions_of(6)
        assert parts == sorted(parts, reverse=True)
        assert len(parts) == len(set(parts))

    @pytest.mark.parametrize("n", range(15))
    def test_count_against_dp(self, n):
        assert len(partitions_of(n)) == partition_count(n)

    def test_count_14(self):
        assert len(partitions_of(14)) == 135


class TestElbowsAndMu:
    def test_single_row(self):
        assert elbows((3,)) == [(3, 1)]

    def test_hook(self):
        assert elbows((2, 1)) == [(2, 1), (1, 2)]

    def test_three_runs(self):
        assert elbows((3, 3, 2, 1)) == [(3, 2), (2, 3), (1, 4)]

    def test_mu_examples(self):
        assert mu_of_partition((3,)) == 2
        assert mu_of_partition((2, 1)) == 3
        assert mu_of_partition(()) == 1

    @pytest.mark.parametrize("k", range(2, 8))
    def test_mu_of_staircase(self, k):
        staircase = tuple(range(k - 1, 0, -1))
        assert mu_of_partition(staircase) == k
        assert sum(staircase) == comb(k, 2)

    def test_elbow_removal_closure(self):
        # removing any subset of elbows must leave a valid partition
        for n in range(13):
            for parts in partitions_of(n):
                el = elbows(parts)
                for r in range(len(el) + 1):
                    for subset in combinations(el, r):
                        left = remove_boxes(parts, set(subset))
                        assert sum(left) == n - r

    def test_mu_max(self):
        assert mu_max(0) == 1
        assert mu_max(1) == 2
        assert mu_max(14) == 5
        for n in range(40):
            k = mu_max(n)
            assert comb(k, 2) <= n < comb(k + 1, 2)

    def test_mu_max_equals_census_max(self):
        for n in range(13):
            assert mu_max(n) == max(mu_of_partition(p) for p in partitions_of(n))


class TestMarkedDiagrams:
    def test_single_point_of_H13(self):
        found = enumerate_marked(1, 2)
        assert len(found) == 1
        assert found[0].parts == (2, 1)
        assert found[0].marks == frozenset({(2, 1), (1, 2)})

    def test_single_box(self):
        found = enumerate_marked(0, 1)
        assert len(found) == 1
        assert found[0].parts == (1,)
        assert found[0].marks == frozenset({(1, 1)})

    def test_empty_below_threshold(self):
        assert enumerate_marked(2, 3) == []

    def test_below_threshold_enumerates_nothing(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"partitions_of({n}) called below the threshold")

        monkeypatch.setattr(diagrams, "partitions_of", refuse)
        assert enumerate_marked(2, 3) == []
        assert e_poly_Hnnr_fixed(8, 30) == ZERO

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_emptiness_iff_threshold(self, r):
        for n in range(10):
            found = enumerate_marked(n, r)
            assert (len(found) == 0) == (n < comb(r, 2))
            if n == comb(r, 2):
                assert len(found) == 1

    def test_marks_must_be_elbows(self):
        with pytest.raises(ValueError):
            MarkedDiagram((2, 1), frozenset({(1, 1)}))


class TestQBoxes:
    def test_figure_pair(self):
        md = MarkedDiagram((4, 2, 1, 1), frozenset({(1, 4), (2, 2)}))
        assert (1, 2) in q_boxes(md)

    def test_single_mark(self):
        md = MarkedDiagram((3, 1), frozenset({(3, 1)}))
        assert q_boxes(md) == set()

    def test_hook_pair(self):
        md = MarkedDiagram((2, 1), frozenset({(2, 1), (1, 2)}))
        assert q_boxes(md) == {(1, 1)}

    def test_disjoint_from_marks_inside_inner(self):
        for n in range(9):
            for r in range(5):
                if n + r > 12:
                    continue
                for md in enumerate_marked(n, r):
                    q = q_boxes(md)
                    assert not (q & md.marks)
                    inner = md.inner_partition()
                    for a, b in q:
                        assert b <= len(inner) and a <= inner[b - 1]
                    assert len(q) == comb(r, 2)


class TestTangentCharacter:
    def test_zero_dimensional_point(self):
        md = MarkedDiagram((2, 1), frozenset({(2, 1), (1, 2)}))
        assert tangent_character(md) == ()

    def test_single_box_weights(self):
        md = MarkedDiagram((1,))
        assert tangent_character(md) == ((0, 1), (1, 0))

    def test_row_of_two(self):
        md = MarkedDiagram((2,))
        assert tangent_character(md) == ((-1, 1), (0, 1), (1, 0), (2, 0))

    def test_weight_count_is_dimension(self):
        for n in range(8):
            for r in range(4):
                for md in enumerate_marked(n, r):
                    assert len(tangent_character(md)) == 2 * n - r * (r - 1)


class TestAlpha:
    def test_empty(self):
        assert alpha(()) == 0

    def test_all_positive(self):
        assert alpha(((0, 1), (1, 0))) == 2

    def test_column_of_two(self):
        md = MarkedDiagram((1, 1))
        w = tangent_character(md)
        assert sorted(w) == [(0, 1), (0, 2), (1, -1), (1, 0)]
        assert alpha(w) == 3

    def test_alpha_bounded_by_dimension(self):
        for n in range(9):
            for r in range(5):
                dim = 2 * n - r * (r - 1)
                for md in enumerate_marked(n, r):
                    a = alpha(tangent_character(md))
                    assert 0 <= a <= dim

    def test_alpha_is_cell_dimension(self):
        # the n - C(r,2) first weights (-arm_J, leg_I + 1) are all positive; a
        # second weight is positive exactly at a column top of J.  J has
        # lambda_1 column tops; the r marks are among them and are skipped,
        # and no crossing box is one, since each lies under a mark.
        for n in range(17):
            for r in range(5):
                for md in enumerate_marked(n, r):
                    lambda_1 = md.parts[0] if md.parts else 0
                    assert alpha(tangent_character(md)) == n - comb(r, 2) - r + lambda_1, (md, r)


class TestFixedPointEPolys:
    def test_examples(self):
        assert e_poly_Hnnr_fixed(1, 2) == LaurentPoly.one()
        assert e_poly_Hnnr_fixed(2, 0) == P("t^4+t^3")
        assert e_poly_Hnnr_fixed(1, 1) == P("t^2+t")
        assert e_poly_Bnnr_fixed(2, 0) == P("1+t")
        assert e_poly_Bnnr_fixed(1, 2) == LaurentPoly.one()
        assert e_poly_Bnnr_fixed(0, 0) == LaurentPoly.one()

    def test_matches_series_H(self):
        s = series_H(10)
        for n in range(11):
            assert e_poly_Hnnr_fixed(n, 0) == s.coeff(n), n

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_series_Hnnr(self, r):
        s = series_Hnnr(r, 7)
        for n in range(8):
            assert e_poly_Hnnr_fixed(n, r) == s.coeff(n), (n, r)

    def test_B_poly_is_polynomial(self):
        for n in range(8):
            for r in range(4):
                p = e_poly_Bnnr_fixed(n, r)
                assert all(e >= 0 for e, _ in p.items())

    def test_rejects_negative_arguments(self):
        for n, r in ((-1, 0), (0, -1), (-2, 3)):
            with pytest.raises(ValueError):
                e_poly_Hnnr_fixed(n, r)

    def test_census_equals_tangent_weight_sum(self):
        # the per-fixed-point reference: one t^alpha per marked diagram
        for n in range(17):
            for r in range(5):
                acc = {}
                for md in enumerate_marked(n, r):
                    a = alpha(tangent_character(md))
                    acc[a] = acc.get(a, 0) + 1
                assert e_poly_Hnnr_fixed(n, r) == LaurentPoly(acc), (n, r)

    def test_census_equals_series_rows(self):
        for r in range(1, 7):
            row = series_Hnnr(r, 60)
            for n in range(61):
                assert e_poly_Hnnr_fixed(n, r) == row.coeff(n), (n, r)

    def test_census_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the census enumerated diagrams or partitions")

        for name in ("enumerate_marked", "tangent_character", "partitions_of",
                     "_gen_partitions"):
            monkeypatch.setattr(diagrams, name, refuse)
        diagrams._census.cache_clear()
        assert e_poly_Hnnr_fixed(5, 2) == series_Hnnr(2, 5).coeff(5)
        assert count_partitions_with_mu(9, 3) == 17


class TestMuCensus:
    def test_examples(self):
        assert count_partitions_with_mu(3, 3) == 1
        assert count_partitions_with_mu(5, 3) == 5

    @pytest.mark.parametrize("n", range(1, 12))
    def test_mu_one_impossible(self, n):
        assert count_partitions_with_mu(n, 1) == 0

    def test_census_totals(self):
        for n in range(12):
            total = sum(
                count_partitions_with_mu(n, m) for m in range(1, mu_max(n) + 1)
            )
            assert total == partition_count(n)

    def test_matches_partition_enumeration(self):
        for n in range(21):
            by_mu = {}
            for parts in partitions_of(n):
                m = mu_of_partition(parts)
                by_mu[m] = by_mu.get(m, 0) + 1
            for m in range(1, mu_max(n) + 3):
                assert count_partitions_with_mu(n, m) == by_mu.get(m, 0), (n, m)

    def test_total_at_sixty(self):
        assert sum(count_partitions_with_mu(60, m) for m in range(1, 12)) == 966467

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            count_partitions_with_mu(-1, 1)
