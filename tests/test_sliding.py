"""Sliding algorithms: rectification, promotion, and the involutions."""

import pytest

from cactus_tableaux import sliding
from cactus_tableaux.shapes import Interval, Partition
from cactus_tableaux.sliding import (
    _evacuate_rows,
    bounded_promotion,
    evacuation,
    interval_evacuation,
    jdt_all_rectifications,
    jdt_rectify,
    partial_evacuation,
    promotion,
)
from cactus_tableaux.tableaux import Tableau, content, enumerate_ssyt, enumerate_syt
from cactus_tableaux import enumerate_partitions

from helpers import (
    evacuation_oracle,
    partial_evacuation_oracle,
    skew_fillings,
    subpartitions,
)

PAPER_T = Tableau(((1, 1, 2, 3), (2, 2, 3), (4, 4), (5,)))


def ssyt_sweep(max_size: int, max_m: int):
    """(T, max_m) for every T in SSYT(lam, max_m), |lam| <= max_size.

    Each tableau comes once, at the widest alphabet: SSYT(lam, m) for
    m < max_m is a subset, and a window range that grows with m covers
    those of every smaller m."""
    for size in range(max_size + 1):
        for lam in enumerate_partitions(size):
            for T in enumerate_ssyt(lam, max_m):
                yield T, max_m


class TestJdt:
    def test_paper_example(self):
        skew = Tableau(rows=((1, 2, 2), (2, 4, 4, 5), (2, 3)), inner=(2, 1))
        assert jdt_rectify(skew) == Tableau(((1, 2, 2, 2, 5), (2, 4, 4), (3,)))

    def test_straight_input_unchanged(self):
        assert jdt_rectify(PAPER_T) == PAPER_T

    def test_two_corner_hand_example(self):
        skew = Tableau(rows=((2,), (1, 3)), inner=(1,))
        assert jdt_rectify(skew) == Tableau(((1, 2), (3,)))
        assert jdt_all_rectifications(skew) == {Tableau(((1, 2), (3,)))}

    def test_rejects_non_semistandard(self):
        with pytest.raises(ValueError):
            jdt_rectify(Tableau(rows=((2, 1),), inner=(0,)))

    def test_policy_choice_does_not_matter(self):
        skew = Tableau(rows=((1, 2, 2), (2, 4, 4, 5), (2, 3)), inner=(2, 1))
        assert jdt_all_rectifications(skew) == {jdt_rectify(skew)}


def test_jdt_confluence_sweep():
    """Every slide order rectifies to the same tableau.

    Shapes with a single removable inner corner are trivially confluent,
    so the sweep concentrates on inner shapes with at least two corners.
    """
    checked = 0
    for size in range(2, 6):
        for lam in enumerate_partitions(size):
            for mu in subpartitions(lam):
                cells = sum(lam) - sum(mu)
                if not mu or cells < 2:
                    continue
                for T in skew_fillings(lam, mu, min(cells, 3)):
                    results = jdt_all_rectifications(T)
                    assert len(results) == 1, (lam, mu, T)
                    checked += 1
    assert checked > 300


def test_jdt_confluence_larger_standard_cases():
    # 7- and 8-cell skew shapes whose inner has two removable corners
    cases = [((4, 3, 1), (1,)), ((4, 2, 2), (2, 1)), ((3, 3, 2), (2, 1)), ((4, 4, 1), (2, 1))]
    for lam, mu in cases:
        cells = sum(lam) - sum(mu)
        assert cells in (7, 8) or cells >= 5
        fillings = [
            T
            for T in skew_fillings(lam, mu, cells)
            if sorted(T.reading_word()) == list(range(1, cells + 1))
        ]
        assert fillings
        for T in fillings:
            assert len(jdt_all_rectifications(T)) == 1, (lam, mu, T)


class TestPromotion:
    def test_paper_figure(self):
        assert promotion(PAPER_T, 5) == Tableau(
            ((1, 1, 1, 2), (2, 3, 5), (3, 5), (4,))
        )

    def test_single_row_fixed(self):
        assert promotion(Tableau(((1, 2, 3),)), 3) == Tableau(((1, 2, 3),))

    def test_single_column_fixed(self):
        T = Tableau(((1,), (2,), (3,)))
        assert promotion(T, 3) == T

    def test_order_divides_lcm_for_rectangles(self):
        # promotion on a rectangle of shape (2,2) with m=4 has order 4
        T = Tableau(((1, 1), (2, 2)))
        cur = T
        for _ in range(4):
            cur = promotion(cur, 4)
        assert cur == T

    def test_rejects_skew(self):
        with pytest.raises(ValueError):
            promotion(Tableau(rows=((1,),), inner=(1,)), 2)

    def test_rejects_entries_beyond_alphabet(self):
        with pytest.raises(ValueError):
            promotion(Tableau(((1, 2), (4,))), 3)


class TestBoundedPromotion:
    def test_paper_chain(self):
        s1 = bounded_promotion(PAPER_T, 5)
        assert s1 == Tableau(((1, 1, 1, 2), (2, 3, 5), (3, 5), (4,)))
        s2 = bounded_promotion(s1, 4)
        assert s2 == Tableau(((1, 1, 4, 4), (2, 2, 5), (3, 5), (4,)))
        s3 = bounded_promotion(s2, 3)
        assert s3 == Tableau(((1, 1, 4, 4), (2, 3, 5), (3, 5), (4,)))

    def test_window_one_is_identity(self):
        for T in enumerate_ssyt(Partition((2, 1)), 3):
            assert bounded_promotion(T, 1) == T

    def test_two_dummy_hand_example(self):
        assert bounded_promotion(Tableau(((1, 1), (2,))), 2) == Tableau(
            ((1, 2), (2,))
        )

    def test_window_beyond_entries(self):
        T = Tableau(((1, 2),))
        assert bounded_promotion(T, 9) == promotion(T, 9)


class TestEvacuation:
    def test_involution_on_paper_tableau(self):
        assert evacuation(evacuation(PAPER_T, 5), 5) == PAPER_T

    def test_two_row_standard(self):
        assert evacuation(Tableau(((1, 2), (3,)))) == Tableau(((1, 3), (2,)))

    def test_content_reversal_forced(self):
        assert evacuation(Tableau(((1, 1, 2),)), 2) == Tableau(((1, 2, 2),))

    @pytest.mark.parametrize("lam", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 2, 1)])
    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_rotate_complement_oracle(self, lam, m):
        for T in enumerate_ssyt(Partition(lam), m):
            assert evacuation(T, m) == evacuation_oracle(T, m)

    def test_row_kernel_matches_promotion_chain(self):
        """The insertion kernel alone, with no check around it, against
        xi_[1,k] by its definition pr_k, ..., pr_2, on the windows that no
        column of the cross-check matrix gives it: k = 1, and k = 7, 8 past
        the alphabet, on every T in SSYT(lam, 6), |lam| <= 6.  The matrix
        compares it with ``partial_evacuation_oracle`` at 2 <= k <= 6."""
        checked = 0
        for T, _ in ssyt_sweep(6, 6):
            for k in (1, 7, 8):
                expected = partial_evacuation_oracle(T.rows, k)
                assert _evacuate_rows(T.rows, k) == expected, (T, k)
                checked += 1
        assert checked == 24_342

    def test_reverses_content(self):
        for lam in [(3, 2), (2, 2, 1), (4, 1)]:
            for T in enumerate_ssyt(Partition(lam), 4):
                rev = tuple(reversed(content(T, 4)))
                assert tuple(content(evacuation(T, 4), 4)) == rev


class TestPartialAndIntervalEvacuation:
    def test_partial_needs_window_of_two(self):
        with pytest.raises(ValueError):
            partial_evacuation(Tableau(((1,),)), 1)

    def test_partial_preserves_standardness(self):
        for T in enumerate_syt(Partition((3, 2))):
            for k in range(2, 6):
                assert partial_evacuation(T, k).is_standard()

    def test_interval_definition_unfolds(self):
        J = Interval(2, 4)
        for T in enumerate_ssyt(Partition((2, 1)), 4):
            direct = interval_evacuation(T, J)
            chained = partial_evacuation(
                partial_evacuation(partial_evacuation(T, 4), 3), 4
            )
            assert direct == chained

    def test_interval_from_one_is_one_pass(self, monkeypatch):
        # xi[1,b] is an involution, so xi[1,b] xi[1,b] xi[1,b] is one pass.
        passes = []
        kernel = sliding._evacuate_rows

        def counted(rows, k):
            passes.append(k)
            return kernel(rows, k)

        monkeypatch.setattr(sliding, "_evacuate_rows", counted)
        for T, m in ssyt_sweep(5, 5):
            for b in range(2, m + 1):
                passes.clear()
                direct = interval_evacuation(T, Interval(1, b))
                assert passes == [b]
                assert direct == partial_evacuation(T, b)
