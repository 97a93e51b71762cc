"""Patterns, the tableau bijection, and the row operators."""

import pytest

from cactus_tableaux.gt_patterns import (
    _swap_rows,
    GTPattern,
    Strip,
    bk_tau,
    from_pattern,
    strip_decomposition,
    strip_location,
    strip_swap,
    to_pattern,
)
from cactus_tableaux.shapes import Partition, enumerate_partitions
from cactus_tableaux.tableaux import Tableau, enumerate_ssyt

PAPER_T = Tableau(((1, 1, 2, 3), (2, 2, 3), (4, 4), (5,)))

STRIP_FIGURE = Tableau(
    (
        (1, 1, 1, 1, 1, 1, 4, 4, 4, 5, 5, 5),
        (2, 2, 2, 2, 4, 5, 5, 5),
        (3, 4, 4, 4),
        (5, 5, 5),
    )
)
STRIP_FIGURE_SWAPPED = Tableau(
    (
        (1, 1, 1, 1, 1, 1, 4, 4, 4, 4, 4, 5),
        (2, 2, 2, 2, 4, 5, 5, 5),
        (3, 4, 4, 5),
        (4, 5, 5),
    )
)


class TestGTPattern:
    def test_row_lengths_enforced(self):
        with pytest.raises(ValueError):
            GTPattern(rows=((1,), (2,)))

    def test_interlacing_enforced(self):
        with pytest.raises(ValueError):
            GTPattern(rows=((3,), (2, 1)))

    def test_entry_zero_outside_triangle(self):
        P = GTPattern(rows=((1,), (2, 1)))
        assert P.entry(2, 1) == 0
        assert P.entry(1, 2) == 2

    def test_json_roundtrip(self):
        P = GTPattern(rows=((1,), (2, 1), (2, 1, 0)))
        assert GTPattern.from_json(P.to_json()) == P


class TestBijection:
    def test_small_example(self):
        P = to_pattern(Tableau(((1, 2), (2,))), 3)
        assert P.rows == ((1,), (2, 1), (2, 1, 0))

    def test_paper_tableau(self):
        P = to_pattern(PAPER_T, 5)
        assert P.rows == (
            (2,),
            (3, 2),
            (4, 3, 0),
            (4, 3, 2, 0),
            (4, 3, 2, 1, 0),
        )

    def test_roundtrip_exhaustive(self):
        for size in range(1, 6):
            for lam in enumerate_partitions(size):
                for T in enumerate_ssyt(lam, 4):
                    assert from_pattern(to_pattern(T, 4)) == T

    def test_rejects_oversized_entries(self):
        with pytest.raises(ValueError):
            to_pattern(PAPER_T, 4)


class TestTau:
    def test_affects_only_row_k(self):
        P = to_pattern(PAPER_T, 5)
        for k in range(1, 5):
            Q = bk_tau(P, k)
            for j in range(1, 6):
                if j != k:
                    assert Q.rows[j - 1] == P.rows[j - 1]

    def test_involution(self):
        for T in enumerate_ssyt(Partition((2, 2, 1)), 4):
            P = to_pattern(T, 4)
            for k in (1, 2, 3):
                assert bk_tau(bk_tau(P, k), k) == P

    def test_intertwines_with_strip_swap(self):
        # the bijection carries the pattern reflection to the strip swap
        for size in range(1, 7):
            for lam in enumerate_partitions(size):
                for T in enumerate_ssyt(lam, 4):
                    P = to_pattern(T, 4)
                    for k in (1, 2, 3):
                        assert from_pattern(bk_tau(P, k)) == strip_swap(T, k)

    def test_row_kernel_matches_pattern_reflection(self):
        """The strip-swap kernel alone, with no check around it, against
        bk_tau through the bijection: every T in SSYT(lam, m), |lam| <= 5,
        m <= 5, 1 <= k < m."""
        checked = 0
        for size in range(0, 6):
            for lam in enumerate_partitions(size):
                for m in range(2, 6):
                    for T in enumerate_ssyt(lam, m):
                        P = to_pattern(T, m)
                        for k in range(1, m):
                            expected = from_pattern(bk_tau(P, k)).rows
                            assert _swap_rows(T.rows, k) == expected, (T, k)
                            checked += 1
        assert checked > 6_000


class TestStrips:
    def test_figure_swap(self):
        assert strip_swap(STRIP_FIGURE, 4) == STRIP_FIGURE_SWAPPED

    def test_figure_decomposition(self):
        strips, rects = strip_decomposition(STRIP_FIGURE, 4)
        # the cited types, listed bottom row to top row
        assert [(s.low, s.high) for s in reversed(strips)] == [
            (0, 1),
            (1, 0),
            (1, 1),
            (1, 3),
        ]
        assert len(rects) == 2

    def test_standard_non_adjacent_gives_two_singletons(self):
        strips, rects = strip_decomposition(Tableau(((1, 2), (3, 4))), 2)
        assert not rects
        assert sorted((s.low, s.high) for s in strips) == [(0, 1), (1, 0)]

    def test_vertical_domino_is_one_rectangle(self):
        strips, rects = strip_decomposition(Tableau(((1,), (2,))), 1)
        assert strips == ()
        assert len(rects) == 1 and rects[0].width == 1
        assert strip_swap(Tableau(((1,), (2,))), 1) == Tableau(((1,), (2,)))

    def test_strip_location_small(self):
        P = to_pattern(Tableau(((1, 2), (3,))), 3)
        s = strip_location(P, 1, 2)
        assert (s.start_col, s.low, s.high) == (2, 1, 0)

    def test_strip_location_single_row(self):
        P = to_pattern(Tableau(((1, 1, 1),)), 2)
        s = strip_location(P, 1, 1)
        assert (s.start_col, s.low, s.high) == (1, 3, 0)

    def test_location_agrees_with_decomposition(self):
        for size in range(1, 7):
            for lam in enumerate_partitions(size):
                for T in enumerate_ssyt(lam, 4):
                    P = to_pattern(T, 4)
                    strips, _ = strip_decomposition(T, 2)
                    by_row = {s.row: s for s in strips}
                    for i in (1, 2):
                        if i > len(T.outer):
                            continue
                        predicted = strip_location(P, i, 2)
                        if predicted.low == predicted.high == 0:
                            assert i not in by_row
                        else:
                            got = by_row[i]
                            assert (got.start_col, got.low, got.high) == (
                                predicted.start_col,
                                predicted.low,
                                predicted.high,
                            )

    def test_swap_is_involution(self):
        for T in enumerate_ssyt(Partition((3, 2)), 4):
            for k in (1, 2, 3):
                assert strip_swap(strip_swap(T, k), k) == T
