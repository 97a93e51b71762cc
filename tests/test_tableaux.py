import itertools
import math

import pytest

from cactus_tableaux.shapes import (
    Composition,
    Interval,
    Partition,
    Permutation,
    enumerate_partitions,
)
from cactus_tableaux.tableaux import (
    Tableau,
    Tabloid,
    content,
    dual_reflect,
    enumerate_ssyt,
    enumerate_syt,
    enumerate_tabloids,
    permutation_act_tabloid,
    restrict_entries,
)

from helpers import subpartitions

PAPER_T = Tableau(((1, 1, 2, 3), (2, 2, 3), (4, 4), (5,)))


class TestTableau:
    def test_outer_shape(self):
        assert PAPER_T.outer == Partition((4, 3, 2, 1))
        skew = Tableau(rows=((2,), (1, 3)), inner=(1,))
        assert skew.outer == Partition((2, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            Tableau(rows=((1,), (2, 3)), inner=(0, 1))  # inner not inside outer
        with pytest.raises(ValueError):
            Tableau(rows=((0, 1),))

    def test_semistandard_and_standard(self):
        assert PAPER_T.is_semistandard()
        assert not PAPER_T.is_standard()
        assert Tableau(((1, 2), (3,))).is_standard()
        assert not Tableau(((1, 1), (1,))).is_semistandard()
        assert not Tableau(((2, 1),)).is_semistandard()

    def test_semistandard_matches_cellwise_reference(self):
        """Every filling over 1..3 of every skew shape of size <= 4, against
        a check of each cell with its east and south neighbours."""

        def by_cells(T):
            for r, c, e in T.cells():
                east, south = T.entry(r, c + 1), T.entry(r + 1, c)
                if east is not None and east < e:
                    return False
                if south is not None and south <= e:
                    return False
            return True

        seen = set()
        for size in range(1, 5):
            for lam in enumerate_partitions(size):
                for mu in subpartitions(lam):
                    inner = tuple(mu) + (0,) * (len(lam) - len(mu))
                    lengths = [p - q for p, q in zip(lam, inner)]
                    for entries in itertools.product((1, 2, 3), repeat=sum(lengths)):
                        it = iter(entries)
                        rows = tuple(tuple(next(it) for _ in range(n)) for n in lengths)
                        T = Tableau(rows=rows, inner=tuple(mu))
                        assert T.is_semistandard() == by_cells(T), T
                        seen.add(T.is_semistandard())
        assert seen == {True, False}

    def test_entry_is_zero_based_with_inner_offset(self):
        skew = Tableau(rows=((2,), (1, 3)), inner=(1,))
        assert skew.entry(0, 0) is None
        assert skew.entry(0, 1) == 2
        assert skew.entry(1, 1) == 3

    def test_json_roundtrip(self):
        for t in (PAPER_T, Tableau(rows=((2,), (1, 3)), inner=(1,))):
            assert Tableau.from_json(t.to_json()) == t
        assert "inner" not in PAPER_T.to_json()


def test_content():
    assert content(PAPER_T) == Composition((2, 3, 2, 2, 1))
    assert content(Tableau(((1, 2), (3,)))) == Composition((1, 1, 1))
    with pytest.raises(ValueError):
        content(PAPER_T, 3)


def test_restrict_entries():
    assert restrict_entries(PAPER_T, Interval(1, 5)) == PAPER_T
    r = restrict_entries(PAPER_T, Interval(1, 2))
    assert r == Tableau(((1, 1, 2), (2, 2)))
    mid = restrict_entries(PAPER_T, Interval(3, 4))
    assert mid.inner == (3, 2)
    assert mid.rows == ((3,), (3,), (4, 4))
    empty = restrict_entries(Tableau(((1, 2),)), Interval(5, 9))
    assert empty.size == 0


def test_dual_reflect_paper_example():
    T = Tableau(((1, 2, 3, 4), (5, 6), (7,)))
    assert dual_reflect(T) == Tableau(((1, 5, 7), (2, 6), (3,), (4,)))
    assert dual_reflect(dual_reflect(T)) == T
    with pytest.raises(ValueError):
        dual_reflect(Tableau(rows=((1,),), inner=(1,)))


class TestEnumeration:
    def test_syt_counts(self):
        assert len(enumerate_syt(Partition((2, 1)))) == 2
        assert len(enumerate_syt(Partition((3, 2)))) == 5
        assert len(enumerate_syt(Partition((2, 2, 1)))) == 5

    def test_syt_all_standard_and_distinct(self):
        tabs = enumerate_syt(Partition((3, 1, 1)))
        assert len(tabs) == len(set(tabs)) == 6
        assert all(t.is_standard() for t in tabs)

    def test_ssyt_single_cell(self):
        assert len(enumerate_ssyt(Partition((1,)), 3)) == 3

    def test_ssyt_content_filter(self):
        only = enumerate_ssyt(Partition((3, 1)), 2, Composition((2, 2)))
        assert only == [Tableau(((1, 1, 2), (2,)))]

    def test_paper_tableau_enumerated(self):
        assert PAPER_T in enumerate_ssyt(Partition((4, 3, 2, 1)), 5)

    def test_ssyt_count_matches_weyl_dimension(self):
        # dim of the GL_m module: prod (m + c(x)) / h(x)
        lam, m = Partition((2, 1)), 4
        num = den = 1
        conj = [sum(1 for p in lam if p > j) for j in range(lam[0])]
        for i, row in enumerate(lam):
            for j in range(row):
                num *= m + j - i
                den *= (row - j) + (conj[j] - i) - 1
        assert len(enumerate_ssyt(lam, m)) == num // den


def test_tabloid_validation():
    with pytest.raises(ValueError):
        Tabloid(shape=(2, 1), rows=(frozenset({1, 2}), frozenset({2})))
    t = Tabloid(shape=(2, 1), rows=(frozenset({1, 3}), frozenset({2})))
    assert Tabloid.from_json(t.to_json()) == t


def test_enumerate_tabloids():
    assert len(enumerate_tabloids(Composition((4,)))) == 1
    assert len(enumerate_tabloids(Composition((3, 1)))) == 4
    assert len(enumerate_tabloids(Composition((2, 2)))) == 6


def test_tabloid_action_is_an_action():
    mu = Composition((2, 1))
    tabloids = enumerate_tabloids(mu)
    u = Permutation((2, 3, 1))
    v = Permutation((1, 3, 2))
    for p in tabloids:
        assert permutation_act_tabloid(
            u * v, p
        ) == permutation_act_tabloid(u, permutation_act_tabloid(v, p))
    # and it permutes the tabloid set
    images = {permutation_act_tabloid(u, p) for p in tabloids}
    assert images == set(tabloids)


def test_tabloid_count_is_multinomial():
    mu = Composition((2, 2, 1))
    expected = math.factorial(5) // (2 * 2 * 1)
    assert len(enumerate_tabloids(mu)) == expected
