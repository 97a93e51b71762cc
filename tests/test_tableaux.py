import gc
import itertools
import math
import operator
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

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
    _check_image,
    _content_rows,
    _drop_domains,
    _index,
    _rows_semistandard,
    _ssyt_rows,
)

from cactus_tableaux import shapes
from cactus_tableaux.representation import schutzenberger_perm_character
from cactus_tableaux.sliding import jdt_all_rectifications

from helpers import semistandard_oracle, subpartitions

PAPER_T = Tableau(((1, 1, 2, 3), (2, 2, 3), (4, 4), (5,)))
ROW = st.lists(st.integers(-1, 6), max_size=4)
# Valid straight inputs of a kernel: every SSYT(lam, 4), |lam| <= 5, the
# empty one included.
STRAIGHT_SSYT = [
    rows
    for n in range(6)
    for lam in enumerate_partitions(n)
    for rows in _ssyt_rows(lam, 4)
]


@st.composite
def raw_images(draw, before):
    """Raw rows as a kernel could return them for ``before``: often of its
    row lengths, sorted or not, sometimes with an empty row appended, and
    otherwise any rows at all (empty rows, entries <= 0 and outer shapes
    that are not partitions included)."""
    if draw(st.booleans()):
        rows = [draw(ROW) for _ in range(draw(st.integers(0, 5)))]
    else:
        rows = [
            draw(st.lists(st.integers(-1, 6), min_size=len(row), max_size=len(row)))
            for row in before
        ]
        if draw(st.booleans()):
            rows.append([])
    return tuple(tuple(sorted(row) if draw(st.booleans()) else row) for row in rows)


def _reference_error(rows, inner):
    """The message of the ValueError a Tableau of these rows and inner shape
    must raise, or None; every check made cell by cell, in the order the
    checks are made."""

    def partition_error(parts):
        if any(p < 0 for p in parts):
            return f"negative part in partition: {parts}"
        if any(a < b for a, b in zip(parts, parts[1:])):
            return f"parts not weakly decreasing: {parts}"
        return None

    inner = tuple(inner)
    if partition_error(inner):
        return partition_error(inner)
    rows = [tuple(row) for row in rows]
    while rows and not rows[-1]:
        rows.pop()
    inner = tuple(p for p in inner if p)[: len(rows)]
    outer = tuple(
        (inner[i] if i < len(inner) else 0) + len(row) for i, row in enumerate(rows)
    )
    if partition_error(outer):
        return partition_error(outer)
    if len(inner) > len(outer) or any(i > o for i, o in zip(inner, outer)):
        return f"inner shape {inner} not inside outer {Partition(outer)}"
    for row in rows:
        for e in row:
            if e < 1:
                return f"entries must be positive, got {e}"
    return None


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

    @pytest.mark.parametrize(
        "rows, inner, message",
        [
            # inner would stick out of row 1, so it is not a partition
            (((1,), (2, 3)), (0, 1), "parts not weakly decreasing: (0, 1)"),
            # inner is trimmed to the one row left once the empty row goes
            (((1,), ()), (2, 2, 1), None),
            (((1,), (2, 3)), (), "parts not weakly decreasing: (1, 2)"),
            (((1,), (2,)), (-1,), "negative part in partition: (-1,)"),
            (((0, 1),), (), "entries must be positive, got 0"),
            (((0, -1),), (), "entries must be positive, got 0"),
            (((1, -1, 0),), (), "entries must be positive, got -1"),
            (((2,), (1, 0)), (1,), "entries must be positive, got 0"),
        ],
    )
    def test_validation_messages(self, rows, inner, message):
        assert _reference_error(rows, inner) == message
        if message is None:
            Tableau(rows=rows, inner=inner)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Tableau(rows=rows, inner=inner)

    @settings(max_examples=300)
    @given(
        st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=4),
        st.lists(st.integers(-1, 3), max_size=4),
    )
    def test_validation_matches_cellwise_reference(self, rows, inner):
        """The same inputs are refused with the same message as by the
        cell-by-cell checks, containment of inner in outer included."""
        message = _reference_error(rows, inner)
        try:
            T = Tableau(rows=tuple(map(tuple, rows)), inner=tuple(inner))
        except ValueError as exc:
            assert str(exc) == message
        else:
            assert message is None
            assert len(T.inner) <= len(T.outer)
            assert all(map(operator.le, T.inner, T.outer))

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

    @settings(max_examples=500)
    @given(
        st.lists(ROW.map(sorted) | ROW, max_size=4),
        st.lists(st.integers(0, 3), max_size=4),
    )
    def test_predicate_matches_cellwise_oracle(self, rows, inner):
        """The one semistandard predicate against the cell-by-cell oracle, on
        raw rows: empty rows, entries <= 0 and outer shapes that are not
        partitions included.  The inner shape is a partition, as every
        caller's is.  Rows are often sorted, so that about a third of the
        fillings are semistandard."""
        rows = tuple(map(tuple, rows))
        inner = tuple(sorted(inner, reverse=True))
        assert _rows_semistandard(rows, inner) == semistandard_oracle(rows, inner)
        assert _rows_semistandard(rows) == semistandard_oracle(rows)

    @settings(max_examples=500)
    @given(st.sampled_from(STRAIGHT_SSYT), st.data())
    def test_check_image_matches_cellwise_oracle(self, before, data):
        """The post-condition of every kernel pass accepts ``after`` exactly
        when it has the row lengths of ``before`` and the cell-by-cell
        oracle finds it semistandard, and it then returns ``after`` itself."""
        after = data.draw(raw_images(before))
        lengths = [len(row) for row in after] == [len(row) for row in before]
        if lengths and semistandard_oracle(after):
            assert _check_image(before, after, "a pass") is after
        else:
            with pytest.raises(AssertionError, match="^a pass of "):
                _check_image(before, after, "a pass")

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

    def test_content_edge_cases(self):
        with pytest.raises(ValueError, match="alphabet size must be >= 1"):
            enumerate_ssyt(Partition((1,)), 0, Composition((1,)))
        # More rows than m: no column of three cells increases within 1..2.
        assert enumerate_ssyt(Partition((1, 1, 1)), 2, Composition((2, 1))) == []
        # A nonzero part past m; a zero part there is allowed.
        assert enumerate_ssyt(Partition((2, 1)), 2, Composition((1, 1, 1))) == []
        assert enumerate_ssyt(Partition((2, 1)), 2, Composition((2, 1, 0))) == [
            Tableau(((1, 1), (2,)))
        ]
        # A content of another size.
        assert enumerate_ssyt(Partition((2, 1)), 3, Composition((1, 1))) == []
        assert enumerate_ssyt(Partition((2, 1)), 3, Composition((2, 1, 1))) == []

    def test_content_rows_equal_the_filtered_domain(self):
        # The fixed-content filler against the whole-domain filler: for every
        # content nu of |lam| with m parts, the same rows in the same order.
        for n in range(7):
            for lam in map(tuple, enumerate_partitions(n)):
                for m in range(1, 7):
                    by_content: dict = {}
                    for rows in _ssyt_rows(lam, m):
                        nu = tuple(
                            sum(row.count(v) for row in rows) for v in range(1, m + 1)
                        )
                        by_content.setdefault(nu, []).append(rows)
                    for cuts in itertools.combinations_with_replacement(
                        range(n + 1), m - 1
                    ):
                        nu = tuple(map(operator.sub, cuts + (n,), (0,) + cuts))
                        expected = by_content.get(nu, [])
                        assert _content_rows(lam, nu) == expected, (lam, nu)

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


def test_a_dropped_domain_is_freed_without_the_collector():
    # The fillers recurse through closures that refer to themselves.  Were
    # such a cycle to hold the rows, a dropped domain would stay in memory
    # until the next cyclic collection; with the collector off, it would
    # stay for good.  What is left is the tuple free lists, a few 100 KiB.
    _drop_domains()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        _index((5, 2, 1), 8)
        _index((5, 2, 1), None)
        built = tracemalloc.get_traced_memory()[0]
        _drop_domains()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert built > 10 * 2**20
    assert left < built / 8, (built, left)


@pytest.mark.parametrize(
    "call",
    [
        lambda: schutzenberger_perm_character(Partition((4, 1, 1))),
        lambda: enumerate_tabloids(Composition((2, 2))),
        lambda: jdt_all_rectifications(Tableau(rows=((1,),), inner=(1,))),
        lambda: shapes._partitions.__wrapped__(6),
    ],
    ids=["perm-character", "tabloids", "all-rectifications", "partitions"],
)
def test_a_call_leaves_nothing_for_the_collector(call):
    # A recursive closure refers to itself through its cell, and that cycle
    # holds all it closes over (the block permutations of the character,
    # for one) until a cyclic collection; with the collector off, for good.
    gc.collect()
    gc.disable()
    try:
        call()
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
