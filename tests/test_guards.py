"""Input guards of the library: each refuses a bad argument with its own
exception and a message that names what is wrong."""

import pytest

from cactus_tableaux import group_actions
from cactus_tableaux.group_actions import (
    CactusWord,
    act,
    generated_group_order,
    paper_syt_ordering,
    parse_word,
    pi_ij_image,
    pi_k_image,
    syt_ordering,
    word_perm,
)
from cactus_tableaux.gt_patterns import (
    GTPattern,
    bk_tau,
    strip_decomposition,
    strip_location,
    strip_swap,
    to_pattern,
)
from cactus_tableaux.representation import mn_character
from cactus_tableaux.shapes import (
    Composition,
    Interval,
    Partition,
    Permutation,
    enumerate_partitions,
)
from cactus_tableaux.sliding import (
    bounded_promotion,
    evacuation,
    interval_evacuation,
    jdt_all_rectifications,
    partial_evacuation,
    promotion,
)
from cactus_tableaux.tableaux import (
    Tableau,
    Tabloid,
    permutation_act_tabloid,
    restrict_entries,
)
from cactus_tableaux.verify import RunConfig

T = Tableau(((1, 2), (3,)))
P = to_pattern(T, 3)
E3 = CactusWord(3, ())

GUARDS = {
    "act past the rank": (
        lambda: act(parse_word("t1", 2), T), ValueError,
        "entries exceed alphabet 2",
    ),
    "act on a non-semistandard tableau": (
        lambda: act(parse_word("t1", 3), Tableau(((2, 1),))), ValueError,
        "a group action requires a semistandard tableau",
    ),
    "pi_k k = 0": (lambda: pi_k_image(E3, 0), ValueError, "k must be in 1..3"),
    "pi_k k > n": (lambda: pi_k_image(E3, 4), ValueError, "k must be in 1..3"),
    "pi_ij i < 0": (lambda: pi_ij_image(E3, -1, 0), ValueError, "need i, j >= 0"),
    "pi_ij i + j = n": (
        lambda: pi_ij_image(E3, 2, 1), ValueError, "i + j < n",
    ),
    "word_perm domain": (
        lambda: word_perm(E3, (2, 1), 3, "x"), ValueError, "unknown domain 'x'",
    ),
    "syt_ordering": (
        lambda: syt_ordering((2, 1), "other"), ValueError,
        "unknown ordering 'other'",
    ),
    "paper_syt_ordering": (
        lambda: paper_syt_ordering((2, 2)), ValueError, "no cited ordering",
    ),
    "group order cap": (
        lambda: generated_group_order((2, 1), [parse_word("c[1,3]", 3)]),
        RuntimeError, "generated group exceeds cap of 1 elements",
    ),
    "GTPattern.entry row": (lambda: P.entry(1, 4), IndexError, "row 4 out of range"),
    "GTPattern.entry column": (
        lambda: P.entry(0, 2), IndexError, "column 0 out of range",
    ),
    "to_pattern past the alphabet": (
        lambda: to_pattern(T, 2), ValueError, "entries exceed alphabet 2",
    ),
    "bk_tau": (lambda: bk_tau(P, 3), ValueError, "k must be in 1..2"),
    "strip_location level": (
        lambda: strip_location(P, 1, 0), ValueError, "k must be in 1..2",
    ),
    "strip_location row": (
        lambda: strip_location(P, 3, 2), ValueError,
        "row index 3 out of range for level 2",
    ),
    "mn_character": (
        lambda: mn_character((2, 1), (2,)), ValueError,
        "|Partition((2, 1))| != |Partition((2,))|",
    ),
    "Composition": (
        lambda: Composition((1, -1)), ValueError, "negative part in composition",
    ),
    "Interval.validate_window": (
        lambda: Interval(2, 1).validate_window(), ValueError,
        "invalid window [2,1]",
    ),
    "enumerate_partitions": (
        lambda: enumerate_partitions(-1), ValueError, "n must be nonnegative",
    ),
    "interval_reversal": (
        lambda: Permutation.interval_reversal(3, 2, 4), ValueError,
        "interval [2,4] not within 1..3",
    ),
    "restricted": (
        lambda: Permutation((1, 3, 2)).restricted(2), ValueError,
        "points above 2 are not fixed",
    ),
    "extended": (
        lambda: Permutation((2, 1)).extended(1), ValueError,
        "cannot extend to a smaller degree",
    ),
    "jdt_all_rectifications": (
        lambda: jdt_all_rectifications(Tableau(rows=((2, 1),), inner=(0,))),
        ValueError, "jdt requires a semistandard tableau",
    ),
    "bounded_promotion": (
        lambda: bounded_promotion(T, 0), ValueError, "k must be >= 1",
    ),
    "promotion past the alphabet": (
        lambda: promotion(T, 2), ValueError, "entries exceed alphabet 2",
    ),
    "evacuation": (
        lambda: evacuation(T, 2), ValueError, "entries exceed alphabet 2",
    ),
    "interval_evacuation": (
        lambda: interval_evacuation(T, Interval(2, 1)), ValueError,
        "invalid interval [2,1]",
    ),
    "Tabloid row count": (
        lambda: Tabloid((2, 1), ({1, 2},)), ValueError,
        "row count does not match shape",
    ),
    "Tabloid row size": (
        lambda: Tabloid((2, 1), ({1}, {2, 3})), ValueError,
        "does not have 2 entries",
    ),
    "permutation_act_tabloid": (
        lambda: permutation_act_tabloid(
            Permutation.identity(2), Tabloid((2, 1), ({1, 2}, {3}))
        ),
        ValueError, "permutation degree 2 != tabloid size 3",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_refuses_bad_input(monkeypatch, name):
    # Only the group-order case reads the cap.
    monkeypatch.setattr(group_actions, "GROUP_ORDER_CAP", 1)
    call, exc, fragment = GUARDS[name]
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)


# Each used to be truncated by int() (or kept as given, in Tabloid) and
# computed on without an error.
NON_INTEGERS = {
    "Tableau float entry": lambda: Tableau(((1.9, 2),)),
    "Tableau string row": lambda: Tableau(("12",)),
    "Tabloid float entry": lambda: Tabloid((1,), ({1.0},)),
    "Partition": lambda: Partition((2.0, 1)),
    "Composition": lambda: Composition((1.5,)),
    "Permutation": lambda: Permutation((1.0, 2)),
    "GTPattern": lambda: GTPattern(((1.0,),)),
    "interval_evacuation": lambda: interval_evacuation(T, (1.5, 3)),
    "evacuation": lambda: evacuation(T, 3.5),
    "partial_evacuation": lambda: partial_evacuation(T, 2.5),
    "promotion": lambda: promotion(T, 3.0),
    "bounded_promotion": lambda: bounded_promotion(T, 2.5),
    "strip_swap": lambda: strip_swap(T, 1.5),
    "strip_decomposition": lambda: strip_decomposition(T, 1.5),
    "restrict_entries": lambda: restrict_entries(T, (1.5, 3)),
    "strip_location level": lambda: strip_location(P, 1, 1.5),
    "strip_location row": lambda: strip_location(P, 1.0, 1),
    "RunConfig workers": lambda: RunConfig(2, 3, workers=1.5),
    "RunConfig n_min": lambda: RunConfig(2.0, 3),
}


@pytest.mark.parametrize("name", NON_INTEGERS)
def test_non_integer_is_refused(name):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        NON_INTEGERS[name]()


def test_bools_are_read_as_integers():
    assert Tableau(((True, 2),)).rows == ((1, 2),)
    assert type(Partition((True,))[0]) is int
    assert Permutation((True,)).images == (1,)
    # A window is written into the result's rows, which are not re-validated.
    for out in (
        bounded_promotion(T, True),
        strip_swap(T, True),
        act(CactusWord(3, ((True, 3),)), T),
    ):
        assert all(type(e) is int for row in out.rows for e in row)
