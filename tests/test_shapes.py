import pickle

import pytest
from hypothesis import given, strategies as st

from cactus_tableaux.group_actions import BKWord, CactusWord
from cactus_tableaux.gt_patterns import GTPattern, Strip, StripRectangle
from cactus_tableaux.representation import (
    CharacterValueTable,
    HookShape,
    MultiplicityVector,
)
from cactus_tableaux.shapes import (
    Composition,
    Interval,
    Partition,
    Permutation,
    conjugate,
    enumerate_partitions,
    is_hook,
)
from cactus_tableaux.tableaux import Tableau, Tabloid
from cactus_tableaux.verify import ALL_CHECKS, RelationReport, RunConfig, Summary


class TestPartition:
    def test_normalizes_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((3, -1))

    def test_a_partition_is_returned_as_it_is(self):
        lam = Partition((3, 1))
        assert Partition(lam) is lam

    @pytest.mark.parametrize("wrap", [list, tuple, iter], ids=["list", "tuple", "generator"])
    def test_checks_every_kind_of_input(self, wrap):
        negative = r"^negative part in partition: "
        with pytest.raises(ValueError, match=negative + r"\(2, -1, 0\)$"):
            Partition(wrap([2, -1, 0]))
        # a negative part is named before the order is checked
        with pytest.raises(ValueError, match=negative + r"\(-1, 2\)$"):
            Partition(wrap([-1, 2]))
        with pytest.raises(ValueError, match=r"^parts not weakly decreasing: \(3, 1, 2\)$"):
            Partition(wrap([3, 1, 2]))
        lam = Partition(wrap([3, 1, 0, 0]))
        assert type(lam) is Partition and tuple(lam) == (3, 1)
        assert Partition(wrap([0, 0])) == () and Partition(wrap([])) == ()

    def test_size_and_part(self):
        lam = Partition((4, 2, 1))
        assert lam.size == 7
        assert lam.part(1) == 4
        assert lam.part(3) == 1
        assert lam.part(5) == 0

    def test_contains(self):
        assert Partition((3, 2)).contains(Partition((2, 2)))
        assert not Partition((3, 2)).contains(Partition((1, 1, 1)))


def test_composition_keeps_zeros():
    assert tuple(Composition((2, 0, 1))) == (2, 0, 1)
    assert Composition((2, 0, 1)).size == 3


def test_interval_validation():
    assert Interval(2, 2).validate_window() == (2, 2)
    with pytest.raises(ValueError):
        Interval(2, 2).validate_generator(5)
    with pytest.raises(ValueError):
        Interval(2, 6).validate_generator(5)
    assert str(Interval(1, 3)) == "c[1,3]"


def test_conjugate():
    assert conjugate(Partition((4, 2, 1))) == Partition((3, 2, 1, 1))
    assert conjugate(conjugate(Partition((5, 3, 3, 1)))) == Partition((5, 3, 3, 1))


def test_is_hook():
    assert is_hook(Partition((5,)))
    assert is_hook(Partition((1, 1, 1)))
    assert is_hook(Partition((3, 1, 1)))
    assert not is_hook(Partition((2, 2)))
    assert not is_hook(Partition(()))


def test_enumerate_partitions_order():
    parts = enumerate_partitions(4)
    assert parts == [
        Partition((4,)),
        Partition((3, 1)),
        Partition((2, 2)),
        Partition((2, 1, 1)),
        Partition((1, 1, 1, 1)),
    ]
    assert len(enumerate_partitions(6)) == 11


def test_enumerate_partitions_returns_a_fresh_list():
    parts = enumerate_partitions(3)
    parts.pop()
    parts.append(Partition((2, 2)))
    assert enumerate_partitions(3) == [
        Partition((3,)),
        Partition((2, 1)),
        Partition((1, 1, 1)),
    ]


class TestPermutation:
    def test_composition_order(self):
        # (p * q)(x) = p(q(x)); q acts first
        p = Permutation.transposition(3, 1, 2)
        q = Permutation.transposition(3, 2, 3)
        assert (p * q)(3) == 1

    def test_interval_reversal(self):
        w = Permutation.interval_reversal(5, 2, 4)
        assert w.images == (1, 4, 3, 2, 5)

    def test_inverse(self):
        w = Permutation((3, 1, 2))
        assert (w * w.inverse()).is_identity()

    def test_cycle_type(self):
        w = Permutation((2, 1, 4, 5, 3))
        assert w.cycle_type() == Partition((3, 2))

    def test_restricted_and_extended(self):
        w = Permutation((2, 1, 3, 4))
        assert w.restricted(2).images == (2, 1)
        assert w.restricted(2).extended(4) == w
        with pytest.raises(ValueError):
            Permutation((1, 3, 2)).restricted(2)

    def test_product_rejects_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            Permutation.identity(3) * Permutation.identity(4)

    def test_constructor_still_validates(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))


def test_product_at_degree_0_and_1():
    for m in (0, 1):
        product = Permutation.identity(m) * Permutation.identity(m)
        assert product == Permutation.identity(m)
        assert type(product.images) is tuple


_pairs_up_to_degree_9 = st.integers(0, 9).flatmap(
    lambda m: st.tuples(*[st.permutations(list(range(1, m + 1)))] * 2)
)


@given(_pairs_up_to_degree_9)
def test_product_is_a_bijection(pq):
    # products skip re-validation, so check the result is one by hand
    p, q = pq
    m = len(p)
    product = Permutation(p) * Permutation(q)
    assert type(product.images) is tuple
    assert sorted(product.images) == list(range(1, m + 1))
    assert all(product(x) == p[q[x - 1] - 1] for x in range(1, m + 1))



# (type, its required fields in order, its defaulted fields with their
# defaults, fields that make an unequal instance); Summary alone is mutable.
VALUE_TYPES = [
    (Tableau, {"rows": ((1, 2), (3,))}, {"inner": ()}, {"rows": ((1, 3), (2,))}),
    (
        Tabloid,
        {"shape": (2, 1), "rows": (frozenset({1, 3}), frozenset({2}))},
        {},
        {"rows": (frozenset({1, 2}), frozenset({3}))},
    ),
    (GTPattern, {"rows": ((1,), (2, 0))}, {}, {"rows": ((2,), (2, 0))}),
    (
        Strip,
        {"row": 1, "start_col": 2, "low": 1, "high": 1, "level": 1},
        {},
        {"level": 2},
    ),
    (
        StripRectangle,
        {"row": 1, "start_col": 1, "width": 2, "level": 1},
        {},
        {"width": 1},
    ),
    (CactusWord, {"n": 3, "factors": (Interval(1, 2),)}, {}, {"n": 4}),
    (BKWord, {"n": 3, "factors": (("t", 1),)}, {}, {"factors": (("q", 2),)}),
    (
        HookShape,
        {
            "partition": Partition((3, 1, 1)),
            "arm": 2,
            "leg": 2,
            "tilde": Composition((2, 2)),
        },
        {},
        {"arm": 3},
    ),
    (
        CharacterValueTable,
        {
            "degree": 2,
            "partitions": (Partition((2,)), Partition((1, 1))),
            "values": ((1, 1), (1, -1)),
        },
        {},
        {"values": ((1, 1), (1, 1))},
    ),
    (
        MultiplicityVector,
        {"degree": 2, "mults": ((Partition((2,)), 1), (Partition((1, 1)), 0))},
        {},
        {"mults": ((Partition((2,)), 0), (Partition((1, 1)), 1))},
    ),
    (
        RelationReport,
        {"relation": "star", "n": 4, "shape": (2, 2), "status": "PASS"},
        {"counterexample": None},
        {"status": "FAIL"},
    ),
    (
        RunConfig,
        {"n_min": 2, "n_max": 3},
        {
            "shapes": "all",
            "relations": ALL_CHECKS,
            "workers": 1,
            "allow_large": False,
        },
        {"workers": 2},
    ),
    (
        Summary,
        {},
        {"checked": 0, "passed": 0, "failed": 0, "records": []},
        {"checked": 1},
    ),
]


@pytest.mark.parametrize(
    "cls, required, defaults, changed",
    VALUE_TYPES,
    ids=[case[0].__name__ for case in VALUE_TYPES],
)
def test_value_type_contract(cls, required, defaults, changed):
    """Construction by position, keyword and default; for the frozen types,
    equality and hash by fields within one class only, fields that refuse
    assignment and deletion; and a pickle round trip."""
    fields = {**required, **defaults}
    obj = cls(*required.values())
    assert vars(obj) == fields
    assert vars(cls(**required)) == fields
    assert vars(cls(*fields.values())) == fields
    assert vars(cls(**fields)) == fields
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**required, unknown=None)
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is cls and vars(copy) == fields
    if cls is Summary:
        assert cls().records is not cls().records
        obj.checked += 1  # batch_verify counts into it
        assert obj.checked == 1
        return
    twin = cls(*fields.values())
    assert obj == twin and hash(obj) == hash(twin) and {obj: 1}[twin] == 1
    assert obj == copy and hash(obj) == hash(copy)
    assert obj != cls(**{**fields, **changed})
    subclass = type("Twin", (cls,), {})
    assert obj != subclass(*fields.values()) and obj != tuple(fields.values())
    name = next(iter(fields))
    for attr in (name, "unknown"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert vars(obj) == fields
