import pytest
from hypothesis import given, strategies as st

from cactus_tableaux.shapes import (
    Composition,
    Interval,
    Partition,
    Permutation,
    conjugate,
    enumerate_partitions,
    is_hook,
    transposition_word,
)


class TestPartition:
    def test_normalizes_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((3, -1))

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


@given(st.permutations(list(range(1, 9))), st.permutations(list(range(1, 9))))
def test_product_is_a_bijection(p, q):
    # products skip re-validation, so check the result is one by hand
    product = Permutation(p) * Permutation(q)
    assert sorted(product.images) == list(range(1, 9))
    assert all(product(x) == p[q[x - 1] - 1] for x in range(1, 9))


@given(st.permutations(list(range(1, 7))))
def test_transposition_word_reconstructs(images):
    w = Permutation(images)
    word = transposition_word(w)
    rebuilt = Permutation.identity(6)
    for i in word:
        rebuilt = rebuilt * Permutation.transposition(6, i, i + 1)
    assert rebuilt == w
