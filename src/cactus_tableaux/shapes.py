"""Partitions, compositions, intervals and permutations.

These are the elementary value types everything else is built on.  All of
them are immutable and hashable, so they can be used freely as dict keys
and shared between threads.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple


class Partition(tuple):
    """A weakly decreasing tuple of nonnegative integers.

    Trailing zeros are accepted on input and normalised away, so
    ``Partition((3, 1, 0)) == Partition((3, 1))``.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts  # already checked and normalised
        parts = tuple(map(int, parts))
        if parts and min(parts) < 0:
            raise ValueError(f"negative part in partition: {parts}")
        if not all(map(operator.ge, parts, parts[1:])):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        return cls._unchecked(parts)

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap parts already known to be weakly decreasing nonnegative
        integers, dropping trailing zeros."""
        if parts and not parts[-1]:
            parts = parts[: parts.index(0)]
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def contains(self, other: "Partition") -> bool:
        """Componentwise containment (Young diagram inclusion)."""
        other = Partition(other)
        return len(other) <= len(self) and all(
            o <= s for o, s in zip(other, self)
        )

    def part(self, i: int) -> int:
        """The i-th part (1-based), zero beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"


class Composition(tuple):
    """A tuple of nonnegative integers; order significant, zeros kept."""

    def __new__(cls, parts: Iterable[int] = ()) -> "Composition":
        parts = tuple(int(p) for p in parts)
        for p in parts:
            if p < 0:
                raise ValueError(f"negative part in composition: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Composition({tuple(self)})"


class Interval(NamedTuple):
    """The integer interval [a, b] = {a, a+1, ..., b}."""

    a: int
    b: int

    def validate_window(self) -> "Interval":
        """Restriction windows only need 1 <= a <= b."""
        if not 1 <= self.a <= self.b:
            raise ValueError(f"invalid window [{self.a},{self.b}]")
        return self

    def validate_generator(self, n: int) -> "Interval":
        """Group generator intervals need 1 <= a < b <= n."""
        if not 1 <= self.a < self.b:
            raise ValueError(f"invalid generator interval [{self.a},{self.b}]")
        if self.b > n:
            raise ValueError(f"interval [{self.a},{self.b}] exceeds rank {n}")
        return self

    def __str__(self) -> str:
        return f"c[{self.a},{self.b}]"


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: result_i = #{j : lam_j >= i}."""
    lam = Partition(lam)
    if not lam:
        return Partition()
    return Partition(
        tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))
    )


def is_hook(lam: Partition) -> bool:
    """True for shapes (a, 1, 1, ..., 1), including (a) and (1^b)."""
    lam = Partition(lam)
    return bool(lam) and all(p == 1 for p in lam[1:])


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first.

    A fresh list each call, over one cached tuple per n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partitions(n))


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    def gen(rest: int, max_part: int, prefix: list[int]) -> Iterator[Partition]:
        if rest == 0:
            yield Partition._unchecked(tuple(prefix))
            return
        for p in range(min(rest, max_part), 0, -1):
            prefix.append(p)
            yield from gen(rest - p, p, prefix)
            prefix.pop()

    return tuple(gen(n, n, [])) if n > 0 else (Partition(),)


class Permutation:
    """A permutation of {1, ..., m}, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(map(int, images))
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a bijection of 1..m."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(range(1, m + 1))

    @classmethod
    def transposition(cls, m: int, i: int, j: int) -> "Permutation":
        images = list(range(1, m + 1))
        images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
        return cls(images)

    @classmethod
    def interval_reversal(cls, m: int, a: int, b: int) -> "Permutation":
        """The longest element w_[a,b]: a+i -> b-i inside [a,b]."""
        if not 1 <= a <= b <= m:
            raise ValueError(f"interval [{a},{b}] not within 1..{m}")
        images = list(range(1, m + 1))
        images[a - 1 : b] = range(b, a - 1, -1)
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(self * other)(x) = self(other(x)); other acts first."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        # A product of two bijections of 1..m is one: skip re-validation.
        # Below degree 2 the only permutation is the identity, and
        # itemgetter would not return a tuple.
        if len(other.images) < 2:
            return self
        return Permutation._unchecked(
            operator.itemgetter(*other.images)((0,) + self.images)
        )

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(inv)

    def restricted(self, m: int) -> "Permutation":
        """Restriction to {1..m}; requires all points > m to be fixed."""
        if any(self.images[x - 1] != x for x in range(m + 1, self.degree + 1)):
            raise ValueError(f"points above {m} are not fixed")
        if any(y > m for y in self.images[:m]):
            raise ValueError(f"does not stabilise 1..{m}")
        return Permutation(self.images[:m])

    def extended(self, m: int) -> "Permutation":
        """Extension to {1..m} fixing the new points."""
        if m < self.degree:
            raise ValueError("cannot extend to a smaller degree")
        return Permutation(self.images + tuple(range(self.degree + 1, m + 1)))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimum, sorted."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Partition:
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return Partition(sorted(lengths, reverse=True))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Permutation.identity({self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation[{self.degree}: {text}]"


def transposition_word(w: Permutation) -> tuple[int, ...]:
    """Express w as a product of adjacent transpositions s_i.

    Returns indices (i_1, ..., i_r) with w = s_{i_1} * ... * s_{i_r}
    (rightmost applied first).  This is the canonical bubble-sort word.
    """
    one_line = list(w.images)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for pos in range(len(one_line) - 1):
            if one_line[pos] > one_line[pos + 1]:
                one_line[pos], one_line[pos + 1] = one_line[pos + 1], one_line[pos]
                swaps.append(pos + 1)
                changed = True
    word = tuple(reversed(swaps))
    check = Permutation.identity(w.degree)
    for i in word:
        check = check * Permutation.transposition(w.degree, i, i + 1)
    if check != w:
        raise AssertionError(f"the bubble-sort word {word} does not give {w}")
    return word
