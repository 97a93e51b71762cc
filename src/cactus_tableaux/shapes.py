"""Partitions, compositions, intervals, permutations and value types.

These are the elementary value types everything else is built on.  All of
them are immutable and hashable, so they can be used freely as dict keys
and shared between threads.

The record types of the other modules (``Tableau``, ``GTPattern``,
``RelationReport`` and the rest) are declared as annotated classes under
:func:`value_type`, which gives each of them:

- a constructor taking the annotated fields, in order, by position or by
  keyword, with a class attribute of the same name as the field's default;
- a call to ``__post_init__`` after the fields are set, when the class
  defines one; it is looked up on the instance, so a patched method runs,
  and it sets normalised fields through ``object.__setattr__``;
- equality only with an instance of the same class whose fields are equal,
  and a hash of the fields, both read through one ``operator.attrgetter``;
- the repr ``Name(field=value, ...)``;
- fields that refuse assignment and deletion with ``AttributeError``;
- an ordinary instance ``__dict__``, so copying and pickling work unchanged.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple


def value_type(cls):
    """Give the annotated class ``cls`` the value-type methods listed in
    the module docstring, built without ``exec``, and return it."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fields = operator.attrgetter(*names)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes at most {len(names)} arguments")
        state = self.__dict__
        state.update(zip(names, args))
        for name in names[len(args) :]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(
                f"{cls.__name__}() got an unexpected or repeated argument"
                f" {next(iter(kwargs))!r}"
            )
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        text = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({text})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


class Partition(tuple):
    """A weakly decreasing tuple of nonnegative integers.

    Trailing zeros are accepted on input and normalised away, so
    ``Partition((3, 1, 0)) == Partition((3, 1))``.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts  # already checked and normalised
        parts = tuple(map(operator.index, parts))
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
        parts = tuple(map(operator.index, parts))
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

    out = tuple(gen(n, n, [])) if n > 0 else (Partition(),)
    del gen  # break gen's cycle through its closure, as in tableaux._content_rows
    return out


class Permutation:
    """A permutation of {1, ..., m}, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(map(operator.index, images))
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

