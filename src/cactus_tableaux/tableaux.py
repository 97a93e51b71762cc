"""Tableaux and tabloids: the data model, validation and enumeration.

A tableau is stored as its inner shape plus the row entry sequences, so a
single type covers both straight and skew shapes.  Cells are addressed by
0-based (row, column) pairs internally; entry values are positive
integers.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .shapes import Composition, Interval, Partition, Permutation, conjugate

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Tableau:
    """A (possibly skew) filling; ``inner`` is empty for straight shapes."""

    rows: tuple[tuple[int, ...], ...]
    inner: tuple[int, ...] = ()

    def __post_init__(self):
        rows = tuple(tuple(int(e) for e in row) for row in self.rows)
        inner = tuple(Partition(self.inner))
        # Drop trailing rows that carry no cells; trim inner to match.
        while rows and not rows[-1]:
            rows = rows[:-1]
        inner = inner[: len(rows)]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "inner", inner)
        outer = self.outer
        if not Partition(outer).contains(Partition(inner)):
            raise ValueError(f"inner shape {inner} not inside outer {outer}")
        for row in rows:
            for e in row:
                if e < 1:
                    raise ValueError(f"entries must be positive, got {e}")

    @property
    def outer(self) -> Partition:
        parts = tuple(
            self.inner_part(i) + len(row) for i, row in enumerate(self.rows)
        )
        return Partition(parts)

    def inner_part(self, i: int) -> int:
        return self.inner[i] if i < len(self.inner) else 0

    @property
    def is_straight(self) -> bool:
        return not self.inner

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def max_entry(self) -> int:
        return max((e for row in self.rows for e in row), default=0)

    def entry(self, r: int, c: int) -> Optional[int]:
        """Entry at 0-based (r, c), or None if the cell is absent."""
        if 0 <= r < len(self.rows):
            k = c - self.inner_part(r)
            if 0 <= k < len(self.rows[r]):
                return self.rows[r][k]
        return None

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Yield (row, col, entry) in row-major order, 0-based."""
        for r, row in enumerate(self.rows):
            off = self.inner_part(r)
            for k, e in enumerate(row):
                yield r, off + k, e

    def reading_word(self) -> tuple[int, ...]:
        """Row-reading word: rows concatenated top to bottom."""
        return tuple(e for row in self.rows for e in row)

    def is_semistandard(self) -> bool:
        return _rows_semistandard(self.rows, self.inner)

    def is_standard(self) -> bool:
        if not self.is_semistandard():
            return False
        entries = sorted(self.reading_word())
        return entries == list(range(1, self.size + 1))

    def to_json(self) -> dict:
        obj: dict = {"rows": [list(row) for row in self.rows]}
        if self.inner:
            obj["inner"] = list(self.inner)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Tableau":
        return cls(
            rows=tuple(tuple(row) for row in obj["rows"]),
            inner=tuple(obj.get("inner", ())),
        )


@dataclass(frozen=True)
class Tabloid:
    """Rows-as-sets filling of a composition shape, partitioning {1..n}."""

    shape: tuple[int, ...]
    rows: tuple[frozenset[int], ...]

    def __post_init__(self):
        shape = tuple(Composition(self.shape))
        rows = tuple(frozenset(row) for row in self.rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        if len(rows) != len(shape):
            raise ValueError("row count does not match shape")
        n = sum(shape)
        seen: set[int] = set()
        for size, row in zip(shape, rows):
            if len(row) != size:
                raise ValueError(f"row {sorted(row)} does not have {size} entries")
            seen |= row
        if seen != set(range(1, n + 1)):
            raise ValueError(f"rows do not partition 1..{n}")

    @property
    def size(self) -> int:
        return sum(self.shape)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "rows": [sorted(row) for row in self.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Tabloid":
        return cls(
            shape=tuple(obj["shape"]),
            rows=tuple(frozenset(row) for row in obj["rows"]),
        )


def _rows_semistandard(rows: Rows, inner: tuple[int, ...] = ()) -> bool:
    """Whether ``rows`` fill a (skew) shape semistandardly.

    Row r starts in column ``inner[r]`` (0 past the end of ``inner``, so the
    default is a straight shape).  True when the outer shape is a partition,
    every entry is positive, rows weakly increase and columns strictly
    increase.  This is the one semistandard predicate: ``is_semistandard``
    and the post-conditions of the row kernels both call it.
    """
    above: tuple[int, ...] = ()
    above_off = above_end = 0
    for r, row in enumerate(rows):
        off = inner[r] if r < len(inner) else 0
        end = off + len(row)
        if r and end > above_end:
            return False
        if row and row[0] < 1:
            return False
        if not all(map(operator.le, row, row[1:])):
            return False
        # Column c is above[c - above_off] over row[c - off]; above_off >= off.
        if not all(map(operator.lt, above, row[above_off - off :])):
            return False
        above, above_off, above_end = row, off, end
    return True


def _straight_ssyt_rows(T: Tableau, what: str) -> Rows:
    """The rows of T once T is known to be a straight SSYT.

    The input check of every operation that hands rows to a row kernel;
    raises ValueError naming the operation otherwise.
    """
    if not T.is_straight:
        raise ValueError(f"{what} requires a straight shape")
    if not T.is_semistandard():
        raise ValueError(f"{what} requires a semistandard tableau")
    return T.rows


def _check_image(before: Rows, after: Rows, what: str) -> Rows:
    """Return ``after``, a kernel's image of ``before``, once it is known to
    be an SSYT of the same straight shape.

    A kernel's post-condition.  It raises AssertionError explicitly, so it
    holds under ``python -O`` too, and a broken invariant is not mistaken
    for malformed input.
    """
    same_shape = list(map(len, after)) == list(map(len, before))
    if not (same_shape and _rows_semistandard(after)):
        raise AssertionError(f"{what} of {before} is not an SSYT of its shape: {after}")
    return after


def content(T: Tableau, m: Optional[int] = None) -> Composition:
    """Entry-count vector (mu_1, ..., mu_m); m defaults to the max entry."""
    if m is None:
        m = T.max_entry
    counts = [0] * m
    for e in T.reading_word():
        if e > m:
            raise ValueError(f"entry {e} exceeds alphabet {m}")
        counts[e - 1] += 1
    return Composition(counts)


def restrict_entries(T: Tableau, window: Interval) -> Tableau:
    """Delete all cells whose entries lie outside [a, b].

    The result is skew in general: its inner shape is the shape of the
    cells with entries below a (together with T's own inner cells).
    """
    a, b = Interval(*window).validate_window()
    new_inner = []
    new_rows = []
    for i, row in enumerate(T.rows):
        below = sum(1 for e in row if e < a)
        mid = tuple(e for e in row if a <= e <= b)
        new_inner.append(T.inner_part(i) + below)
        new_rows.append(mid)
    return Tableau(rows=tuple(new_rows), inner=tuple(new_inner))


def dual_reflect(T: Tableau) -> Tableau:
    """Reflect a straight tableau along the main diagonal."""
    if not T.is_straight:
        raise ValueError("dual_reflect requires a straight shape")
    if not T.rows:
        return T
    width = len(T.rows[0])
    cols = []
    for c in range(width):
        col = tuple(row[c] for row in T.rows if c < len(row))
        cols.append(col)
    return Tableau(rows=tuple(cols))


def enumerate_syt(lam: Partition) -> list[Tableau]:
    """All standard tableaux of straight shape lam.

    Order: lexicographic on the row-reading word.
    """
    lam = Partition(lam)
    n = lam.size
    results: list[Tableau] = []
    rows: list[list[int]] = [[] for _ in lam]

    def place(value: int) -> None:
        if value > n:
            results.append(Tableau(rows=tuple(tuple(r) for r in rows)))
            return
        for i in range(len(lam)):
            c = len(rows[i])
            if c >= lam[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= c:
                continue
            rows[i].append(value)
            place(value + 1)
            rows[i].pop()

    if n == 0:
        return [Tableau(rows=())]
    place(1)
    results.sort(key=lambda t: t.reading_word())
    return results


def enumerate_ssyt(
    lam: Partition, m: int, content_filter: Optional[Composition] = None
) -> list[Tableau]:
    """All semistandard tableaux of straight shape lam with entries <= m.

    Order: lexicographic on the row-reading word.  With ``content_filter``
    only fillings of that exact content are returned.
    """
    lam = Partition(lam)
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if content_filter is not None:
        content_filter = Composition(content_filter)
        if content_filter.size != lam.size:
            return []
    results: list[Tableau] = []
    rows: list[list[int]] = [[] for _ in lam]
    remaining = list(content_filter) if content_filter is not None else None

    def cell_after(r: int, c: int) -> Optional[tuple[int, int]]:
        if c + 1 < lam[r]:
            return (r, c + 1)
        if r + 1 < len(lam) and lam[r + 1] > 0:
            return (r + 1, 0)
        return None

    def fill(pos: Optional[tuple[int, int]]) -> None:
        if pos is None:
            results.append(Tableau(rows=tuple(tuple(r) for r in rows)))
            return
        r, c = pos
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for e in range(lo, m + 1):
            if remaining is not None:
                if e > len(remaining) or remaining[e - 1] == 0:
                    continue
                remaining[e - 1] -= 1
            rows[r].append(e)
            fill(cell_after(r, c))
            rows[r].pop()
            if remaining is not None:
                remaining[e - 1] += 1

    if lam.size == 0:
        return [Tableau(rows=())]
    fill((0, 0))
    return results


def enumerate_tabloids(mu: Composition) -> list[Tabloid]:
    """All set-partitions of {1..n} into rows of the prescribed sizes."""
    mu = Composition(mu)
    n = mu.size
    results: list[Tabloid] = []

    def assign(i: int, remaining: frozenset[int], rows: list[frozenset[int]]):
        if i == len(mu):
            results.append(Tabloid(shape=mu, rows=tuple(rows)))
            return
        for combo in itertools.combinations(sorted(remaining), mu[i]):
            rows.append(frozenset(combo))
            assign(i + 1, remaining - frozenset(combo), rows)
            rows.pop()

    assign(0, frozenset(range(1, n + 1)), [])
    return results


def permutation_act_tabloid(w: Permutation, P: Tabloid) -> Tabloid:
    """Relabel each entry e by w(e)."""
    if w.degree != P.size:
        raise ValueError(
            f"permutation degree {w.degree} != tabloid size {P.size}"
        )
    return Tabloid(
        shape=P.shape,
        rows=tuple(frozenset(w(e) for e in row) for row in P.rows),
    )


@lru_cache(maxsize=None)
def syt_tuple(lam: tuple[int, ...]) -> tuple[Tableau, ...]:
    """Cached tuple form of :func:`enumerate_syt`."""
    return tuple(enumerate_syt(Partition(lam)))


@lru_cache(maxsize=None)
def ssyt_tuple(lam: tuple[int, ...], m: int) -> tuple[Tableau, ...]:
    """Cached tuple form of :func:`enumerate_ssyt`."""
    return tuple(enumerate_ssyt(Partition(lam), m))


__all__ = [
    "Tableau",
    "Tabloid",
    "content",
    "restrict_entries",
    "dual_reflect",
    "enumerate_syt",
    "enumerate_ssyt",
    "enumerate_tabloids",
    "permutation_act_tabloid",
    "syt_tuple",
    "ssyt_tuple",
    "conjugate",
]
