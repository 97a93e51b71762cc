"""Gelfand-Tsetlin patterns, the tableau bijection, and row operators.

Index convention (matching the triangular layout)::

    row n:      L(1,n)  L(2,n)  ...  L(n,n)      <- top row, the full shape
    row n-1:      L(1,n-1)  ...  L(n-1,n-1)
    ...
    row 1:              L(1,1)

``rows[j-1]`` stores row j, which has j entries; L(i,j) = rows[j-1][i-1].
Row j of the pattern of a tableau T is the shape of the sub-tableau of
entries <= j, padded with zeros to length j.  Entries interlace:
L(i,j+1) >= L(i,j) >= L(i+1,j+1).
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from typing import Iterator

from .shapes import value_type
from .tableaux import (
    Rows,
    Tableau,
    _check_image,
    _rows_semistandard,
    _straight_ssyt_rows,
)


@value_type
class GTPattern:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(operator.index, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        for j, row in enumerate(rows, start=1):
            if len(row) != j:
                raise ValueError(f"row {j} must have {j} entries, got {row}")
            if any(x < 0 for x in row):
                raise ValueError("pattern entries must be nonnegative")
        for j in range(1, len(rows)):
            lower, upper = rows[j - 1], rows[j]
            for i in range(j):
                if not upper[i] >= lower[i] >= upper[i + 1]:
                    raise ValueError(
                        f"interlacing violated between rows {j} and {j + 1}"
                    )

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """L(i, j), with zero outside the triangle (i > j)."""
        if not 1 <= j <= self.n:
            raise IndexError(f"row {j} out of range")
        if i < 1:
            raise IndexError(f"column {i} out of range")
        return self.rows[j - 1][i - 1] if i <= j else 0

    def to_json(self) -> dict:
        return {"rows": [list(row) for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "GTPattern":
        return cls(rows=tuple(tuple(row) for row in obj["rows"]))


@value_type
class Strip:
    """A strip of the two-letter sub-tableau at level k.

    ``low``/``high`` count the k- and (k+1)-boxes; ``start_col`` is the
    1-based column of the leftmost box.
    """

    row: int
    start_col: int
    low: int
    high: int
    level: int


@value_type
class StripRectangle:
    """A k-row directly atop a (k+1)-row of equal span."""

    row: int
    start_col: int
    width: int
    level: int


def to_pattern(T: Tableau, n: int) -> GTPattern:
    """The pattern whose row j is the shape of T restricted to 1..j."""
    rows = _straight_ssyt_rows(T, "a GT pattern", n)
    # Row r of an SSYT holds no entry below r + 1, so rows[j:] hold none <= j.
    pattern = []
    for j in range(1, n + 1):
        shape = tuple(bisect_right(row, j) for row in rows[:j])
        pattern.append(shape + (0,) * (j - len(shape)))
    return GTPattern(rows=tuple(pattern))


def from_pattern(P: GTPattern) -> Tableau:
    """The unique semistandard tableau with the prescribed restriction shapes."""
    n = P.n
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(i, n + 1):
            prev = P.entry(i, j - 1) if j > 1 else 0
            row.extend([j] * (P.entry(i, j) - prev))
        rows.append(tuple(row))
    if not _rows_semistandard(rows):
        raise AssertionError(f"pattern {P.rows} gave a non-semistandard filling {rows}")
    return Tableau(rows=tuple(rows))


def _tau_bounds(P: GTPattern, i: int, k: int) -> tuple[int, int]:
    """The (a, b) = (min, max) pair at position (i, k), with edge rules."""
    a = P.entry(1, k + 1) if i == 1 else min(
        P.entry(i, k + 1), P.entry(i - 1, k - 1)
    )
    b = P.entry(k + 1, k + 1) if i == k else max(
        P.entry(i, k - 1), P.entry(i + 1, k + 1)
    )
    return a, b


def bk_tau(P: GTPattern, k: int) -> GTPattern:
    """The row-k reflection L(i,k) -> a + b - L(i,k); other rows fixed."""
    if not 1 <= k <= P.n - 1:
        raise ValueError(f"k must be in 1..{P.n - 1}")
    new_row = []
    for i in range(1, k + 1):
        a, b = _tau_bounds(P, i, k)
        new_row.append(a + b - P.entry(i, k))
    rows = list(P.rows)
    rows[k - 1] = tuple(new_row)
    return GTPattern(rows=tuple(rows))


def strip_location(P: GTPattern, i: int, k: int) -> Strip:
    """The strip in tableau row i at level k, read off the pattern."""
    i, k = operator.index(i), operator.index(k)
    if not 1 <= k <= P.n - 1:
        raise ValueError(f"k must be in 1..{P.n - 1}")
    if not 1 <= i <= k:
        raise ValueError(f"row index {i} out of range for level {k}")
    a, b = _tau_bounds(P, i, k)
    lam = P.entry(i, k)
    return Strip(row=i, start_col=b + 1, low=lam - b, high=a - lam, level=k)


def _free_spans(rows: Rows, k: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(r, lo, fl, mid, fh) for each 0-based row r of a straight SSYT that
    holds k or k + 1.

    In row r the k-boxes are columns lo..mid-1 and the (k+1)-boxes
    mid..hi-1.  A k-box is bound when a (k+1)-box sits directly below it,
    a (k+1)-box when a k-box sits directly above it.  Column strictness
    makes the bound k-boxes a prefix lo..fl-1 of their block and the bound
    (k+1)-boxes a suffix fh..hi-1 of theirs, so the free boxes are the one
    span fl..fh-1: k's up to mid, then (k+1)'s.  Column strictness also
    makes the rows' first entries increase, so once a row starts above
    k + 1, no row from there down holds k or k + 1: the blocks stop at the
    first such row, which is row k + 1 at the latest.
    """
    k1 = k + 1
    blocks = []
    for row in rows:
        if row[0] > k1:
            break
        blocks.append(
            (bisect_left(row, k), bisect_left(row, k1), bisect_right(row, k1))
        )
    for r, (lo, mid, hi) in enumerate(blocks):
        if lo == hi:
            continue
        below_hi = blocks[r + 1][2] if r + 1 < len(blocks) else 0
        above_lo = blocks[r - 1][0] if r else hi
        yield r, lo, max(lo, min(mid, below_hi)), mid, min(hi, max(mid, above_lo))


def strip_decomposition(
    T: Tableau, k: int
) -> tuple[tuple[Strip, ...], tuple[StripRectangle, ...]]:
    """Split the k/(k+1) sub-tableau into strips and rectangles.

    Strips are listed top to bottom (increasing row index); rows whose
    k/(k+1) boxes are entirely covered by rectangles contribute no strip.
    The bound k-boxes of a row and the (k+1)-boxes below them form one
    rectangle.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = _straight_ssyt_rows(T, "strip decomposition")
    strips = []
    rectangles = []
    for r, lo, fl, mid, fh in _free_spans(rows, k):
        if fh > fl:
            strips.append(
                Strip(row=r + 1, start_col=fl + 1, low=mid - fl, high=fh - mid, level=k)
            )
        if fl > lo:
            rectangles.append(
                StripRectangle(row=r + 1, start_col=lo + 1, width=fl - lo, level=k)
            )
    return tuple(strips), tuple(rectangles)


def strip_swap(T: Tableau, k: int) -> Tableau:
    """Replace each strip of type (a, b) by one of type (b, a).

    This is the tableau form of the row operator: rectangles are left
    alone, so the result is again semistandard of the same shape.  The
    input is checked once, :func:`_swap_rows` does the work and its
    post-condition is checked in every run mode.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = _straight_ssyt_rows(T, "strip swap")
    return Tableau._unchecked(_check_image(rows, _swap_rows(rows, k), "strip swap"))


def _swap_rows(rows: Rows, k: int) -> Rows:
    """The strip-swap kernel on the rows of a straight SSYT; no checks.

    Each row's free span of a k's and then b (k+1)'s becomes b k's and then
    a (k+1)'s; nothing else changes.
    """
    out = list(rows)
    for r, _, fl, mid, fh in _free_spans(rows, k):
        low, high = mid - fl, fh - mid
        if low != high:
            row = rows[r]
            out[r] = row[:fl] + (k,) * high + (k + 1,) * low + row[fh:]
    return tuple(out)

