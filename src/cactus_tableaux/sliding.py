"""Jeu de taquin, promotion and the (partial) Schutzenberger involutions.

All operations are pure functions on immutable tableaux.  The slide
comparison rule: a hole with east entry i and south entry j swaps east
when i < j and south otherwise, so equal entries go south; this is what
keeps columns strict.
"""

from __future__ import annotations

from typing import Callable, Optional

from .shapes import Interval
from .tableaux import Rows, Tableau, _check_image, _straight_ssyt_rows

Cell = tuple[int, int]
ChoicePolicy = Callable[[list[Cell]], Cell]


def _southeast_most(boxes: list[Cell]) -> Cell:
    return max(boxes, key=lambda rc: (rc[0] + rc[1], rc[0]))


def _to_grid(T: Tableau) -> dict[Cell, int]:
    return {(r, c): e for r, c, e in T.cells()}


def _grid_to_tableau(grid: dict[Cell, int], inner: list[int]) -> Tableau:
    nrows = max((r for r, _ in grid), default=-1) + 1
    rows = []
    for r in range(nrows):
        cols = sorted(c for (rr, c) in grid if rr == r)
        off = inner[r] if r < len(inner) else 0
        if cols != list(range(off, off + len(cols))):
            raise AssertionError(f"row {r} of the grid is not contiguous: {cols}")
        rows.append(tuple(grid[(r, c)] for c in cols))
    return Tableau(rows=tuple(rows), inner=tuple(inner[:nrows]))


def _movable_boxes(inner: list[int]) -> list[Cell]:
    """Removable corners of the inner shape, as 0-based cells."""
    boxes = []
    for r, p in enumerate(inner):
        if p > 0 and (r + 1 >= len(inner) or inner[r + 1] < p):
            boxes.append((r, p - 1))
    return boxes


def _slide_hole(grid: dict[Cell, int], start: Cell) -> Cell:
    """Slide one hole from ``start`` until no east/south neighbour remains."""
    r, c = start
    while True:
        east = grid.get((r, c + 1))
        south = grid.get((r + 1, c))
        if east is None and south is None:
            return (r, c)
        if south is None or (east is not None and east < south):
            target = (r, c + 1)
        else:
            target = (r + 1, c)
        grid[(r, c)] = grid.pop(target)
        r, c = target


def jdt_rectify(T: Tableau, choice_policy: Optional[ChoicePolicy] = None) -> Tableau:
    """Rectify a semistandard skew tableau to a straight one."""
    if not T.is_semistandard():
        raise ValueError("jdt requires a semistandard tableau")
    policy = choice_policy or _southeast_most
    grid = _to_grid(T)
    inner = list(T.inner)
    while any(inner):
        boxes = _movable_boxes(inner)
        box = policy(sorted(boxes))
        if box not in boxes:
            raise ValueError(f"choice policy returned non-movable box {box}")
        inner[box[0]] -= 1
        _slide_hole(grid, box)
    while inner and inner[-1] == 0:
        inner.pop()
    out = _grid_to_tableau(grid, inner)
    if not (out.is_straight and out.is_semistandard()):
        raise AssertionError(f"rectification of {T} gave {out}")
    return out


def jdt_all_rectifications(T: Tableau) -> set[Tableau]:
    """Rectify along every distinct order of movable-box choices.

    Confluence predicts a singleton result set; this is the lever used to
    test that claim.
    """
    if not T.is_semistandard():
        raise ValueError("jdt requires a semistandard tableau")
    seen: dict[tuple, set[Tableau]] = {}

    def key(grid: dict[Cell, int], inner: tuple[int, ...]) -> tuple:
        return (inner, tuple(sorted(grid.items())))

    def explore(grid: dict[Cell, int], inner: list[int]) -> set[Tableau]:
        k = key(grid, tuple(inner))
        if k in seen:
            return seen[k]
        if not any(inner):
            trimmed = [p for p in inner if p]
            out = {_grid_to_tableau(grid, trimmed)}
        else:
            out = set()
            for box in _movable_boxes(inner):
                g2 = dict(grid)
                i2 = list(inner)
                i2[box[0]] -= 1
                _slide_hole(g2, box)
                out |= explore(g2, i2)
        seen[k] = out
        return out

    return explore(_to_grid(T), list(T.inner))


def promotion(T: Tableau, m: int) -> Tableau:
    """One promotion step on a straight semistandard tableau over 1..m.

    The whole-alphabet case of :func:`bounded_promotion`: every entry lies
    in the window, so every vacated outer cell is relabelled m.
    """
    if T.max_entry > m:
        raise ValueError(f"entries exceed alphabet {m}")
    return bounded_promotion(T, m)


def bounded_promotion(T: Tableau, k: int) -> Tableau:
    """Promotion applied to the sub-tableau of entries <= k, in place.

    A k beyond the largest entry present is still well defined: the window
    is the whole tableau.  The input is checked once, :func:`_promote_rows`
    does the work and its post-condition is checked in every run mode.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return Tableau(_promoted(_straight_ssyt_rows(T, "bounded promotion"), k))


def _promote_rows(rows: Rows, k: int) -> Rows:
    """The bounded-promotion kernel on the rows of a straight SSYT; no checks.

    One jeu-de-taquin pass: the cells with entries 2..k (found in rows
    0..k-1 only) form the grid, and cells with larger entries stay out of
    it, so no hole slides through them.  The 1s, a prefix of row 0, become
    holes that slide out rightmost first, each the only removable inner
    corner when it moves.  Only then do the surviving entries drop by one
    and the vacated cells take k.
    """
    grid = {
        (r, c): e
        for r, row in enumerate(rows[:k])
        for c, e in enumerate(row)
        if 1 < e <= k
    }
    ones = rows[0].count(1) if rows else 0
    vacated = [_slide_hole(grid, (0, c)) for c in reversed(range(ones))]
    out = [list(row) for row in rows]
    for (r, c), e in grid.items():
        out[r][c] = e - 1
    for r, c in vacated:
        out[r][c] = k
    return tuple(map(tuple, out))


def _promoted(rows: Rows, k: int) -> Rows:
    """pr_k on rows, with its post-condition."""
    return _check_image(rows, _promote_rows(rows, k), "bounded promotion")


def _evacuate_rows(rows: Rows, k: int) -> Rows:
    """xi_[1,k] on rows: pr_k, then pr_{k-1}, ..., down to pr_2.

    pr_1 is the identity (its window holds only 1s), so it is not run.
    """
    for j in range(k, 1, -1):
        rows = _promoted(rows, j)
    return rows


def _interval_rows(rows: Rows, a: int, b: int) -> Rows:
    """xi_[a,b] on rows, by its definition xi_[1,b] xi_[1,b-a+1] xi_[1,b]."""
    for k in (b, b - a + 1, b):
        rows = _evacuate_rows(rows, k)
    return rows


def evacuation(T: Tableau, m: Optional[int] = None) -> Tableau:
    """The Schutzenberger involution on alphabet 1..m.

    Computed as the chain of bounded promotions with the largest window
    applied first; m defaults to the largest entry present.
    """
    if m is None:
        m = T.max_entry
    if T.max_entry > m:
        raise ValueError(f"entries exceed alphabet {m}")
    return Tableau(_evacuate_rows(_straight_ssyt_rows(T, "evacuation"), m))


def partial_evacuation(T: Tableau, k: int) -> Tableau:
    """Schutzenberger involution on the entries 1..k, in place."""
    if k < 2:
        raise ValueError("partial evacuation needs k >= 2")
    return Tableau(_evacuate_rows(_straight_ssyt_rows(T, "partial evacuation"), k))


def interval_evacuation(T: Tableau, J: Interval) -> Tableau:
    """The interval involution: xi[1,b] then xi[1,b-a+1] then xi[1,b]."""
    a, b = Interval(*J)
    if not 1 <= a < b:
        raise ValueError(f"invalid interval [{a},{b}]")
    rows = _straight_ssyt_rows(T, "interval evacuation")
    return Tableau(_interval_rows(rows, a, b))


__all__ = [
    "jdt_rectify",
    "jdt_all_rectifications",
    "promotion",
    "bounded_promotion",
    "evacuation",
    "partial_evacuation",
    "interval_evacuation",
]
