"""Jeu de taquin, promotion and the (partial) Schutzenberger involutions.

All operations are pure functions on immutable tableaux.  The slide
comparison rule: a hole with east entry i and south entry j swaps east
when i < j and south otherwise, so equal entries go south; this is what
keeps columns strict.  Promotion slides; the involutions xi_[1,k] do not:
they run one pass of row insertions (:func:`_evacuate_rows`), which gives
what the chain of bounded promotions pr_k, ..., pr_2 would.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from typing import Optional

from .shapes import Interval
from .tableaux import Rows, Tableau, _check_image, _straight_ssyt_rows

Cell = tuple[int, int]


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


def jdt_rectify(T: Tableau) -> Tableau:
    """Rectify a semistandard skew tableau to a straight one, each slide
    starting at the southeast-most movable box."""
    if not T.is_semistandard():
        raise ValueError("jdt requires a semistandard tableau")
    grid = _to_grid(T)
    inner = list(T.inner)
    while any(inner):
        box = _southeast_most(_movable_boxes(inner))
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

    out = explore(_to_grid(T), list(T.inner))
    del explore  # break explore's cycle through its closure, which holds ``seen``
    return out


def promotion(T: Tableau, m: int) -> Tableau:
    """One promotion step on a straight semistandard tableau over 1..m.

    The whole-alphabet case of :func:`bounded_promotion`: every entry lies
    in the window, so every vacated outer cell is relabelled m.
    """
    m = operator.index(m)
    rows = _straight_ssyt_rows(T, "bounded promotion", m)
    if m < 1:  # only the empty tableau has no entry above m < 1
        raise ValueError("k must be >= 1")
    return Tableau._unchecked(
        _check_image(rows, _promote_rows(rows, m), "bounded promotion")
    )


def bounded_promotion(T: Tableau, k: int) -> Tableau:
    """Promotion applied to the sub-tableau of entries <= k, in place.

    A k beyond the largest entry present is still well defined: the window
    is the whole tableau.  The input is checked once, :func:`_promote_rows`
    does the work and its post-condition is checked in every run mode.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = _straight_ssyt_rows(T, "bounded promotion")
    return Tableau._unchecked(
        _check_image(rows, _promote_rows(rows, k), "bounded promotion")
    )


def _promote_rows(rows: Rows, k: int) -> Rows:
    """The bounded-promotion kernel on the rows of a straight SSYT; no checks.

    One jeu-de-taquin pass on a grid of lists: the window rows, each cut at
    its first entry above k, so the cells with larger entries stay out of
    the grid and no hole slides through them.  Columns strictly increase,
    so the first entries of the rows do too: once a row starts above k, so
    does every row below, and the grid stops there.  The grid holds each
    entry less one, which changes no comparison.  The 1s, a prefix of
    row 0, become holes that slide out rightmost first, each the only
    removable inner corner when it moves.  A hole stops at the last live
    cell of its row, so each grid row keeps one live length, and its cells
    past that length are the vacated ones, which take k.  Only the window
    rows are rebuilt.
    """
    grid = []
    for row in rows:
        cut = bisect_right(row, k)
        if not cut:
            break
        grid.append([e - 1 for e in row[:cut]])
    depth = len(grid)
    if not depth:
        return rows
    live = [len(cells) for cells in grid]
    for start in reversed(range(bisect_right(rows[0], 1))):
        r, c, cells = 0, start, grid[0]
        while True:
            east = c + 1 < live[r]
            if r + 1 < depth and c < live[r + 1]:
                below = grid[r + 1]
                if not (east and cells[c + 1] < below[c]):
                    cells[c] = below[c]
                    r, cells = r + 1, below
                    continue
            if not east:
                break
            cells[c] = cells[c + 1]
            c += 1
        live[r] = c
    rebuilt = []
    for cells, n, row in zip(grid, live, rows):
        cells[n:] = [k] * (len(cells) - n)
        rebuilt.append((*cells, *row[len(cells) :]))
    return (*rebuilt, *rows[depth:])


def _evacuate_rows(rows: Rows, k: int) -> Rows:
    """The partial-evacuation kernel xi_[1,k] on the rows of a straight
    SSYT; no checks.

    The window of entries <= k is a straight SSYT S in the top rows, and
    evac(S) is the rectification of S rotated by 180 degrees with each
    entry x complemented to k+1-x (Schutzenberger).  That rectification is
    the insertion tableau of the rotated word: the window read top row
    first, each row right to left, complemented, and row-inserted into P.
    Columns strictly increase, so once a row holds no entry <= k, neither
    does any row below: the reading stops at the first such row.  The
    window rows are rebuilt as P's rows followed by the entries > k, which
    stay in place; the rows below are kept as they are.  A P of the wrong
    shape changes some row's length, as P holds as many entries as the
    window.
    """
    P: list[list[int]] = []
    cuts = []
    for row in rows:
        cut = bisect_right(row, k)
        if not cut:
            break
        cuts.append(cut)
        for x in reversed(row[:cut]):
            x = k + 1 - x
            for prow in P:
                j = bisect_right(prow, x)
                if j == len(prow):
                    prow.append(x)
                    break
                prow[j], x = x, prow[j]
            else:
                P.append([x])
    rebuilt = tuple(tuple(prow) + row[cut:] for prow, row, cut in zip(P, rows, cuts))
    return rebuilt + rows[len(P) :]


def evacuation(T: Tableau, m: Optional[int] = None) -> Tableau:
    """The Schutzenberger involution on alphabet 1..m.

    Computed in one pass of row insertions, :func:`_evacuate_rows` with
    window m; m defaults to the largest entry present.
    """
    m = T.max_entry if m is None else operator.index(m)
    rows = _straight_ssyt_rows(T, "evacuation", m)
    return Tableau._unchecked(_check_image(rows, _evacuate_rows(rows, m), "evacuation"))


def partial_evacuation(T: Tableau, k: int) -> Tableau:
    """Schutzenberger involution on the entries 1..k, in place.

    One pass of :func:`_evacuate_rows`; the entries > k stay where they are.
    """
    k = operator.index(k)
    if k < 2:
        raise ValueError("partial evacuation needs k >= 2")
    rows = _straight_ssyt_rows(T, "partial evacuation")
    return Tableau._unchecked(_check_image(rows, _evacuate_rows(rows, k), "evacuation"))


def interval_evacuation(T: Tableau, J: Interval) -> Tableau:
    """The interval involution: xi[1,b] then xi[1,b-a+1] then xi[1,b].

    Checked passes of :func:`_evacuate_rows`: three, or one if a = 1, as xi^2 = 1.
    """
    a, b = Interval(*map(operator.index, J))
    if not 1 <= a < b:
        raise ValueError(f"invalid interval [{a},{b}]")
    rows = _straight_ssyt_rows(T, "interval evacuation")
    for k in (b,) if a == 1 else (b, b - a + 1, b):
        rows = _check_image(rows, _evacuate_rows(rows, k), "evacuation")
    return Tableau._unchecked(rows)
