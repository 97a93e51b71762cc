"""Tableaux and tabloids: the data model, validation and enumeration.

A tableau is stored as its inner shape plus the row entry sequences, so a
single type covers both straight and skew shapes.  Cells are addressed by
0-based (row, column) pairs internally; entry values are positive
integers.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Iterator, Optional

from .shapes import Composition, Interval, Partition, Permutation, value_type

Rows = tuple[tuple[int, ...], ...]


@value_type
class Tableau:
    """A (possibly skew) filling; ``inner`` is empty for straight shapes."""

    rows: tuple[tuple[int, ...], ...]
    inner: tuple[int, ...] = ()

    def __post_init__(self):
        rows = tuple(tuple(map(operator.index, row)) for row in self.rows)
        inner = tuple(Partition(self.inner)) if self.inner else ()
        # Drop trailing rows that carry no cells; trim inner to match.
        while rows and not rows[-1]:
            rows = rows[:-1]
        inner = inner[: len(rows)]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "inner", inner)
        # Building the outer shape checks that it is a partition.  It then
        # contains inner: row i ends at inner[i] + len(rows[i]) >= inner[i],
        # and inner is no longer than rows.
        self.outer
        for row in rows:
            if row and min(row) < 1:
                bad = next(e for e in row if e < 1)
                raise ValueError(f"entries must be positive, got {bad}")

    @classmethod
    def _unchecked(cls, rows: Rows) -> "Tableau":
        """Wrap the rows of a straight SSYT already known to be valid.

        For a kernel's image only, once ``_check_image`` has accepted it as
        the image of a validated straight input: its rows then hold exact
        ints, end in no empty row and fill a partition semistandardly.
        Every other tableau goes through ``__post_init__``.
        """
        T = object.__new__(cls)
        object.__setattr__(T, "rows", rows)
        object.__setattr__(T, "inner", ())
        return T

    @property
    def outer(self) -> Partition:
        inner = self.inner + (0,) * (len(self.rows) - len(self.inner))
        return Partition(map(operator.add, inner, map(len, self.rows)))

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
        return max(map(max, filter(None, self.rows)), default=0)

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


@value_type
class Tabloid:
    """Rows-as-sets filling of a composition shape, partitioning {1..n}."""

    shape: tuple[int, ...]
    rows: tuple[frozenset[int], ...]

    def __post_init__(self):
        shape = tuple(Composition(self.shape))
        rows = tuple(frozenset(map(operator.index, row)) for row in self.rows)
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
    and the post-conditions of the row kernels both call it.  The kernels
    stop at the last row their window reaches; the post-condition still
    reads every row of every image.

    A straight shape needs no column offsets, and its smallest entry is
    ``rows[0][0]``: rows weakly increase and each entry lies below a smaller
    one, so that one entry is the positivity test.
    """
    if not inner:
        it = iter(rows)
        above = next(it, ())
        if above and above[0] < 1 or not all(map(operator.le, above, above[1:])):
            return False
        for row in it:
            if len(row) > len(above) or not all(map(operator.le, row, row[1:])):
                return False
            if not all(map(operator.lt, above, row)):
                return False
            above = row
        return True
    above: tuple[int, ...] = ()
    above_off = above_end = 0
    depth = len(inner)
    for r, row in enumerate(rows):
        off = inner[r] if r < depth else 0
        end = off + len(row)
        if r and end > above_end:
            return False
        if row and row[0] < 1:
            return False
        if not all(map(operator.le, row, row[1:])):
            return False
        # Column c is above[c - above_off] over row[c - off]; above_off >= off.
        below = row if off == above_off else row[above_off - off :]
        if not all(map(operator.lt, above, below)):
            return False
        above, above_off, above_end = row, off, end
    return True


def _straight_ssyt_rows(T: Tableau, what: str, m: Optional[int] = None) -> Rows:
    """The rows of T once T is known to be a straight SSYT, over 1..m if m
    is given.

    The one input check of every operation that hands rows to a row kernel.
    It raises ValueError: first if an entry exceeds m, then, naming the
    operation, if T is not a straight SSYT.
    """
    rows = T.rows
    if m is not None and T.max_entry > m:
        raise ValueError(f"entries exceed alphabet {m}")
    if T.inner:
        raise ValueError(f"{what} requires a straight shape")
    if not _rows_semistandard(rows):
        raise ValueError(f"{what} requires a semistandard tableau")
    return rows


def _check_image(before: Rows, after: Rows, what: str) -> Rows:
    """Return ``after``, a kernel's image of ``before``, once it is known to
    be an SSYT of the same straight shape.

    A kernel's post-condition.  It raises AssertionError explicitly, so it
    holds under ``python -O`` too, and a broken invariant is not mistaken
    for malformed input.  With ``before`` a validated straight SSYT, an
    accepted image may become a ``Tableau`` through ``Tableau._unchecked``.
    """
    if not ([*map(len, after)] == [*map(len, before)] and _rows_semistandard(after)):
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
    a, b = Interval(*map(operator.index, window)).validate_window()
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


def _content_rows(lam: tuple[int, ...], counts: tuple[int, ...]) -> list[Rows]:
    """The rows of every SSYT of straight shape lam in which value i occurs
    counts[i - 1] times; with counts (1^n), of every standard tableau.

    The entries are placed in increasing order, each at the end of a row
    shorter than its part and than the row above.  Each copy of a value
    goes in a row at or above the previous copy, so each horizontal strip
    is built once and the cell above a copy holds a smaller value.  Sorting
    the row tuples, all of one shape, orders them by row-reading word.
    """
    n, depth = sum(lam), len(lam)
    if sum(counts) != n or depth > len(counts):
        return []  # another size, or a column longer than the alphabet
    values = [v for v, c in enumerate(counts, 1) for _ in range(c)] + [0]
    rows: list[list[int]] = [[] for _ in lam]
    # spans[d]: (r, row, part) for each of the top d rows.
    spans = [[*zip(range(d), rows, lam)] for d in range(depth + 1)]
    out: list[Rows] = []

    def place(i: int, top_rows: int) -> None:
        if i == n:
            out.append(tuple(map(tuple, rows)))
            return
        value = values[i]
        repeat = values[i + 1] == value
        above = n  # the length of the row above; row 0 has none
        for r, row, length in spans[top_rows]:
            c = len(row)
            if c < length and c < above:
                row.append(value)
                place(i + 1, r + 1 if repeat else depth)
                row.pop()
            above = c

    place(0, depth)
    # place refers to itself through its closure, and that cycle holds
    # ``out``: deleting the name breaks it, so the rows are freed with the
    # domain and not at the next cyclic collection.
    del place
    out.sort()
    return out


def _ssyt_rows(
    lam: tuple[int, ...], m: int
) -> tuple[list[Rows], list[int], tuple[int, ...]]:
    """SSYT(lam, m), the semistandard tableaux of straight shape lam over
    1..m: the rows and the Gelfand-Tsetlin key of each, and the cuts of
    those keys, as ``_keyed_domain`` documents them.

    Order: lexicographic on the row-reading word, as the cells are filled
    in reading order with each entry tried in increasing order.  A cell gets
    no entry that would leave too few values for the column below it, so
    every partial filling extends, and a column longer than m gets none.
    An entry e placed in row i adds 1 to L(i, j) for each e <= j < m, so
    the fill adds that tabled sum of digit weights to the key.
    """
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    cols = _column_lengths(lam)
    cells = [(r, c) for r, length in enumerate(lam) for c in range(length)]
    # The largest entry of each cell: the column below it needs distinct
    # larger values.
    top = [m - cols[c] + r + 1 for r, c in cells]
    cuts = [1]
    for j in range(1, m):
        cuts.append(cuts[-1] * math.prod(part + 1 for part in lam[:j]))
    cuts.append(cuts[-1])  # the top row m is lam and has no digit
    # Digit (i, j) weighs cuts[j - 1] times the radices of the rows above i;
    # tails[e], e >= 1, is the sum of cuts[j - 1] over e <= j < m.
    tails = [0, *(sum(cuts[e - 1 : m - 1]) for e in range(1, m + 1))]
    radices = itertools.accumulate((p + 1 for p in lam[:-1]), operator.mul, initial=1)
    gains = [[radix * tail for tail in tails] for radix in radices]
    rows: list[list[int]] = [[] for _ in lam]
    out: list[Rows] = []
    keys: list[int] = []

    def fill(i: int, key: int) -> None:
        if i == len(cells):
            out.append(tuple(map(tuple, rows)))
            keys.append(key)
            return
        r, c = cells[i]
        row, gain = rows[r], gains[r]
        lo = row[c - 1] if c else 1
        if r and rows[r - 1][c] >= lo:
            lo = rows[r - 1][c] + 1
        for e in range(lo, top[i] + 1):
            row.append(e)
            fill(i + 1, key + gain[e])
            row.pop()

    fill(0, 0)
    del fill  # break fill's cycle through its closure, as in _content_rows
    return out, keys, tuple(cuts)


def _column_lengths(lam: tuple[int, ...]) -> list[int]:
    """The column lengths of the shape lam, counted from the bottom row up:
    the columns that row r (from 1) has beyond the rows below it have
    length r."""
    cols: list[int] = []
    for depth in range(len(lam), 0, -1):
        cols += [depth] * (lam[depth - 1] - len(cols))
    return cols


def _hook_lengths(lam: tuple[int, ...]) -> list[int]:
    cols = _column_lengths(lam)
    return [
        length - c + cols[c] - r - 1
        for r, length in enumerate(lam)
        for c in range(length)
    ]


def _syt_count(lam: tuple[int, ...]) -> int:
    """|SYT(lam)| by the hook-length formula, without enumerating."""
    return math.factorial(sum(lam)) // math.prod(_hook_lengths(lam))


def _ssyt_count(lam: tuple[int, ...], m: int) -> int:
    """|SSYT(lam, m)| by the hook-content formula, without enumerating."""
    contents = (m + c - r for r, n in enumerate(lam) for c in range(n))
    return math.prod(contents) // math.prod(_hook_lengths(lam))


# A domain (lam, m) belongs to one verify shard, so every cache keyed by a
# domain lives for one shard.  The list holds the lru objects themselves,
# bound at decoration: a wrapper later set on a module attribute has no
# cache_clear.
_DOMAIN_CACHES: list = []


def _per_domain(fn):
    """Cache fn, whose first parameter is a domain's shape, for one shard."""
    cache = lru_cache(maxsize=None)(fn)
    _DOMAIN_CACHES.append(cache)
    return cache


def _drop_domains() -> None:
    """Empty the domain index and every permutation built on a domain."""
    for cache in _DOMAIN_CACHES:
        cache.cache_clear()


@_per_domain
def _syt_keys(lam: tuple[int, ...]) -> tuple[list[int], list[int], dict[int, int]]:
    """SYT(lam) as (keys, below, position): the row-word keys and the below
    masks, one int per tableau in the order of its domain index, and each
    key mapped to its 1-based position, as ``Permutation`` images are.

    The key of T reads its row word as one int: the digit of x is row(x),
    of weight d^(x-1) in base d = max(len(lam), 2).  Bit x of T's below
    mask is set when x sits directly below x - 1.  ``_syt_rows_of`` decodes
    a key's rows; no row tuple is built here.

    The values 1..n are placed one at a time, each at the end of a row
    shorter than its part and than the row above, as ``_content_rows``
    places content (1^n).  Each placement also updates an order key.  Let
    B_r be the n-bit mask with bit n - x set exactly when x is not in row
    r.  Two rows r of one shape first differ at some value y, which one of
    them holds: both hold the same values below y, so their masks agree
    above bit n - y, and the row holding y, the lexicographically smaller,
    has that bit clear.  So the order of row r's tuples is the numeric
    order of B_r, and the index order, lexicographic on the rows, is the
    numeric order of (B_0, B_1, ...), read as one int with B_0 highest:
    one sort on it gives the index order.

    Its post-condition, checked in every run mode: the position dict has
    as many keys as the hook-length formula counts.  The t_k builds and
    the main theorem read this build only; ``_keyed_domain`` reuses its
    position dict.
    """
    n, depth = sum(lam), len(lam)
    d = max(depth, 2)
    # Placing x in row r adds r d^(x-1) to the key and clears bit n - x of
    # B_r, which starts at bit (depth - 1 - r) n of the order key.
    weight = (0, *(d**e for e in range(n)))  # weight[x] = d^(x-1)
    digit = [[r * w for w in weight] for r in range(depth)]
    clear = [
        [1 << (depth - 1 - r) * n + n - x for x in range(n + 1)] for r in range(depth)
    ]
    lengths = [0] * depth
    orders: list[int] = []
    keys: list[int] = []
    below: list[int] = []

    def place(x: int, key: int, order: int, mask: int, row: int, column: int) -> None:
        if x > n:
            orders.append(order)
            keys.append(key)
            below.append(mask)
            return
        above = n  # the length of the row above; row 0 has none
        for r, part in enumerate(lam):
            c = lengths[r]
            if c < part and c < above:
                lengths[r] = c + 1
                flag = 1 << x if r == row + 1 and c == column else 0
                place(x + 1, key + digit[r][x], order - clear[r][x], mask | flag, r, c)
                lengths[r] = c
            if not c:
                break  # the rows below are empty and stay so
            above = c

    place(1, 0, (1 << depth * n) - 1, 0, -2, -1)
    del place  # break place's cycle through its closure, as in _content_rows
    by_order = sorted(range(len(orders)), key=orders.__getitem__)
    keys = [keys[i] for i in by_order]
    below = [below[i] for i in by_order]
    position = {key: i for i, key in enumerate(keys, 1)}
    count = _syt_count(lam)
    if len(position) != count:
        raise AssertionError(
            f"SYT({lam}) has {len(position)} distinct tableaux by key, not {count}"
        )
    return keys, below, position


def _syt_rows_of(lam: tuple[int, ...], key: int) -> Rows:
    """The rows of the SYT of shape lam whose row-word key is ``key``, as
    ``_syt_keys`` writes it: x goes to the row of its digit."""
    d = max(len(lam), 2)
    rows: list[list[int]] = [[] for _ in lam]
    for x in range(1, sum(lam) + 1):
        key, r = divmod(key, d)
        rows[r].append(x)
    return tuple(map(tuple, rows))


@_per_domain
def _keyed_domain(
    lam: tuple[int, ...], m: Optional[int]
) -> tuple[dict[Rows, int], tuple[int, ...], list[int], dict[int, int]]:
    """SSYT(lam, m), or SYT(lam) if m is None, built once per domain as
    (index, cuts, keys, position): each tableau's rows mapped to its
    0-based position, the cuts of the keys, each tableau's int key in index
    order, and each key mapped to its 1-based position, as ``Permutation``
    images are.

    On SSYT the key reads the Gelfand-Tsetlin entries L(i, j), the number
    of entries <= j in row i, that vary over the domain: those with
    1 <= i <= min(j, len(lam)) and j < m, as mixed-radix digits (i, j) of
    radix lam_i + 1, ordered by pattern row j and then by i; cuts[j] is
    the weight past pattern row j.  On SYT it is the row word of
    ``_syt_keys``, and cuts[j] is d^j.  So ``key // cuts[lo] % (cuts[hi]
    // cuts[lo])`` is the window of pattern rows lo+1..hi, or of the rows
    of the entries lo+1..hi, and ``key % cuts[k]`` the sub-tableau of
    entries <= k.

    SSYT comes from one fill, ``_ssyt_rows``.  On SYT each row is decoded
    from its key, and the keys and their position dict are those of
    ``_syt_keys``.  The one domain post-condition, checked in every run
    mode for both kinds: the domain has as many distinct rows and as many
    distinct keys as the hook-length (SYT) or hook-content (SSYT) formula
    counts.
    """
    if m is None:
        keys, _, position = _syt_keys(lam)
        d = max(len(lam), 2)
        cuts = tuple(d**j for j in range(sum(lam) + 1))
        rows = (_syt_rows_of(lam, key) for key in keys)
        count = _syt_count(lam)
    else:
        rows, keys, cuts = _ssyt_rows(lam, m)
        position = {key: i for i, key in enumerate(keys, 1)}
        count = _ssyt_count(lam, m)
    index = {tableau: i for i, tableau in enumerate(rows)}
    if not len(index) == len(position) == count:
        raise AssertionError(
            f"the domain {lam}, m = {m} has {len(index)} distinct tableaux by"
            f" rows and {len(position)} by key, not {count}"
        )
    return index, cuts, keys, position


def _index(lam: tuple[int, ...], m: Optional[int]) -> dict[Rows, int]:
    """The rows of each tableau of the domain (lam, m) mapped to its 0-based
    position: the index of ``_keyed_domain``, read through its cache."""
    return _keyed_domain(lam, m)[0]


def enumerate_syt(lam: Partition) -> list[Tableau]:
    """All standard tableaux of straight shape lam.

    Order: lexicographic on the row-reading word.
    """
    lam = Partition(lam)
    return [Tableau(rows) for rows in _content_rows(lam, (1,) * lam.size)]


def enumerate_ssyt(
    lam: Partition, m: int, content_filter: Optional[Composition] = None
) -> list[Tableau]:
    """All semistandard tableaux of straight shape lam with entries <= m.

    Order: lexicographic on the row-reading word.  With ``content_filter``
    only the fillings of that content are listed, through ``_content_rows``.
    """
    lam = Partition(lam)
    if content_filter is None:
        return [Tableau(rows) for rows in _ssyt_rows(lam, m)[0]]
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    nu = Composition(content_filter)
    return [] if any(nu[m:]) else [Tableau(rows) for rows in _content_rows(lam, nu)]


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
    del assign  # break assign's cycle through its closure, as in _content_rows
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


def syt_tuple(lam: tuple[int, ...]) -> tuple[Tableau, ...]:
    """The tableaux of SYT(lam), in the order of its domain index."""
    return tuple(map(Tableau, _index(Partition(lam), None)))


def ssyt_tuple(lam: tuple[int, ...], m: int) -> tuple[Tableau, ...]:
    """The tableaux of SSYT(lam, m), in the order of its domain index."""
    return tuple(map(Tableau, _index(Partition(lam), m)))

