"""One cross-check matrix: every generator, every path that computes it,
every small domain.

Each claim the package decides is an equality of exact permutations of a
domain, SSYT(lam, m) or SYT(lam).  Each generator is computed by several
paths, and this module asserts that all of them give the same permutation
of every domain.

Rows are the generators, on the alphabet 1..M of the domain (M = m on
SSYT(lam, m), M = |lam| on SYT(lam)):

    t_k          1 <= k < M
    pr_k         1 <= k <= M    and p_(k-1), which acts as pr_k
    xi_[1,k]     1 <= k <= M    and q_(k-1) and c_[1,k], which act as xi_[1,k]
    c_[a,b]      1 < a < b <= M

Berenstein-Kirillov's p_k = t_k ... t_1 acts as pr_(k+1) and q_k as
xi_[1,k+1], so those atoms share a row with what they act as.

Columns are the paths, in four families:

    domain   the permutation a build gives: ``bk_t_perm``,
             ``promotion_perm``, ``interval_perm``, and ``word_perm`` of the
             p/q atoms, which ``_atom_perm`` builds from t's only
    act      ``act`` on each ``Tableau`` of the domain
    public   the public single-tableau operation: ``strip_swap``,
             ``bounded_promotion``, ``promotion``, ``partial_evacuation``,
             ``interval_evacuation``, ``evacuation``
    oracle   the ``tests/helpers.py`` oracles, and ``bk_tau`` through
             ``to_pattern``/``from_pattern`` for t_k

A generator with window 1..top fixes every entry above top, and an oracle
sees only that window: it runs on the sub-tableau of entries <= top, once
per distinct sub-tableau, and the entries above top are put back after
it.  The kernel columns always run on the whole tableau, so they are
checked against the oracles on every row below the window too.

Each (domain, generator, column) is computed once, as a permutation of the
domain, and every pair of columns must agree.  Two columns that run the
same kernel share its faults, so each column names its kernel, and every
row must hold an agreeing pair that shares none:

    row word       SYT t_k and the t-built p/q atoms: the row-word rule in
                   ``bk_t_perm``
    _swap_rows     SSYT t_k and the t-built p/q atoms, which run it once
                   per distinct window of pattern rows k-1..k+1;
                   ``act``'s t atoms, ``strip_swap``
    _promote_rows  the pr_k builds, ``interval_perm`` (which composes
                   promotions), ``act``'s p atoms, ``bounded_promotion``,
                   ``promotion``, ``partial_evacuation_oracle``
    _evacuate_rows ``act``'s q atoms and c passes, ``partial_evacuation``,
                   ``interval_evacuation``, ``evacuation``
    jdt_rectify    ``promotion_oracle``, ``evacuation_oracle``
    bk_tau         the pattern reflection

Within a run each kernel and the semistandard predicate are computed once
per input (``_each_input_once``): they are pure, and two columns that share
a kernel share its faults however often it runs, while every column still
runs its own dispatch and checks on every tableau.

A new build path is one more entry in ``ROWS``.

``python tests/test_matrix.py --n 7 --families domain act oracle`` runs
chosen families on every domain of one n (SSYT(lam, n) and SYT(lam),
lam |- n).
"""

from __future__ import annotations

import argparse
import sys
from bisect import bisect_right
from contextlib import contextmanager
from functools import lru_cache, partial
from itertools import zip_longest
from typing import Callable, NamedTuple

import pytest

from cactus_tableaux import group_actions, gt_patterns, sliding, tableaux
from cactus_tableaux.group_actions import (
    act,
    bk_t_perm,
    interval_perm,
    parse_word,
    promotion_perm,
    word_perm,
)
from cactus_tableaux.gt_patterns import bk_tau, from_pattern, strip_swap, to_pattern
from cactus_tableaux.shapes import enumerate_partitions
from cactus_tableaux.sliding import (
    bounded_promotion,
    evacuation,
    interval_evacuation,
    partial_evacuation,
    promotion,
)
from cactus_tableaux.tableaux import Tableau, _drop_domains, _index

from helpers import evacuation_oracle, partial_evacuation_oracle, promotion_oracle

SWAP, PROMOTE, EVACUATE = "_swap_rows", "_promote_rows", "_evacuate_rows"
T_BUILD = (SWAP, "row word")  # the t_k build on SSYT, on SYT
JDT = "jdt_rectify"
FAMILIES = ("domain", "act", "public", "oracle")


class Column(NamedTuple):
    """One path that computes a row's generator.

    ``prepare(rank, *args)`` gives, in the domain family, a function of
    (lam, m) that builds the permutation of that domain, and in the other
    families a function of one ``Tableau`` (in the oracle family, of its
    window) that gives its image.  ``rank`` is the largest alphabet of the
    run: a word of that rank acts on every domain of it.  ``kernel`` names
    what the column runs, as one name or an (SSYT, SYT) pair.
    """

    name: str
    family: str
    kernel: str | tuple[str, str]
    prepare: Callable
    applies: Callable = lambda M, *args: True

    def kernel_on(self, syt: bool) -> str:
        return self.kernel if isinstance(self.kernel, str) else self.kernel[syt]


def _building(build):
    """The column of the domain permutation build(lam, m, *args)."""
    return lambda rank, *args: lambda lam, m: build(lam, m, *args)


def _word_built(word):
    """The column of ``word_perm`` on the p/q atom word(*args), which
    ``_atom_perm`` builds from t's only."""

    def prepare(rank, *args):
        w = parse_word(word(*args), rank)
        return lambda lam, m: word_perm(w, lam, m, "syt" if m is None else "ssyt")

    return prepare


def _acting(word):
    """The column of ``act`` with the word word(*args) on each tableau."""
    return lambda rank, *args: partial(act, parse_word(word(*args), rank))


def _applying(op):
    """The column of op(T, *args) on each tableau, or on each window."""
    return lambda rank, *args: lambda T: op(T, *args)


def _from_2(M, k):
    return k >= 2


def _whole(M, k):
    return k == M


def _reflecting(rank, k):
    """The column of ``bk_tau`` on each window's pattern of the run's rank,
    read back through ``from_pattern``."""
    return lambda W: from_pattern(bk_tau(to_pattern(W, rank), k))


ROWS: dict[str, tuple[Column, ...]] = {
    "t": (
        Column("bk_t_perm", "domain", T_BUILD, _building(bk_t_perm)),
        Column("act t_k", "act", SWAP, _acting(lambda k: f"t{k}")),
        Column("strip_swap", "public", SWAP, _applying(strip_swap)),
        Column("bk_tau", "oracle", "bk_tau", _reflecting),
    ),
    "pr": (
        Column("promotion_perm", "domain", PROMOTE, _building(promotion_perm)),
        Column(
            "word_perm p_(k-1)",
            "domain",
            T_BUILD,
            _word_built(lambda k: f"p{k - 1}"),
            _from_2,
        ),
        Column("act p_(k-1)", "act", PROMOTE, _acting(lambda k: f"p{k - 1}"), _from_2),
        Column("bounded_promotion", "public", PROMOTE, _applying(bounded_promotion)),
        Column("promotion", "public", PROMOTE, _applying(promotion), _whole),
        Column("promotion_oracle", "oracle", JDT, _applying(promotion_oracle)),
    ),
    "xi": (
        Column(
            "interval_perm",
            "domain",
            PROMOTE,
            _building(lambda lam, m, k: interval_perm(lam, m, 1, k)),
        ),
        Column(
            "word_perm q_(k-1)",
            "domain",
            T_BUILD,
            _word_built(lambda k: f"q{k - 1}"),
            _from_2,
        ),
        Column("act q_(k-1)", "act", EVACUATE, _acting(lambda k: f"q{k - 1}"), _from_2),
        Column("act c_[1,k]", "act", EVACUATE, _acting(lambda k: f"c[1,{k}]"), _from_2),
        Column(
            "partial_evacuation", "public", EVACUATE, _applying(partial_evacuation), _from_2
        ),
        Column(
            "interval_evacuation",
            "public",
            EVACUATE,
            _applying(lambda T, k: interval_evacuation(T, (1, k))),
            _from_2,
        ),
        Column("evacuation", "public", EVACUATE, _applying(evacuation), _whole),
        Column(
            "partial_evacuation_oracle",
            "oracle",
            PROMOTE,
            _applying(lambda W, k: partial_evacuation_oracle(W.rows, k)),
        ),
        Column("evacuation_oracle", "oracle", JDT, _applying(evacuation_oracle)),
    ),
    "c": (
        Column("interval_perm", "domain", PROMOTE, _building(interval_perm)),
        Column("act c_[a,b]", "act", EVACUATE, _acting(lambda a, b: f"c[{a},{b}]")),
        Column(
            "interval_evacuation",
            "public",
            EVACUATE,
            _applying(lambda T, a, b: interval_evacuation(T, (a, b))),
        ),
    ),
}
INVOLUTIONS = ("t", "xi", "c")


def generators(row: str, M: int):
    """(args, top) of each generator of the row on the alphabet 1..M; its
    window is 1..top."""
    if row == "t":
        return [((k,), k + 1) for k in range(1, M)]
    if row == "c":
        return [((a, b), b) for a in range(2, M) for b in range(a + 1, M + 1)]
    return [((k,), k) for k in range(1, M + 1)]


def _rows(image) -> tuple:
    return getattr(image, "rows", image)


# Both are kept for the domains of one shape: a tableau or a window is
# built and cut once, whichever columns and rows read it.
_tableau = lru_cache(maxsize=None)(Tableau)

# The row kernels and the semistandard predicate, under every name the
# columns reach them by.
PURE = (
    (sliding, "_promote_rows"),
    (group_actions, "_promote_rows"),
    (sliding, "_evacuate_rows"),
    (group_actions, "_evacuate_rows"),
    (gt_patterns, "_swap_rows"),
    (group_actions, "_swap_rows"),
    (tableaux, "_rows_semistandard"),
)


@contextmanager
def _each_input_once():
    """Compute each kernel and the semistandard predicate once per input,
    for the domains of one shape.

    They are pure functions of their arguments.  Columns that share a
    kernel share its faults whether it runs once or again, and columns
    with different kernels still run their own: so no cross-check is lost,
    and every column still runs its own dispatch and checks on every
    tableau.
    """
    originals = [(module, name, getattr(module, name)) for module, name in PURE]
    once = {f: lru_cache(maxsize=None)(f) for _, _, f in originals}
    try:
        for module, name, f in originals:
            setattr(module, name, once[f])
        yield
    finally:
        for module, name, f in originals:
            setattr(module, name, f)


@lru_cache(maxsize=None)
def _split(rows: tuple, top: int) -> tuple[tuple, tuple]:
    """The window of a straight SSYT's entries <= top, and what each row
    holds above top.  Columns strictly increase, so the window is straight."""
    cuts = [bisect_right(row, top) for row in rows]
    window = tuple(row[:cut] for row, cut in zip(rows, cuts) if cut)
    return window, tuple(row[cut:] for row, cut in zip(rows, cuts))


def _disagreement(lam, m, index, row, args, first, other) -> str:
    (name, images), (other_name, other_images) = first, other
    i = next(i for i, (x, y) in enumerate(zip(images, other_images)) if x != y)
    tabs = list(index)
    return (
        f"{row}{list(args)} on {lam}, m = {m}: {name} maps {tabs[i]} to"
        f" {tabs[images[i] - 1]}, {other_name} to {tabs[other_images[i] - 1]}"
    )


def _tableau_map(column, f, top, support, windows) -> dict:
    """The image under f of each tableau in ``support``.  An oracle runs on
    the window 1..top, once per distinct window (``windows`` keeps their
    images), and the entries above top are put back after it."""
    if column.family != "oracle":
        return {rows: _rows(f(_tableau(rows))) for rows in support}
    images = {}
    for rows in support:
        window, above = _split(rows, top)
        out = windows.get(window)
        if out is None:
            out = windows[window] = _rows(f(_tableau(window)))
        images[rows] = tuple(w + a for w, a in zip_longest(out, above, fillvalue=()))
    return images


def _positions(images: dict, index, what: str) -> tuple[int, ...]:
    """A tableau map as a permutation of the domain ``index``; every image
    must lie in the domain."""
    out = []
    for rows in index:
        j = index.get(images[rows])
        if j is None:
            raise AssertionError(f"{what} maps {rows} to {images[rows]}, outside the domain")
        out.append(j + 1)
    return tuple(out)


def check_matrix(n: int, alphabets, families=FAMILIES, windows=None) -> int:
    """Assert that the columns of ``families`` agree on SSYT(lam, m) for
    each m in ``alphabets`` and on SYT(lam), for every lam |- n.  Returns
    the number of (domain, generator) cells on which two paths or more
    were compared.

    Each column is computed once per generator.  A domain column is a
    permutation of each domain.  A tableau column maps every tableau of the
    domains it applies to, and those maps must be equal where they meet;
    every domain of lam lies in the widest, SSYT(lam, max m), so this is
    the same as comparing their permutations of each domain.  Each domain
    then compares its builds with one tableau map, read as its
    permutation, whose images must lie in it.  ``windows`` keeps the
    oracles' images of windows, (row, column, args) -> window -> image,
    and may be shared by runs of several n: the window of a larger tableau
    is the window of a smaller one too.
    """
    windows = {} if windows is None else windows
    rank = max(max(alphabets, default=0), n)
    cells = 0
    for lam in map(tuple, enumerate_partitions(n)):
        try:
            with _each_input_once():
                domains = [(m, m, _index(lam, m)) for m in alphabets]
                domains.append((None, n, _index(lam, None)))
                for row, columns in ROWS.items():
                    columns = [c for c in columns if c.family in families]
                    for args, top in generators(row, rank):
                        holding = [d for d in domains if top <= d[1]]
                        cells += _check_cell(
                            lam, row, columns, args, top, holding, rank, windows
                        )
        finally:
            _drop_domains()
            _split.cache_clear()
            _tableau.cache_clear()
    return cells


def _check_cell(lam, row, columns, args, top, holding, rank, windows) -> int:
    """One generator on the domains of lam that hold it; returns the number
    of those domains on which two paths or more were compared."""
    built, maps = [], []
    for c in columns:
        where = [index for m, M, index in holding if c.applies(M, *args)]
        if not where:
            continue
        f = c.prepare(rank, *args)
        if c.family == "domain":
            built.append((c, f))
            continue
        support = dict.fromkeys(rows for index in where for rows in index)
        memo = windows.setdefault((row, c.name, args), {})
        maps.append((c, _tableau_map(c, f, top, support, memo)))
    if maps:
        # Every support lies in the widest one, so agreeing with it is
        # agreeing with each other.
        a, first = max(maps, key=lambda cm: len(cm[1]))
        for b, other in maps:
            if other.keys() != first.keys():
                same = other == {rows: first.get(rows) for rows in other}
            else:
                same = other == first
            if not same:
                rows = next(r for r in other if other[r] != first.get(r))
                raise AssertionError(
                    f"{row}{list(args)} on {lam}: {a.name} maps {rows} to"
                    f" {first.get(rows)}, {b.name} to {other[rows]}"
                )
    cells = 0
    for m, M, index in holding:
        perms = [(c.name, f(lam, m).images) for c, f in built if c.applies(M, *args)]
        on = [(c, images) for c, images in maps if c.applies(M, *args)]
        if on:
            c, images = on[0]
            what = f"{c.name}{list(args)} on {lam}, m = {m}"
            perms.append((c.name, _positions(images, index, what)))
        for other in perms[1:]:
            assert other[1] == perms[0][1], _disagreement(
                lam, m, index, row, args, perms[0], other
            )
        if row in INVOLUTIONS and perms:
            p = perms[0][1]
            assert all(p[x - 1] == i for i, x in enumerate(p, 1)), (
                f"{row}{list(args)} on {lam}, m = {m} is not an involution"
            )
        paths = len(perms) - bool(on) + len(on)  # the builds and every map
        cells += paths >= 2
    return cells


@pytest.fixture(scope="module")
def windows():
    """The oracles' images of windows, shared by the cells of every n."""
    memo: dict = {}
    yield memo
    memo.clear()


@pytest.mark.parametrize("n", range(7))
def test_every_pair_of_columns_agrees(n, windows):
    """Every column of every row on SSYT(lam, m), m <= 6, and SYT(lam),
    for every lam |- n; no (domain, generator) cell is left with one path."""
    alphabets = [*range(1, 7), n]  # and SYT(lam), whose alphabet is 1..n
    cells = sum(len(generators(row, M)) for row in ROWS for M in alphabets)
    expected = cells * len(enumerate_partitions(n))
    assert check_matrix(n, range(1, 7), windows=windows) == expected


def test_every_row_has_an_agreeing_pair_that_shares_no_kernel():
    """On every alphabet and for every generator, two of the columns that
    apply run different kernels, on SSYT and on SYT."""
    for syt in (False, True):
        for M in range(1, 7):
            for row, columns in ROWS.items():
                for args, _ in generators(row, M):
                    kernels = {c.kernel_on(syt) for c in columns if c.applies(M, *args)}
                    assert len(kernels) >= 2, (row, args, M, syt, kernels)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--families", nargs="+", choices=FAMILIES, default=FAMILIES)
    args = parser.parse_args(argv)
    cells = check_matrix(args.n, (args.n,), tuple(args.families))
    print(f"n = {args.n}: {cells} cells agree in {', '.join(args.families)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
