"""Cactus-group and Berenstein-Kirillov-group words and their actions.

Words multiply like functions: the rightmost factor acts first.  Group
elements are never compared symbolically; equality is always tested
extensionally, through the permutations the words induce on an
enumerated tableau set.
"""

from __future__ import annotations

import operator
import re
from functools import reduce
from typing import Callable, Iterable, Optional, Union

from .shapes import Interval, Partition, Permutation, value_type
from .sliding import _evacuate_rows, _promote_rows
from .gt_patterns import _swap_rows
from .tableaux import (
    Rows,
    Tableau,
    _check_image,
    _index,
    _keyed_domain,
    _per_domain,
    _straight_ssyt_rows,
    _syt_keys,
    _syt_rows_of,
    syt_tuple,
)


def _repeated(factors: tuple, e: int) -> tuple:
    """The factors of a word's e-th power; words are not inverted, so e < 0
    is refused rather than read as the identity."""
    if e < 0:
        raise ValueError(f"a word has no negative power (got {e})")
    return factors * e


@value_type
class CactusWord:
    n: int
    factors: tuple[Interval, ...]

    def __post_init__(self):
        factors = tuple(Interval(*map(operator.index, f)) for f in self.factors)
        for f in factors:
            f.validate_generator(self.n)
        object.__setattr__(self, "factors", factors)

    def __str__(self) -> str:
        return " ".join(str(f) for f in self.factors) or "<identity>"

    def __mul__(self, other: "CactusWord") -> "CactusWord":
        if not isinstance(other, CactusWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return CactusWord(self.n, self.factors + other.factors)

    def __pow__(self, e: int) -> "CactusWord":
        return CactusWord(self.n, _repeated(self.factors, e))


BKAtom = tuple[str, int]  # ("t" | "p" | "q", k)


@value_type
class BKWord:
    n: int
    factors: tuple[BKAtom, ...]

    def __post_init__(self):
        factors = tuple((kind, operator.index(k)) for kind, k in self.factors)
        for kind, k in factors:
            if kind not in ("t", "p", "q"):
                raise ValueError(f"unknown atom kind {kind!r}")
            if not 1 <= k <= self.n - 1:
                raise ValueError(f"index {k} out of range for rank {self.n}")
        object.__setattr__(self, "factors", factors)

    def __str__(self) -> str:
        return " ".join(f"{kind}{k}" for kind, k in self.factors) or "<identity>"

    def __mul__(self, other: "BKWord") -> "BKWord":
        if not isinstance(other, BKWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return BKWord(self.n, self.factors + other.factors)

    def __pow__(self, e: int) -> "BKWord":
        return BKWord(self.n, _repeated(self.factors, e))

    def expand(self) -> tuple[int, ...]:
        """Flatten p/q atoms into the underlying t-generator indices.

        By definition p_k = t_k ... t_1 and q_k = p_1 p_2 ... p_k.  The
        actions do not go through this expansion: Berenstein-Kirillov show
        that p_k acts as bounded promotion pr_{k+1} and q_k as xi_[1,k+1],
        and the ``pq-promotion`` check compares both sides on whole domains.
        """
        out: list[int] = []
        for kind, k in self.factors:
            if kind == "t":
                out.append(k)
            elif kind == "p":
                out.extend(range(k, 0, -1))
            else:  # q_k = p_1 p_2 ... p_k
                for j in range(1, k + 1):
                    out.extend(range(j, 0, -1))
        return tuple(out)


Word = Union[CactusWord, BKWord]

_CACTUS_TOKEN = re.compile(r"^c\[(\d+),(\d+)\]$")
_BK_TOKEN = re.compile(r"^([tpq])(\d+)$")


def parse_cactus_word(text: str, n: int) -> CactusWord:
    """Parse whitespace-separated tokens of the form c[a,b]."""
    factors = []
    for token in text.split():
        m = _CACTUS_TOKEN.match(token)
        if not m:
            raise ValueError(f"malformed cactus token {token!r}")
        factors.append(Interval(*map(int, m.groups())))
    return CactusWord(n=n, factors=tuple(factors))


def parse_bk_word(text: str, n: int) -> BKWord:
    """Parse whitespace-separated tokens t<k>, p<k>, q<k>."""
    factors = []
    for token in text.split():
        m = _BK_TOKEN.match(token)
        if not m:
            raise ValueError(f"malformed BK token {token!r}")
        factors.append((m.group(1), int(m.group(2))))
    return BKWord(n=n, factors=tuple(factors))


def parse_word(text: str, n: int) -> Word:
    """Parse either word flavour, deciding by the leading token."""
    stripped = text.split()
    if stripped and stripped[0].startswith("c["):
        return parse_cactus_word(text, n)
    return parse_bk_word(text, n)


def cactus_act(w: CactusWord, T: Tableau) -> Tableau:
    """Apply the word: each c_[a,b] acts by the interval involution.

    On the rows of T, c_[1,b] is one pass of the evacuation kernel of
    ``partial_evacuation`` and c_[a,b] three, xi_[1,b] xi_[1,b-a+1] xi_[1,b]
    as in ``interval_evacuation``; each pass is checked.
    """
    rows = _straight_ssyt_rows(T, "a group action", w.n)
    for a, b in reversed(w.factors):
        for k in (b,) if a == 1 else (b, b - a + 1, b):
            rows = _check_image(rows, _evacuate_rows(rows, k), "evacuation")
    return Tableau._unchecked(rows)


def bk_act(w: BKWord, T: Tableau) -> Tableau:
    """Apply the word atom by atom, one checked kernel pass each.

    t_k acts by the strip swap at level k.  By the Berenstein-Kirillov rule,
    p_k = t_k ... t_1 acts as bounded promotion pr_{k+1}, and q_k = p_1 ... p_k
    as the partial Schutzenberger involution xi_[1,k+1]; ``pq-promotion``
    checks that rule on whole domains, against t_k built by strip swaps.
    """
    rows = _straight_ssyt_rows(T, "a group action", w.n)
    for kind, k in reversed(w.factors):
        if kind == "t":
            image, what = _swap_rows(rows, k), "strip swap"
        elif kind == "p":
            image, what = _promote_rows(rows, k + 1), "bounded promotion"
        else:
            image, what = _evacuate_rows(rows, k + 1), "evacuation"
        rows = _check_image(rows, image, what)
    return Tableau._unchecked(rows)


def act(w: Word, T: Tableau) -> Tableau:
    return cactus_act(w, T) if isinstance(w, CactusWord) else bk_act(w, T)


def chi_translate(w: CactusWord) -> BKWord:
    """Translate along the quotient: c_[1,i] -> q_{i-1}.

    A general c_[a,b] unfolds by the interval definition into
    q_{b-1} q_{b-a} q_{b-1}.
    """
    atoms: list[BKAtom] = []
    for a, b in w.factors:
        if a == 1:
            atoms.append(("q", b - 1))
        else:
            atoms.extend([("q", b - 1), ("q", b - a), ("q", b - 1)])
    return BKWord(n=w.n, factors=tuple(atoms))


def _pi_factor(f: Interval, n: int, k: int) -> Permutation:
    a, b = f
    if n - k < b - a:
        return Permutation.interval_reversal(k, a, b - n + k)
    return Permutation.identity(k)


def pi_k_image(w: CactusWord, k: int) -> Permutation:
    """Image of the word under the quotient onto S_k."""
    if not 1 <= k <= w.n:
        raise ValueError(f"k must be in 1..{w.n}")
    perm = Permutation.identity(k)
    for f in w.factors:
        perm = perm * _pi_factor(f, w.n, k)
    return perm


def pi_ij_image(w: CactusWord, i: int, j: int) -> Permutation:
    """Image under the two-sided window quotient onto S_[1+i, n-j].

    Returned as a degree-n permutation fixing everything outside the
    window.
    """
    n = w.n
    if i < 0 or j < 0 or i + j >= n:
        raise ValueError("need i, j >= 0 and i + j < n")
    perm = Permutation.identity(n)
    for a, b in w.factors:
        if i + j < b - a:
            perm = perm * Permutation.interval_reversal(n, a + i, b - j)
    return perm


# ---------------------------------------------------------------------------
# Induced permutations on enumerated tableau sets.


def _check_window(
    lam: tuple[int, ...], m: Optional[int], what: str, lo: int, hi: int
) -> None:
    """Raise ValueError unless lo..hi lies in the alphabet of (lam, m),
    1..m, or 1..|lam| on SYT."""
    alphabet = sum(lam) if m is None else m
    if not 1 <= lo <= hi <= alphabet:
        raise ValueError(
            f"{what} needs a window inside the alphabet 1..{alphabet}"
            f" of the domain {lam}, m = {m}"
        )


@_per_domain
def interval_perm(
    lam: tuple[int, ...], m: Optional[int], a: int, b: int
) -> Permutation:
    """xi_[a,b] as a permutation of the domain (lam, m).

    Built from the definitions: xi_[1,b] applies the bounded promotions
    pr_b, ..., pr_1 in turn, so xi_[1,b] = xi_[1,b-1] pr_b, and
    xi_[1,1] = pr_1 is the identity (its window holds only 1s), so it is
    not built; xi_[a,b] = xi_[1,b] xi_[1,b-a+1] xi_[1,b].  The tableau-level
    partial_evacuation computes xi_[1,b] by row insertion instead, so the
    two are independent and the tests compare them.
    """
    _check_window(lam, m, f"xi[{a},{b}]", a, b)
    if a > 1:
        outer = interval_perm(lam, m, 1, b)
        return outer * interval_perm(lam, m, 1, b - a + 1) * outer
    if b == 1:
        return Permutation.identity(len(_index(lam, m)))
    return interval_perm(lam, m, 1, b - 1) * promotion_perm(lam, m, b)


def _windowed_perm(
    lam: tuple[int, ...],
    m: Optional[int],
    lo: int,
    hi: int,
    kernel: Callable[[Rows], Rows],
    what: str,
) -> Permutation:
    """The permutation of the domain (lam, m) of an operator that changes a
    tableau's key by an amount that depends only on its window of the key
    that ``tableaux._keyed_domain`` builds: pattern rows lo+1..hi on SSYT,
    the rows of the entries lo+1..hi on SYT.

    The row kernel runs once per distinct window, on the first tableau that
    holds it; that image must lie in the domain's index, and its key change
    is added to the key of every tableau with the same window.  Its
    post-condition, checked in every run mode: every image key lies in the
    domain.
    """
    index = _index(lam, m)
    _, cuts, keys, position = _keyed_domain(lam, m)
    low = cuts[lo]
    span = cuts[hi] // low
    shift = {}
    images = []
    for key, rows in zip(keys, index):
        window = key // low % span
        change = shift.get(window)
        if change is None:
            image = kernel(rows)
            j = index.get(image)
            if j is None:
                raise AssertionError(
                    f"{what} maps {rows} to {image}, outside the domain {lam}, m = {m}"
                )
            change = shift[window] = keys[j] - key
        try:
            images.append(position[key + change] + 1)
        except KeyError:
            raise AssertionError(
                f"{what} maps {rows} outside the domain {lam}, m = {m}"
            ) from None
    return Permutation(images)


@_per_domain
def bk_t_perm(lam: tuple[int, ...], m: Optional[int], k: int) -> Permutation:
    """t_k as a permutation of the domain (lam, m).

    Its window k..k+1 must lie in the domain's alphabet.  On SYT(lam) it is
    read off :func:`_syt_t_perms`.  On SSYT it is Berenstein-Kirillov's
    reflection of pattern row k, which changes no other row, as a function
    of pattern rows k-1, k and k+1: so ``_swap_rows``, the strip swap that
    ``act`` runs, runs once per distinct window of those rows
    (:func:`_windowed_perm`).  ``bk_tau``, the reflection on one pattern,
    is the independent oracle the tests compare it with.
    """
    _check_window(lam, m, f"t{k}", k, k + 1)
    if m is None:
        return _syt_t_perms(lam)[k - 1]
    return _windowed_perm(
        lam, m, max(k - 2, 0), k + 1, lambda rows: _swap_rows(rows, k), f"t{k}"
    )


@_per_domain
def _syt_t_perms(lam: tuple[int, ...]) -> tuple[Permutation, ...]:
    """t_1, ..., t_{n-1} as permutations of SYT(lam), n = |lam|.

    Read T as its row word w, with w[x-1] the row of x; the row words of
    SYT(lam) are exactly its lattice words of content lam.  Lemma, as k and
    k+1 fill one box each:
    (1) if k+1 sits directly below k, both boxes are bound and t_k fixes T;
    (2) else t_k swaps k and k+1, so w(t_k T) is w with its k-th and
        (k+1)-th letters exchanged (w itself when k and k+1 share a row);
    (3) that swapped word is a lattice word unless k+1 is directly below k.

    The build reads ``tableaux._syt_keys``, each row word as one int key
    with the digit of x, row(x), of weight d^(x-1) in base
    d = max(len(lam), 2), and no rows.  Exchanging the digits a of k and
    b of k+1 adds (b - a)(d^(k-1) - d^k) to the key, which is nothing when
    a = b; that shift is tabled by the digit pair a + b d, which is
    key // d^(k-1) % d^2.  So the image is the tableau with the shifted
    key, or T itself when no tableau has it.  That fixed branch is the
    rule's post-condition: it raises AssertionError, in every run mode,
    unless bit k+1 of T's below mask says that the key build placed k+1
    directly below k.  ``_swap_rows`` is the independent oracle the tests
    compare it with.
    """
    n = sum(lam)
    d = max(len(lam), 2)
    keys, below = _syt_keys(lam)
    position = {key: i for i, key in enumerate(keys, 1)}
    pairs = d * d
    perms = []
    for k in range(1, n):
        low, high = d ** (k - 1), d**k
        shift = [(p // d - p % d) * (low - high) for p in range(pairs)]
        images = [position.get(key + shift[key // low % pairs]) for key in keys]
        for i, image in enumerate(images):
            if image is None:
                if not below[i] >> (k + 1) & 1:
                    rows = _syt_rows_of(lam, keys[i])
                    raise AssertionError(
                        f"t{k} finds no image for the SYT {rows} of {lam}"
                    )
                images[i] = i + 1
        perms.append(Permutation(images))
    return tuple(perms)


@_per_domain
def promotion_perm(lam: tuple[int, ...], m: Optional[int], k: int) -> Permutation:
    """Bounded promotion with window 1..k as a permutation of (lam, m).

    The window must lie in the domain's alphabet: a larger one relabels
    vacated cells k, outside the domain.  pr_k fixes every entry above k,
    so it changes a tableau's key by an amount that depends only on the
    sub-tableau of entries <= k: pattern rows 1..k on SSYT, and the row
    digits of 1..k, ``key % d^k``, on SYT.  So ``_promote_rows`` runs once
    per distinct sub-tableau (:func:`_windowed_perm`).
    """
    _check_window(lam, m, f"promotion_{k}", 1, k)
    return _windowed_perm(
        lam, m, 0, k, lambda rows: _promote_rows(rows, k), f"promotion_{k}"
    )


@_per_domain
def _atom_perm(
    lam: tuple[int, ...], m: Optional[int], kind: str, k: int
) -> Permutation:
    """The atom t_k, p_k or q_k as a permutation of (lam, m).

    Built from t's only, by the definitions p_1 = q_1 = t_1,
    p_k = t_k p_{k-1} and q_k = q_{k-1} p_k.  Never from ``promotion_perm``
    or ``interval_perm``: ``pq-promotion`` and ``chi-consistency`` compare
    the atoms with exactly those.
    """
    if kind == "t" or k == 1:
        return bk_t_perm(lam, m, k)
    if kind == "p":
        return bk_t_perm(lam, m, k) * _atom_perm(lam, m, "p", k - 1)
    return _atom_perm(lam, m, "q", k - 1) * _atom_perm(lam, m, "p", k)


def word_perm(
    w: Word, lam: Partition, m: Optional[int] = None, domain: str = "ssyt"
) -> Permutation:
    """The permutation a word induces on SSYT(lam, m) or SYT(lam).

    On SSYT, m defaults to the rank of the word.
    """
    lam = tuple(Partition(lam))
    if domain == "syt":
        m = None
    elif domain == "ssyt":
        m = w.n if m is None else m
    else:
        raise ValueError(f"unknown domain {domain!r}")
    if isinstance(w, CactusWord):
        factors = [interval_perm(lam, m, a, b) for a, b in w.factors]
    else:
        factors = [_atom_perm(lam, m, kind, k) for kind, k in w.factors]
    if not factors:  # the identity of the domain, a bijection by construction
        return Permutation._unchecked(tuple(range(1, len(_index(lam, m)) + 1)))
    return reduce(operator.mul, factors)


# ---------------------------------------------------------------------------
# Named orderings and generated groups.


def paper_syt_ordering(lam: Partition) -> tuple[Tableau, ...]:
    """The cited T_1, T_2, ... orderings for (n-1,1) and (3,1,1)."""
    lam = Partition(lam)
    n = lam.size
    if lam == Partition((3, 1, 1)):
        data = [
            [[1, 2, 3], [4], [5]],
            [[1, 2, 4], [3], [5]],
            [[1, 2, 5], [3], [4]],
            [[1, 4, 5], [2], [3]],
            [[1, 3, 5], [2], [4]],
            [[1, 3, 4], [2], [5]],
        ]
        return tuple(Tableau(tuple(tuple(r) for r in t)) for t in data)
    if len(lam) == 2 and lam[1] == 1 and n >= 3:
        out = []
        for k in range(1, n):
            first = tuple(x for x in range(1, n + 1) if x != k + 1)
            out.append(Tableau(rows=(first, (k + 1,))))
        return tuple(out)
    raise ValueError(f"no cited ordering for shape {lam}")


def syt_ordering(lam: Partition, ordering: str = "reading") -> tuple[Tableau, ...]:
    if ordering == "reading":
        return syt_tuple(tuple(Partition(lam)))
    if ordering == "paper":
        return paper_syt_ordering(lam)
    raise ValueError(f"unknown ordering {ordering!r}")


def generator_permutation(
    lam: Partition, g: Word, ordering: str = "reading"
) -> Permutation:
    """The subscript permutation of g on SYT(lam) in the named ordering.

    With x the returned permutation, g sends T_k to T_{x(k)}.
    """
    tabs = syt_ordering(lam, ordering)
    index = {t: i for i, t in enumerate(tabs)}
    return Permutation(index[act(g, t)] + 1 for t in tabs)


GROUP_ORDER_CAP = 10**6  # generated_group_order raises RuntimeError past it


def generated_group_order(lam: Partition, generators: Iterable[Word]) -> int:
    """Order of the permutation group the words generate on SYT(lam)."""
    gens = [generator_permutation(lam, g) for g in generators]
    degree = len(syt_ordering(lam))
    identity = Permutation.identity(degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g * p
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > GROUP_ORDER_CAP:
                        raise RuntimeError(
                            "generated group exceeds cap of"
                            f" {GROUP_ORDER_CAP} elements"
                        )
        frontier = nxt
    return len(seen)
