"""Cactus-group and Berenstein-Kirillov-group words and their actions.

Words multiply like functions: the rightmost factor acts first.  Group
elements are never compared symbolically; equality is always tested
extensionally, through the permutations the words induce on an
enumerated tableau set.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Optional, Sequence, Union

from .shapes import Interval, Partition, Permutation
from .sliding import _evacuate_rows, _interval_rows, _promote_rows
from .gt_patterns import _swap_rows, _swapped
from .tableaux import Rows, Tableau, _straight_ssyt_rows, ssyt_tuple, syt_tuple


@dataclass(frozen=True)
class CactusWord:
    n: int
    factors: tuple[Interval, ...]

    def __post_init__(self):
        factors = tuple(Interval(*f) for f in self.factors)
        for f in factors:
            f.validate_generator(self.n)
        object.__setattr__(self, "factors", factors)

    def __str__(self) -> str:
        return " ".join(str(f) for f in self.factors) or "<identity>"

    def __mul__(self, other: "CactusWord") -> "CactusWord":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return CactusWord(self.n, self.factors + other.factors)

    def __pow__(self, e: int) -> "CactusWord":
        return CactusWord(self.n, self.factors * e)


BKAtom = tuple[str, int]  # ("t" | "p" | "q", k)


@dataclass(frozen=True)
class BKWord:
    n: int
    factors: tuple[BKAtom, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        for kind, k in factors:
            if kind not in ("t", "p", "q"):
                raise ValueError(f"unknown atom kind {kind!r}")
            if not 1 <= k <= self.n - 1:
                raise ValueError(f"index {k} out of range for rank {self.n}")
        object.__setattr__(self, "factors", factors)

    def __str__(self) -> str:
        return " ".join(f"{kind}{k}" for kind, k in self.factors) or "<identity>"

    def __mul__(self, other: "BKWord") -> "BKWord":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return BKWord(self.n, self.factors + other.factors)

    def __pow__(self, e: int) -> "BKWord":
        return BKWord(self.n, self.factors * e)

    def expand(self) -> tuple[int, ...]:
        """Flatten p/q atoms into the underlying t-generator indices."""
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
        a, b = int(m.group(1)), int(m.group(2))
        factors.append(Interval(a, b).validate_generator(n))
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


def _acted_rows(w: Word, T: Tableau) -> Rows:
    """The rows of T once T is known to be a straight SSYT over 1..w.n."""
    if T.max_entry > w.n:
        raise ValueError(f"tableau alphabet exceeds rank {w.n}")
    return _straight_ssyt_rows(T, "a group action")


def cactus_act(w: CactusWord, T: Tableau) -> Tableau:
    """Apply the word: each c_[a,b] acts by the interval involution.

    The bounded promotions are those of ``partial_evacuation`` (a = 1) and
    ``interval_evacuation``, each checked, on the rows of T.
    """
    rows = _acted_rows(w, T)
    for a, b in reversed(w.factors):
        rows = _evacuate_rows(rows, b) if a == 1 else _interval_rows(rows, a, b)
    return Tableau(rows)


def bk_act(w: BKWord, T: Tableau) -> Tableau:
    """Apply the word: each t_k acts by the strip swap at level k, checked."""
    rows = _acted_rows(w, T)
    for k in reversed(w.expand()):
        rows = _swapped(rows, k)
    return Tableau(rows)


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


@lru_cache(maxsize=None)
def _index(lam: tuple[int, ...], m: Optional[int]) -> dict[Rows, int]:
    """Positions in the domain (lam, m), keyed by the rows of each tableau.

    The domain is SSYT(lam, m), or SYT(lam) if m is None.
    """
    tabs = syt_tuple(lam) if m is None else ssyt_tuple(lam, m)
    return {t.rows: i for i, t in enumerate(tabs)}


def _induced_perm(lam: tuple[int, ...], m: Optional[int], f, what: str) -> Permutation:
    """The permutation the row map f, named ``what``, induces on (lam, m).

    The domain's rows are valid by construction, so f gets them unchecked.
    Its post-condition is that every image lies in the domain, which is
    stronger than being semistandard; it is checked for every image in
    every run mode.
    """
    index = _index(lam, m)
    images = []
    for rows in index:
        image = f(rows)
        i = index.get(image)
        if i is None:
            raise AssertionError(
                f"{what} maps {rows} to {image}, outside the domain {lam}, m = {m}"
            )
        images.append(i + 1)
    return Permutation(images)


@lru_cache(maxsize=None)
def interval_perm(
    lam: tuple[int, ...], m: Optional[int], a: int, b: int
) -> Permutation:
    """xi_[a,b] as a permutation of the domain (lam, m).

    The tableau-level definitions, lifted: partial_evacuation applies the
    bounded promotions pr_b, ..., pr_1 in turn, so xi_[1,b] = xi_[1,b-1] pr_b
    with xi_[1,1] = pr_1 (the identity), and interval_evacuation gives
    xi_[a,b] = xi_[1,b] xi_[1,b-a+1] xi_[1,b].
    """
    if not 1 <= a <= b:
        raise ValueError(f"invalid interval [{a},{b}]")
    if a > 1:
        outer = interval_perm(lam, m, 1, b)
        return outer * interval_perm(lam, m, 1, b - a + 1) * outer
    if b == 1:
        return promotion_perm(lam, m, 1)
    return interval_perm(lam, m, 1, b - 1) * promotion_perm(lam, m, b)


@lru_cache(maxsize=None)
def bk_t_perm(lam: tuple[int, ...], m: Optional[int], k: int) -> Permutation:
    """t_k as a permutation of the domain (lam, m).

    On SYT(lam) with 1 <= k < |lam| it is read off :func:`_syt_t_perms`;
    otherwise the strip-swap kernel runs on every tableau of the domain.
    """
    if m is None and 1 <= k < sum(lam):
        return _syt_t_perms(lam)[k - 1]
    return _induced_perm(lam, m, lambda rows: _swap_rows(rows, k), f"t{k}")


@lru_cache(maxsize=None)
def _syt_t_perms(lam: tuple[int, ...]) -> tuple[Permutation, ...]:
    """t_1, ..., t_{n-1} as permutations of SYT(lam), n = |lam|.

    Read T as its row word w, with w[x-1] the row of x; the row words of
    SYT(lam) are exactly its lattice words of content lam.  Lemma, as k and
    k+1 fill one box each:
    (1) if k+1 sits directly below k, both boxes are bound and t_k fixes T;
    (2) else t_k swaps k and k+1, so w(t_k T) is w with its k-th and
        (k+1)-th letters exchanged (w itself when k and k+1 share a row);
    (3) that swapped word is a lattice word unless k+1 is directly below k.

    So the image is the position of the swapped word, or T itself when the
    swapped word is outside the domain.  That fixed branch is the rule's
    post-condition: it raises AssertionError, in every run mode, unless k+1
    really sits directly below k (next row, same column).  ``_swap_rows``
    is the independent oracle the tests compare it with.  The word map
    lives only for the build.
    """
    n = sum(lam)
    words = []
    for rows in _index(lam, None):
        w = [0] * n
        for r, row in enumerate(rows):
            for x in row:
                w[x - 1] = r
        words.append(tuple(w))
    position = {w: i for i, w in enumerate(words)}
    perms = []
    for k in range(1, n):
        images = []
        for i, w in enumerate(words):
            a, b = w[k - 1], w[k]
            j = position.get(w[: k - 1] + (b, a) + w[k + 1 :]) if a != b else i
            if j is None:
                # k+1 is directly below k: the next row, and as many
                # entries before it in its row as before k in k's row.
                before = w[: k - 1]
                if not (b == a + 1 and before.count(a) == before.count(b)):
                    raise AssertionError(
                        f"t{k} finds no image for the SYT with row word {w} of {lam}"
                    )
                j = i
            images.append(j + 1)
        perms.append(Permutation(images))
    return tuple(perms)


@lru_cache(maxsize=None)
def promotion_perm(lam: tuple[int, ...], m: Optional[int], k: int) -> Permutation:
    """Bounded promotion with window 1..k as a permutation of (lam, m)."""
    return _induced_perm(
        lam, m, lambda rows: _promote_rows(rows, k), f"promotion_{k}"
    )


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
        factors = [bk_t_perm(lam, m, k) for k in w.expand()]
    if not factors:
        return Permutation.identity(len(_index(lam, m)))
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


def generated_group_order(
    lam: Partition,
    generators: Iterable[Word],
    ordering: str = "reading",
    cap: int = 10**6,
) -> int:
    """Order of the permutation group the words generate on SYT(lam)."""
    gens = [generator_permutation(lam, g, ordering) for g in generators]
    degree = len(syt_ordering(lam, ordering))
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
                    if len(seen) > cap:
                        raise RuntimeError(
                            f"generated group exceeds cap of {cap} elements"
                        )
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# Relation verification harness.


@dataclass(frozen=True)
class RelationReport:
    relation: str
    n: int
    shape: Optional[tuple[int, ...]]
    status: str  # PASS | FAIL
    counterexample: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json(self) -> dict:
        obj: dict = {
            "relation": self.relation,
            "n": self.n,
            "shape": list(self.shape) if self.shape is not None else None,
            "status": self.status,
        }
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        return obj


def _cw(n: int, *factors: tuple[int, int]) -> CactusWord:
    return CactusWord(n, tuple(Interval(*f) for f in factors))


def _bw(n: int, *atoms: BKAtom) -> BKWord:
    return BKWord(n, tuple(atoms))


def _first_mismatch(
    lhs: Permutation, rhs: Permutation, tabs: Sequence[Tableau]
) -> dict:
    for i, t in enumerate(tabs):
        if lhs.images[i] != rhs.images[i]:
            return {"tableau": t.to_json()}
    raise AssertionError("permutations differ but no mismatch found")


def _check_word_pairs(
    relation: str,
    n: int,
    shape: tuple[int, ...],
    pairs: Iterable[tuple[str, Word, Word]],
    domain: str,
) -> RelationReport:
    lam = tuple(Partition(shape))
    tabs = ssyt_tuple(lam, n) if domain == "ssyt" else syt_tuple(lam)
    for name, lhs, rhs in pairs:
        pl = word_perm(lhs, lam, n, domain)
        pr = word_perm(rhs, lam, n, domain)
        if pl != pr:
            ce = _first_mismatch(pl, pr, tabs)
            ce.update({"instance": name, "lhs": str(lhs), "rhs": str(rhs)})
            return RelationReport(relation, n, lam, "FAIL", ce)
    return RelationReport(relation, n, lam, "PASS")


def _intervals(n: int) -> list[Interval]:
    return [Interval(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]


def _interval_pairs(n: int) -> Iterable[tuple[Interval, Interval]]:
    """Ordered pairs (J, K) of generator intervals, lexicographic in J, then K."""
    return itertools.product(_intervals(n), repeat=2)


def _nested(J: Interval, K: Interval) -> bool:
    return J.a <= K.a and K.b <= J.b


def _reflect(J: Interval, K: Interval) -> Interval:
    """K reflected inside J."""
    return Interval(J.a + J.b - K.b, J.a + J.b - K.a)


def cactus_defining_pairs(n: int) -> list[tuple[str, CactusWord, CactusWord]]:
    """Both sides of every defining relation, as words."""
    e = _cw(n)
    pairs = [(f"{J}^2", _cw(n, J, J), e) for J in _intervals(n)]
    for J, K in _interval_pairs(n):
        if J.b < K.a or K.b < J.a:
            pairs.append((f"{J}{K} disjoint", _cw(n, J, K), _cw(n, K, J)))
        elif _nested(J, K) and J != K:
            pairs.append((f"{J}{K} nested", _cw(n, J, K), _cw(n, _reflect(J, K), J)))
    return pairs


def check_cactus_defining(n: int, shape: tuple[int, ...]) -> RelationReport:
    return _check_word_pairs(
        "cactus-defining", n, shape, cactus_defining_pairs(n), "ssyt"
    )


def check_xi_relations(n: int, shape: tuple[int, ...]) -> RelationReport:
    """The two interval-involution relations: disjoint and nesting."""
    pairs = [
        (f"xi[{J.a},{J.b}] xi[{K.a},{K.b}] commute", _cw(n, J, K), _cw(n, K, J))
        for J, K in _interval_pairs(n)
        if J.b + 1 < K.a
    ]
    pairs += [
        (
            f"xi[{J.a},{J.b}] xi[{K.a},{K.b}] xi[{J.a},{J.b}]",
            _cw(n, J, K, J),
            _cw(n, _reflect(J, K)),
        )
        for J, K in _interval_pairs(n)
        if _nested(J, K)
    ]
    return _check_word_pairs("xi-relations", n, shape, pairs, "ssyt")


def bk_relation_pairs(n: int) -> list[tuple[str, BKWord, BKWord]]:
    pairs = []
    e = _bw(n)
    for k in range(1, n):
        pairs.append((f"t{k}^2", _bw(n, ("t", k), ("t", k)), e))
    for k in range(1, n):
        for l in range(k + 2, n):
            pairs.append(
                (
                    f"t{k} t{l} commute",
                    _bw(n, ("t", k), ("t", l)),
                    _bw(n, ("t", l), ("t", k)),
                )
            )
    if n >= 3:
        pairs.append(("(t1 t2)^6", _bw(n, ("t", 1), ("t", 2)) ** 6, e))
    for k in range(3, n):
        pairs.append(
            (f"(t1 q{k})^4", _bw(n, ("t", 1), ("q", k)) ** 4, e)
        )
    return pairs


def check_bk_relations(n: int, shape: tuple[int, ...]) -> RelationReport:
    return _check_word_pairs(
        "bk-relations", n, shape, bk_relation_pairs(n), "ssyt"
    )


def check_pq_promotion(n: int, shape: tuple[int, ...]) -> RelationReport:
    """p_k acts as bounded promotion at k+1; q_k as xi_[1,k+1]."""
    lam = tuple(Partition(shape))
    tabs = ssyt_tuple(lam, n)
    for k in range(1, n):
        pk = word_perm(_bw(n, ("p", k)), lam, n, "ssyt")
        target = promotion_perm(lam, n, k + 1)
        if pk != target:
            ce = _first_mismatch(pk, target, tabs)
            ce.update({"instance": f"p{k} vs promotion_{k + 1}"})
            return RelationReport("pq-promotion", n, lam, "FAIL", ce)
        qk = word_perm(_bw(n, ("q", k)), lam, n, "ssyt")
        target = interval_perm(lam, n, 1, k + 1)
        if qk != target:
            ce = _first_mismatch(qk, target, tabs)
            ce.update({"instance": f"q{k} vs xi[1,{k + 1}]"})
            return RelationReport("pq-promotion", n, lam, "FAIL", ce)
    return RelationReport("pq-promotion", n, lam, "PASS")


def check_chi_consistency(
    n: int, shape: tuple[int, ...], seed: int = 0, samples: int = 50
) -> RelationReport:
    """Cactus words and their translations induce the same permutation."""
    lam = tuple(Partition(shape))
    tabs = ssyt_tuple(lam, n)
    intervals = _intervals(n)
    words = [_cw(n, J) for J in intervals]
    rng = random.Random(seed)
    # At n = 1 there is no generator to sample from.
    for _ in range(samples if intervals else 0):
        length = rng.randint(1, 6)
        words.append(
            _cw(n, *(rng.choice(intervals) for _ in range(length)))
        )
    for w in words:
        pc = word_perm(w, lam, n, "ssyt")
        pb = word_perm(chi_translate(w), lam, n, "ssyt")
        if pc != pb:
            ce = _first_mismatch(pc, pb, tabs)
            ce.update({"lhs": str(w), "rhs": str(chi_translate(w))})
            return RelationReport("chi-consistency", n, lam, "FAIL", ce)
    return RelationReport("chi-consistency", n, lam, "PASS")


def check_reduced_cactus(n: int, shape: tuple[int, ...]) -> RelationReport:
    """The braid-like quotient relations act trivially on SYT."""
    if n < 3:
        return RelationReport("reduced-cactus", n, tuple(Partition(shape)), "PASS")
    e = _cw(n)
    pairs = [
        ("(c[1,2] c[2,3])^3", _cw(n, (1, 2), (2, 3)) ** 3, e),
        ("(c[1,2] c[1,3])^6", _cw(n, (1, 2), (1, 3)) ** 6, e),
    ]
    return _check_word_pairs("reduced-cactus", n, shape, pairs, "syt")


def check_star_relation(n: int, shape: tuple[int, ...]) -> RelationReport:
    """(t_k t_{k+1})^3 = 1 on SYT for k >= 2; holds iff hook or (2,2)."""
    e = _bw(n)
    pairs = [
        (
            f"(t{k} t{k + 1})^3",
            _bw(n, ("t", k), ("t", k + 1)) ** 3,
            e,
        )
        for k in range(2, n - 1)
    ]
    return _check_word_pairs("star", n, shape, pairs, "syt")


def check_star_sixth(n: int, shape: tuple[int, ...]) -> RelationReport:
    """(t_k t_{k+1})^6 = 1 on SYT for every shape."""
    e = _bw(n)
    pairs = [
        (
            f"(t{k} t{k + 1})^6",
            _bw(n, ("t", k), ("t", k + 1)) ** 6,
            e,
        )
        for k in range(2, n - 1)
    ]
    return _check_word_pairs("star-sixth", n, shape, pairs, "syt")


RELATION_FAMILIES = {
    "cactus-defining": check_cactus_defining,
    "xi-relations": check_xi_relations,
    "bk-relations": check_bk_relations,
    "pq-promotion": check_pq_promotion,
    "chi-consistency": check_chi_consistency,
    "reduced-cactus": check_reduced_cactus,
    "star": check_star_relation,
    "star-sixth": check_star_sixth,
}


def star_relation_expected(shape: Partition) -> bool:
    """Shapes on which the star relation is predicted to hold."""
    from .shapes import is_hook

    lam = Partition(shape)
    return is_hook(lam) or lam == Partition((2, 2))


def relation_report(
    n: int,
    shapes: Iterable[Partition],
    relation_set: Optional[Iterable[str]] = None,
) -> list[RelationReport]:
    """Run the selected relation families over the given shapes."""
    names = list(relation_set) if relation_set is not None else list(
        RELATION_FAMILIES
    )
    for name in names:
        if name not in RELATION_FAMILIES:
            raise ValueError(f"unknown relation family {name!r}")
    reports = []
    for shape in shapes:
        lam = tuple(Partition(shape))
        for name in names:
            reports.append(RELATION_FAMILIES[name](n, lam))
    return reports
