"""Characters, Kostka numbers, and the hook-shape module decomposition.

The symmetric-group character values come from the signed border-strip
recursion; the test suite carries a fully independent oracle (fixed
tabloids plus unitriangular Kostka inversion) that never touches this
code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .shapes import (
    Composition,
    Partition,
    Permutation,
    conjugate,
    enumerate_partitions,
    is_hook,
    transposition_word,
)
from .tableaux import (
    Tableau,
    Tabloid,
    enumerate_ssyt,
    enumerate_tabloids,
    dual_reflect,
    permutation_act_tabloid,
    syt_tuple,
)
from .group_actions import (
    BKWord,
    RelationReport,
    bk_t_perm,
    interval_perm,
    word_perm,
)

CycleType = Partition


@dataclass(frozen=True)
class HookShape:
    """A hook (a, 1^b) with its arm/leg data and two-part composition."""

    partition: Partition
    arm: int
    leg: int
    tilde: Composition

    @classmethod
    def from_partition(cls, lam: Partition) -> "HookShape":
        lam = Partition(lam)
        if not is_hook(lam):
            raise ValueError(f"{lam} is not a hook shape")
        arm = lam[0] - 1
        leg = len(lam) - 1
        return cls(
            partition=lam, arm=arm, leg=leg, tilde=Composition((arm, leg))
        )


def tilde_composition(lam: Partition) -> Composition:
    """The (arm, leg) composition of n-1 attached to a hook."""
    return HookShape.from_partition(lam).tilde


def hook_length_dim(lam: Partition) -> int:
    """Number of standard tableaux by the hook-length product formula."""
    lam = Partition(lam)
    if lam.size == 0:
        return 1
    conj = conjugate(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (conj[j] - i) - 1
    return math.factorial(lam.size) // prod


def kostka_number(mu: Partition, nu: Composition) -> int:
    """Count of semistandard tableaux of shape mu and content nu."""
    mu = Partition(mu)
    nu = Composition(nu)
    if mu.size != nu.size:
        raise ValueError(f"|{mu}| != |{nu}|")
    m = max(len(nu), 1)
    return len(enumerate_ssyt(mu, m, content_filter=nu))


def _border_strips(lam: Partition, length: int) -> Iterator[tuple[Partition, int]]:
    """Yield (remaining shape, strip height) for each removable border strip.

    Uses beta-numbers: removing a strip of the given length moves one
    beta-number down by that length onto a free slot; the height is the
    number of beta-numbers it jumps over.
    """
    lam = Partition(lam)
    r = len(lam)
    beta = [lam[i] + (r - 1 - i) for i in range(r)]  # strictly decreasing
    bset = set(beta)
    for b in beta:
        nb = b - length
        if nb >= 0 and nb not in bset:
            height = sum(1 for x in beta if nb < x < b)
            new_beta = sorted((bset - {b}) | {nb}, reverse=True)
            new_lam = [x - (r - 1 - i) for i, x in enumerate(new_beta)]
            yield Partition(new_lam), height


@lru_cache(maxsize=None)
def mn_character(mu: Partition, rho: CycleType) -> int:
    """Character value of the irreducible mu at cycle type rho."""
    mu = Partition(mu)
    rho = Partition(rho)
    if mu.size != rho.size:
        raise ValueError(f"|{mu}| != |{rho}|")
    if mu.size == 0:
        return 1
    part = rho[0]
    rest = Partition(rho[1:])
    total = 0
    for rem, height in _border_strips(mu, part):
        total += (-1) ** height * mn_character(rem, rest)
    return total


def class_size(rho: CycleType) -> int:
    """Size of the conjugacy class with the given cycle type."""
    rho = Partition(rho)
    z = 1
    mult: dict[int, int] = {}
    for p in rho:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        z *= p**m * math.factorial(m)
    return math.factorial(rho.size) // z


@dataclass(frozen=True)
class CharacterValueTable:
    """Full character table of the symmetric group of degree m.

    Rows and columns are both indexed by partitions of m in the standard
    reverse-lexicographic order.
    """

    degree: int
    partitions: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]

    def value(self, mu: Partition, rho: CycleType) -> int:
        i = self.partitions.index(Partition(mu))
        j = self.partitions.index(Partition(rho))
        return self.values[i][j]

    def dimension(self, mu: Partition) -> int:
        return self.value(mu, Partition([1] * self.degree))


@lru_cache(maxsize=None)
def character_table(m: int) -> CharacterValueTable:
    if m < 1:
        raise ValueError("degree must be >= 1")
    parts = tuple(enumerate_partitions(m))
    values = tuple(
        tuple(mn_character(mu, rho) for rho in parts) for mu in parts
    )
    return CharacterValueTable(degree=m, partitions=parts, values=values)


@dataclass(frozen=True)
class MultiplicityVector:
    """Multiplicities of irreducibles, indexed by partitions of ``degree``."""

    degree: int
    mults: tuple[tuple[Partition, int], ...]  # reverse-lex order, all shapes

    def mult(self, mu: Partition) -> int:
        mu = Partition(mu)
        for shape, m in self.mults:
            if shape == mu:
                return m
        raise KeyError(f"{mu} is not a partition of {self.degree}")

    def nonzero(self) -> dict[Partition, int]:
        return {shape: m for shape, m in self.mults if m}

    def total_dimension(self) -> int:
        return sum(m * hook_length_dim(shape) for shape, m in self.mults)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "mults": [
                {"mu": list(shape), "mult": m}
                for shape, m in self.mults
                if m
            ],
        }


def class_representative(rho: CycleType) -> Permutation:
    """Canonical representative: cycles on consecutive blocks."""
    rho = Partition(rho)
    images = []
    start = 1
    for length in rho:
        block = list(range(start, start + length))
        images.extend(block[1:] + block[:1])
        start += length
    return Permutation(images)


def schutzenberger_perm_character(lam: Partition) -> dict[CycleType, int]:
    """Fixed-point character of the hook-shape tableau action of S_{n-1}."""
    lam = Partition(lam)
    # The hook guard: it raises ValueError off hooks, where the t_k give no
    # S_{n-1} action and decompose_schutzenberger would otherwise end in an
    # ArithmeticError on a non-integral multiplicity.
    HookShape.from_partition(lam)
    if lam == Partition((2, 1)):
        raise ValueError("(2,1) is the outlying case; no S_{n-1} action")
    n = lam.size
    out = {}
    for rho in enumerate_partitions(n - 1):
        # s_i acts as t_{i+1}.
        rep = class_representative(rho)
        word = BKWord(n, tuple(("t", i + 1) for i in transposition_word(rep)))
        image = word_perm(word, lam, domain="syt")
        out[rho] = sum(
            1 for x in range(1, image.degree + 1) if image(x) == x
        )
    if out[Partition([1] * (n - 1))] != hook_length_dim(lam):
        raise AssertionError(f"the identity does not fix every SYT of {lam}")
    return out


def decompose_schutzenberger(lam: Partition) -> MultiplicityVector:
    """Irreducible multiplicities of the hook-shape permutation action."""
    lam = Partition(lam)
    n = lam.size
    if n < 2:
        raise ValueError("decomposition needs a hook of size >= 2")
    char = schutzenberger_perm_character(lam)
    table = character_table(n - 1)
    order = math.factorial(n - 1)
    weights = [class_size(rho) * char[rho] for rho in table.partitions]
    mults = []
    for mu, values in zip(table.partitions, table.values):
        total = sum(w * v for w, v in zip(weights, values))
        if total % order != 0 or total < 0:
            raise ArithmeticError(
                f"non-integral or negative multiplicity for {mu}: {total}/{order}"
            )
        mults.append((mu, total // order))
    vec = MultiplicityVector(degree=n - 1, mults=tuple(mults))
    if vec.total_dimension() != hook_length_dim(lam):
        raise AssertionError(f"the decomposition of {lam} misses its dimension")
    return vec


def kostka_vector(lam: Partition) -> MultiplicityVector:
    """The Kostka side of the decomposition: mu -> K_{mu, tilde}."""
    hook = HookShape.from_partition(Partition(lam))
    n = hook.partition.size
    mults = tuple(
        (mu, kostka_number(mu, hook.tilde))
        for mu in enumerate_partitions(n - 1)
    )
    return MultiplicityVector(degree=n - 1, mults=mults)


def verify_main_theorem(lam: Partition) -> RelationReport:
    """Check the decomposition equals the Kostka vector, dimensions included."""
    lam = Partition(lam)
    n = lam.size
    module_side = decompose_schutzenberger(lam)
    kostka_side = kostka_vector(lam)
    if module_side.mults != kostka_side.mults:
        return RelationReport(
            "main-theorem",
            n,
            tuple(lam),
            "FAIL",
            {
                "module": module_side.to_json(),
                "kostka": kostka_side.to_json(),
            },
        )
    if kostka_side.total_dimension() != hook_length_dim(lam):
        return RelationReport(
            "main-theorem",
            n,
            tuple(lam),
            "FAIL",
            {"reason": "dimension identity fails"},
        )
    return RelationReport("main-theorem", n, tuple(lam), "PASS")


def verify_two_one_case() -> RelationReport:
    """The outlying (2,1) module: c[1,3] swaps the basis, c[1,2]/c[2,3] fix it."""
    lam = (2, 1)
    swap = interval_perm(lam, None, 1, 3)
    fix12 = interval_perm(lam, None, 1, 2)
    fix23 = interval_perm(lam, None, 2, 3)
    ok = (
        swap == Permutation((2, 1))
        and fix12.is_identity()
        and fix23.is_identity()
    )
    return RelationReport(
        "two-one-case", 3, lam, "PASS" if ok else "FAIL",
        None if ok else {"c13": repr(swap), "c12": repr(fix12), "c23": repr(fix23)},
    )


def fold_map(T: Tableau) -> Tabloid:
    """Detach arm and leg of a standard hook tableau and shift labels down."""
    lam = T.outer
    hook = HookShape.from_partition(lam)
    if not T.is_straight or not T.is_standard():
        raise ValueError("fold requires a standard straight hook tableau")
    arm_entries = frozenset(e - 1 for e in T.rows[0][1:])
    leg_entries = frozenset(T.rows[i][0] - 1 for i in range(1, len(T.rows)))
    return Tabloid(shape=hook.tilde, rows=(arm_entries, leg_entries))


def verify_fold_equivariance(lam: Partition) -> RelationReport:
    """Fold is a bijection intertwining s_i with t_{i+1}."""
    lam = Partition(lam)
    hook = HookShape.from_partition(lam)
    n = lam.size
    tabs = syt_tuple(tuple(lam))
    folded = [fold_map(t) for t in tabs]
    if len(set(folded)) != len(folded) or len(folded) != len(
        enumerate_tabloids(hook.tilde)
    ):
        return RelationReport(
            "fold-equivariance", n, tuple(lam), "FAIL",
            {"reason": "fold is not a bijection"},
        )
    for i in range(1, n - 1):
        perm = bk_t_perm(tuple(lam), None, i + 1)
        s_i = Permutation.transposition(n - 1, i, i + 1)
        for j, t in enumerate(tabs):
            lhs = folded[perm(j + 1) - 1]
            rhs = permutation_act_tabloid(s_i, folded[j])
            if lhs != rhs:
                return RelationReport(
                    "fold-equivariance", n, tuple(lam), "FAIL",
                    {"i": i, "tableau": t.to_json()},
                )
    return RelationReport("fold-equivariance", n, tuple(lam), "PASS")


def delta_eigenspace_dims(lam: Partition) -> tuple[int, int]:
    """Dimensions of the +1/-1 eigenspaces of the diagonal reflection."""
    lam = Partition(lam)
    if conjugate(lam) != lam:
        raise ValueError(f"{lam} is not self-conjugate")
    tabs = syt_tuple(tuple(lam))
    f = len(tabs)
    fixed = sum(1 for t in tabs if dual_reflect(t) == t)
    if (f + fixed) % 2:
        raise AssertionError(f"{f} SYT and {fixed} fixed points have odd sum")
    return ((f + fixed) // 2, (f - fixed) // 2)


__all__ = [
    "CycleType",
    "HookShape",
    "CharacterValueTable",
    "MultiplicityVector",
    "tilde_composition",
    "hook_length_dim",
    "kostka_number",
    "mn_character",
    "class_size",
    "character_table",
    "class_representative",
    "schutzenberger_perm_character",
    "decompose_schutzenberger",
    "kostka_vector",
    "verify_main_theorem",
    "verify_two_one_case",
    "fold_map",
    "verify_fold_equivariance",
    "delta_eigenspace_dims",
]
