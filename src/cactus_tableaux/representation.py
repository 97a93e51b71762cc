"""Characters, Kostka numbers, and the hook-shape module decomposition.

The symmetric-group character values come from the signed border-strip
recursion; the test suite carries a fully independent oracle (fixed
tabloids plus unitriangular Kostka inversion) that never touches this
code path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .shapes import (
    Composition,
    Partition,
    Permutation,
    conjugate,
    enumerate_partitions,
    is_hook,
)
from .tableaux import (
    Tableau,
    Tabloid,
    _content_rows,
    _syt_count,
    dual_reflect,
    syt_tuple,
)
from .group_actions import bk_t_perm

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
    return _syt_count(Partition(lam))


def kostka_number(mu: Partition, nu: Composition) -> int:
    """Count of semistandard tableaux of shape mu and content nu."""
    mu = Partition(mu)
    nu = Composition(nu)
    if mu.size != nu.size:
        raise ValueError(f"|{mu}| != |{nu}|")
    return len(_content_rows(mu, nu))


def _beta(mu: Partition) -> tuple[int, ...]:
    """The len(mu) beta-numbers mu_i + len(mu) - i, strictly decreasing."""
    r = len(mu)
    return tuple(p + r - 1 - i for i, p in enumerate(mu))


@lru_cache(maxsize=None)
def _mn(beta: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """The character at cycle type rho of the irreducible with beta-numbers
    beta, by border-strip removal.

    Removing a border strip of length rho[0] moves one beta-number b down
    to a free slot b - rho[0]; the strip's height is the number of
    beta-numbers it jumps over.  The new tuple keeps the length of beta and
    its decreasing order, so no normalisation is needed, and once one
    beta-number would go below 0 every later one would too.
    """
    if not rho:
        return 1  # beta is the empty partition's, as the sizes agree
    part, rest = rho[0], rho[1:]
    r = len(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - part
        if nb < 0:
            break
        j = i + 1
        while j < r and beta[j] > nb:
            j += 1
        if j < r and beta[j] == nb:
            continue  # the slot is taken: no strip starts here
        value = _mn(beta[:i] + beta[i + 1 : j] + (nb,) + beta[j:], rest)
        total += -value if (j - i - 1) % 2 else value
    return total


def mn_character(mu: Partition, rho: CycleType) -> int:
    """Character value of the irreducible mu at cycle type rho."""
    mu = Partition(mu)
    rho = Partition(rho)
    if mu.size != rho.size:
        raise ValueError(f"|{mu}| != |{rho}|")
    return _mn(_beta(mu), rho)


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
    values = tuple(tuple(_mn(_beta(mu), rho) for rho in parts) for mu in parts)
    return CharacterValueTable(degree=m, partitions=parts, values=values)


@dataclass(frozen=True)
class MultiplicityVector:
    """Multiplicities of irreducibles, indexed by partitions of ``degree``."""

    degree: int
    mults: tuple[tuple[Partition, int], ...]  # reverse-lex order, all shapes

    def nonzero(self) -> dict[Partition, int]:
        return {shape: m for shape, m in self.mults if m}

    def total_dimension(self) -> int:
        return sum(
            m * hook_length_dim(shape) for shape, m in self.nonzero().items()
        )

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "mults": [
                {"mu": list(shape), "mult": m}
                for shape, m in self.mults
                if m
            ],
        }


def schutzenberger_perm_character(lam: Partition) -> dict[CycleType, int]:
    """Fixed-point character of the hook-shape tableau action of S_{n-1}.

    The representative of rho has its cycles on consecutive blocks, and the
    cycle (a ... b) is s_a s_{a+1} ... s_{b-1}.  As s_i acts as t_{i+1},
    the block acts as B(a, b) = t_{a+1} ... t_b = B(a, b-1) t_b, one product
    from the block a letter shorter; the blocks are shared between classes.
    Blocks are disjoint and at least two letters apart, and t_k t_l = t_l t_k
    for |k - l| >= 2, so the order of the blocks does not matter.
    """
    lam = Partition(lam)
    # The hook guard: it raises ValueError off hooks, where the t_k give no
    # S_{n-1} action and decompose_schutzenberger would otherwise end in an
    # ArithmeticError on a non-integral multiplicity.
    HookShape.from_partition(lam)
    if lam == Partition((2, 1)):
        raise ValueError("(2,1) is the outlying case; no S_{n-1} action")
    n = lam.size
    blocks: dict[tuple[int, int], Permutation] = {}

    def block(a: int, b: int) -> Permutation:
        if (a, b) not in blocks:
            t_b = bk_t_perm(tuple(lam), None, b)
            blocks[a, b] = t_b if b == a + 1 else block(a, b - 1) * t_b
        return blocks[a, b]

    identity = Permutation.identity(hook_length_dim(lam))
    out = {}
    for rho in enumerate_partitions(n - 1):
        perm = identity
        start = 1
        for length in rho:
            if length >= 2:
                perm = perm * block(start, start + length - 1)
            start += length
        images = perm.images
        out[rho] = sum(map(operator.eq, images, range(1, len(images) + 1)))
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


def fold_map(T: Tableau) -> Tabloid:
    """Detach arm and leg of a standard hook tableau and shift labels down."""
    lam = T.outer
    hook = HookShape.from_partition(lam)
    if not T.is_straight or not T.is_standard():
        raise ValueError("fold requires a standard straight hook tableau")
    arm_entries = frozenset(e - 1 for e in T.rows[0][1:])
    leg_entries = frozenset(T.rows[i][0] - 1 for i in range(1, len(T.rows)))
    return Tabloid(shape=hook.tilde, rows=(arm_entries, leg_entries))


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

