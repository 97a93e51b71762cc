"""Characters, Kostka numbers, and the hook-shape module decomposition.

The symmetric-group character table is built one column at a time by the
Murnaghan–Nakayama rule: the column of a cycle type rho comes from the
cached column of rho[1:], with each partition held as an int mask of its
beta-numbers.  The test suite carries a fully independent oracle (fixed
tabloids plus unitriangular Kostka inversion) that never touches this
code path.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .shapes import (
    Composition,
    Partition,
    Permutation,
    conjugate,
    enumerate_partitions,
    is_hook,
    value_type,
)
from .tableaux import (
    Tableau,
    Tabloid,
    _content_rows,
    _syt_count,
    _syt_keys,
    dual_reflect,
    syt_tuple,
)
from .group_actions import bk_t_perm

CycleType = Partition


@value_type
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


def _mask(mu: tuple[int, ...], beads: int) -> int:
    """The beta-numbers mu_i + beads - i (i = 1..beads, mu padded with
    zeros) as the set bits of an int."""
    mask = (1 << beads - len(mu)) - 1  # the zero parts fill the lowest slots
    for i, p in enumerate(mu):
        mask |= 1 << p + beads - 1 - i
    return mask


@lru_cache(maxsize=None)
def _bead_index(m: int) -> dict[int, int]:
    """The position of each partition of m in ``enumerate_partitions``
    order, keyed by its m-bead mask; the keys are in that order too."""
    return {_mask(mu, m): i for i, mu in enumerate(enumerate_partitions(m))}


@lru_cache(maxsize=None)
def _column(rho: tuple[int, ...]) -> tuple[int, ...]:
    """The character values at cycle type rho of every irreducible of
    S_|rho|, in ``enumerate_partitions`` order.

    Murnaghan–Nakayama: removing a border strip of length h = rho[0] moves
    one bead of the mask from b + h down to a free slot b, so the strips
    are the set bits b of ``mask >> h & ~mask``; the strip's height is the
    number of beads it jumps over.  The partition left has size |rho| - h,
    so with |rho| beads its h lowest slots hold beads; shifting them out
    gives its own mask, whose value is read from the column of rho[1:].
    """
    if not rho:
        return (1,)  # the empty partition's
    h, m = rho[0], sum(rho)
    values = _column(rho[1:])
    index = _bead_index(m - h)
    column = []
    for mask in _bead_index(m):
        total = 0
        free = mask >> h & ~mask
        while free:
            low = free & -free
            free ^= low
            high = low << h
            jumped = mask & (high - (low << 1))
            value = values[index[(mask ^ high | low) >> h]]
            total += -value if jumped.bit_count() & 1 else value
        column.append(total)
    return tuple(column)


def mn_character(mu: Partition, rho: CycleType) -> int:
    """Character value of the irreducible mu at cycle type rho."""
    mu = Partition(mu)
    rho = Partition(rho)
    if mu.size != rho.size:
        raise ValueError(f"|{mu}| != |{rho}|")
    return _column(tuple(rho))[_bead_index(mu.size)[_mask(mu, mu.size)]]


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


@value_type
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
    values = tuple(zip(*(_column(tuple(rho)) for rho in parts)))
    return CharacterValueTable(degree=m, partitions=parts, values=values)


@lru_cache(maxsize=None)
def _class_sizes(m: int) -> tuple[int, ...]:
    """The class sizes of the columns of ``character_table(m)``, in order."""
    return tuple(map(class_size, character_table(m).partitions))


@value_type
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
    for |k - l| >= 2, so the order of the blocks does not matter; they are
    multiplied left to right.  Cycles of length 1 add no block, and they
    come last in rho, so rho's element is the product over its leading
    parts of length >= 2.  Classes come in ``enumerate_partitions`` order,
    and many share their leading parts: the product of the blocks of each
    prefix (rho_1, ..., rho_i) is kept for the call, so a class costs one
    product beyond its longest kept prefix.  The identity class, which has
    no block, fixes every tableau: its value is the number of keys that
    ``tableaux._syt_keys`` enumerates, which ``decompose_schutzenberger``
    then checks against the hook-length formula.
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
    prefixes: dict[tuple[int, ...], Permutation] = {}
    out = {}
    for rho in enumerate_partitions(n - 1):
        cycles = tuple(length for length in rho if length >= 2)
        if not cycles:
            out[rho] = len(_syt_keys(tuple(lam))[0])
            continue
        product, a = None, 1
        for i, length in enumerate(cycles, 1):
            prefix, end = cycles[:i], a + length - 1
            if prefix not in prefixes:
                for b in range(a + 1, end + 1):  # B(a, b) = B(a, b-1) t_b
                    if (a, b) not in blocks:
                        t_b = bk_t_perm(tuple(lam), None, b)
                        blocks[a, b] = t_b if b == a + 1 else blocks[a, b - 1] * t_b
                block = blocks[a, end]
                prefixes[prefix] = block if product is None else product * block
            product, a = prefixes[prefix], end + 1
        images = product.images
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
    weights = [
        size * char[rho] for size, rho in zip(_class_sizes(n - 1), table.partitions)
    ]
    mults = []
    for mu, values in zip(table.partitions, table.values):
        total = sum(map(operator.mul, weights, values))
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
    # Each mu comes from enumerate_partitions and tilde from HookShape, so
    # kostka_number's checks of its arguments would add nothing here.
    mults = tuple(
        (mu, len(_content_rows(mu, hook.tilde))) for mu in enumerate_partitions(n - 1)
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

