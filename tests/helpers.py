"""Independent oracles used by the test suite.

Nothing here calls into the character or evacuation code paths it is used
to check: Kostka numbers are counted by horizontal-strip chains,
permutation-module characters by distributing cycles into rows,
evacuation by the rotate-complement-rectify construction, and bounded
promotion by rectifying a skew tableau.
"""

from __future__ import annotations

from functools import lru_cache

from cactus_tableaux import Tableau, jdt_rectify


# ---------------------------------------------------------------------------
# Partitions and Kostka numbers, from scratch.


def partitions_revlex(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, reverse-lexicographic, (n,) first."""
    if n == 0:
        return [()]
    out = []

    def gen(rest, cap, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rest, cap), 0, -1):
            gen(rest - p, p, prefix + [p])

    gen(n, n, [])
    return out


@lru_cache(maxsize=None)
def _strip_chains(mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Chains of partitions adding horizontal strips of sizes nu, ending at mu."""
    if not nu:
        return 1 if sum(mu) == 0 else 0
    last = nu[-1]
    total = 0
    # previous shape rho: rho_i between mu_{i+1} and mu_i (horizontal strip)
    ranges = []
    for i, part in enumerate(mu):
        lo = mu[i + 1] if i + 1 < len(mu) else 0
        ranges.append((lo, part))

    def walk(i, acc, prev_cap):
        nonlocal total
        if i == len(ranges):
            if acc == sum(mu) - last:
                rho = tuple(p for p in current if p)
                total += _strip_chains(rho, nu[:-1])
            return
        lo, hi = ranges[i]
        hi = min(hi, prev_cap)
        for v in range(lo, hi + 1):
            current.append(v)
            walk(i + 1, acc + v, v)
            current.pop()

    current: list[int] = []
    walk(0, 0, sum(mu))
    return total


def kostka_oracle(mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """K_{mu,nu} counted by horizontal-strip chains, no tableau code involved."""
    if sum(mu) != sum(nu):
        raise ValueError("size mismatch")
    return _strip_chains(tuple(mu), tuple(nu))


# ---------------------------------------------------------------------------
# Permutation-module characters and Kostka-matrix inversion.


def perm_module_character(nu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Trace of the cycle type rho on the tabloids of shape nu.

    A tabloid is fixed exactly when every cycle lies inside one row, so
    the value counts ways to distribute the cycles of rho into rows with
    capacities nu.
    """
    rows = list(nu)

    def distribute(i: int) -> int:
        if i == len(rho):
            return 1
        total = 0
        for j in range(len(rows)):
            if rows[j] >= rho[i]:
                rows[j] -= rho[i]
                total += distribute(i + 1)
                rows[j] += rho[i]
        return total

    return distribute(0)


def character_table_oracle(m: int) -> dict[tuple, dict[tuple, int]]:
    """Irreducible characters by unitriangular Kostka inversion.

    chi^nu = phi^nu - sum over dominating mu of K_{mu,nu} chi^mu, where
    phi^nu is the permutation-module character.
    """
    parts = partitions_revlex(m)
    chi: dict[tuple, dict[tuple, int]] = {}
    for i, nu in enumerate(parts):
        row = {rho: perm_module_character(nu, rho) for rho in parts}
        for mu in parts[:i]:
            k = kostka_oracle(mu, nu)
            if k:
                for rho in parts:
                    row[rho] -= k * chi[mu][rho]
        assert kostka_oracle(nu, nu) == 1
        chi[nu] = row
    return chi


# ---------------------------------------------------------------------------
# Evacuation by rotate-complement-rectify.


def evacuation_oracle(T: Tableau, m: int) -> Tableau:
    """Rotate the diagram 180 degrees, complement entries, rectify."""
    lam = T.outer
    if not lam:
        return T
    width = lam[0]
    depth = len(lam)
    rows = []
    inner = []
    for i in range(depth):
        src = T.rows[depth - 1 - i]
        rows.append(tuple(m + 1 - e for e in reversed(src)))
        inner.append(width - len(src))
    skew = Tableau(rows=tuple(rows), inner=tuple(inner))
    return jdt_rectify(skew)


# ---------------------------------------------------------------------------
# Bounded promotion by skew rectification.


def promotion_oracle(T: Tableau, k: int) -> Tableau:
    """Promotion on the entries <= k of a straight SSYT, the textbook way.

    The 1s become the inner shape of a skew tableau of the other entries
    <= k, which is rectified; the survivors drop by one, the vacated cells
    take k, and the entries > k are reattached after them.
    """
    window = [tuple(e for e in row if e <= k) for row in T.rows]
    ones = sum(1 for row in window for e in row if e == 1)
    skew = [row[ones:] if r == 0 else row for r, row in enumerate(window)]
    rect = jdt_rectify(Tableau(rows=tuple(skew), inner=(ones,)))
    rows = []
    for r, row in enumerate(T.rows):
        kept = tuple(e - 1 for e in rect.rows[r]) if r < len(rect.rows) else ()
        filled = (k,) * (len(window[r]) - len(kept))
        rows.append(kept + filled + row[len(window[r]):])
    return Tableau(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Skew semistandard fillings, for the confluence sweeps.


def skew_fillings(outer, inner, m: int) -> list[Tableau]:
    """Every semistandard filling of outer/inner with entries <= m."""
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    coords = [
        (r, c)
        for r in range(len(outer))
        for c in range(inner[r], outer[r])
    ]
    grid: dict[tuple[int, int], int] = {}
    out: list[Tableau] = []

    def fill(i: int) -> None:
        if i == len(coords):
            rows = tuple(
                tuple(grid[(r, c)] for c in range(inner[r], outer[r]))
                for r in range(len(outer))
            )
            out.append(Tableau(rows=rows, inner=tuple(p for p in inner)))
            return
        r, c = coords[i]
        lo = grid.get((r, c - 1), 1)
        above = grid.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for e in range(lo, m + 1):
            grid[(r, c)] = e
            fill(i + 1)
            del grid[(r, c)]

    fill(0)
    return out


def subpartitions(lam) -> list[tuple[int, ...]]:
    """All partitions contained in lam (componentwise)."""
    lam = tuple(lam)
    out = []

    def gen(i, prev_cap, prefix):
        out.append(tuple(p for p in prefix if p))
        if i == len(lam):
            return
        for v in range(1, min(lam[i], prev_cap) + 1):
            gen(i + 1, v, prefix + [v])

    gen(0, lam[0] if lam else 0, [])
    return sorted(set(out))
