"""Per-call probes: one public function at a time over a whole fixed domain.

    python3 perfbench/probes.py

Runs untraced in a fresh interpreter (the runner puts ``src`` on PYTHONPATH)
and prints one JSON object mapping ``<layer>.<function>_us.<domain>`` to the
median over ``PASSES`` passes (one pass for the probes that take seconds)
of the mean time per call in microseconds.  The
two domains are SSYT((4,2), 6) with 1,134 tableaux and SSYT((3,2,1), 6) with
896.  The ``interval_perm`` and ``bk_t_perm`` probes time one whole-domain
generator-permutation build, from an empty cache but with the domain index
already built.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from cactus_tableaux.group_actions import bk_t_perm, interval_perm
from cactus_tableaux.gt_patterns import bk_tau, strip_swap, to_pattern
from cactus_tableaux.shapes import Interval
from cactus_tableaux.sliding import (
    bounded_promotion,
    interval_evacuation,
    partial_evacuation,
    promotion,
)
from cactus_tableaux.tableaux import Tableau, ssyt_tuple

DOMAINS = {"d42m6": ((4, 2), 6), "d321m6": ((3, 2, 1), 6)}
PASSES = 3
WINDOW = Interval(2, 5)  # interval for interval_evacuation / interval_perm
LEVEL = 3  # row operator level for strip_swap / bk_tau / bk_t_perm


def per_call_us(fn, items, passes: int = PASSES) -> float:
    """Median over passes of the mean microseconds per ``fn(item)`` call."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(passes):
        start = clock()
        for item in items:
            fn(item)
        samples.append((clock() - start) / len(items) / 1000)
    return statistics.median(samples)


def build_us(cached_fn, *args, passes: int = PASSES) -> float:
    """Median over passes of one whole-domain build from an empty cache."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(passes):
        cached_fn.cache_clear()
        start = clock()
        cached_fn(*args)
        samples.append((clock() - start) / 1000)
    return statistics.median(samples)


def probe(lam: tuple[int, ...], m: int) -> dict[str, float]:
    tabs = ssyt_tuple(lam, m)
    rows = [t.rows for t in tabs]
    patterns = [to_pattern(t, m) for t in tabs]
    perms = [bk_t_perm(lam, m, k) for k in range(1, m)]
    pairs = [(p, q) for p in perms for q in perms]
    return {
        "tableaux.construct_us": per_call_us(Tableau, rows),
        "tableaux.is_semistandard_us": per_call_us(
            Tableau.is_semistandard, tabs
        ),
        "sliding.promotion_us": per_call_us(lambda t: promotion(t, m), tabs),
        "sliding.bounded_promotion_us": per_call_us(
            lambda t: bounded_promotion(t, m - 1), tabs
        ),
        "sliding.partial_evacuation_us": per_call_us(
            lambda t: partial_evacuation(t, m), tabs, passes=1
        ),
        "sliding.interval_evacuation_us": per_call_us(
            lambda t: interval_evacuation(t, WINDOW), tabs, passes=1
        ),
        "gt_patterns.strip_swap_us": per_call_us(
            lambda t: strip_swap(t, LEVEL), tabs
        ),
        "gt_patterns.to_pattern_us": per_call_us(
            lambda t: to_pattern(t, m), tabs
        ),
        "gt_patterns.bk_tau_us": per_call_us(
            lambda P: bk_tau(P, LEVEL), patterns
        ),
        "shapes.perm_mul_us": per_call_us(lambda pq: pq[0] * pq[1], pairs),
        "group_actions.interval_perm_us": build_us(
            interval_perm, lam, m, *WINDOW, passes=1
        ),
        "group_actions.bk_t_perm_us": build_us(bk_t_perm, lam, m, LEVEL),
    }


def main() -> int:
    out = {}
    for tag, (lam, m) in DOMAINS.items():
        for name, value in probe(lam, m).items():
            out[f"{name}.{tag}"] = value
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
