"""Batch verification driver.

Each check is an entry of the registry ``CHECKS``: how a job runs it, the
shapes it applies to, and the shapes on which it is expected to pass.  The
star relation is predicted to fail off hooks and (2,2), so those failures
are recorded as EXPECTED-FAIL, and a pass there is itself a suite failure
(UNEXPECTED-PASS).

Every (n, shape, check) job of a run is grouped into one shard per
(n, shape), so the domain of that shape and its cached generator
permutations are built once, in the process that runs all of its checks.
Shards go to a worker pool largest domain first, and the records come back
sorted by (n, shape, check), so the output does not depend on the worker
count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .shapes import Partition, conjugate, enumerate_partitions, is_hook
from .group_actions import (
    RELATION_FAMILIES,
    RelationReport,
    star_relation_expected,
)
from .representation import (
    verify_fold_equivariance,
    verify_main_theorem,
    verify_two_one_case,
)

HARD_CAP = 10

WORKERS_ENV = "CACTUS_TABLEAUX_WORKERS"

Job = tuple[int, tuple[int, ...], str, int]  # (n, shape, check, seed)


class Check(NamedTuple):
    run: Callable[[int, tuple[int, ...], int], RelationReport]  # (n, shape, seed)
    applies: Callable[[Partition], bool] = lambda lam: True  # shapes to run on
    expected: Callable[[Partition], bool] = lambda lam: True  # shapes it holds on


def _family(name: str, **kw) -> Check:
    # Looked up when the job runs, so that a wrapper put into
    # RELATION_FAMILIES later (perfbench's tracer) sees the call.
    return Check(lambda n, shape, seed: RELATION_FAMILIES[name](n, shape), **kw)


def _on_hooks(lam: Partition) -> bool:
    return is_hook(lam) and lam.size >= 2


def _main_theorem(n: int, shape: tuple[int, ...], seed: int) -> RelationReport:
    if shape == (2, 1):
        return verify_two_one_case()
    return verify_main_theorem(Partition(shape))


# The overriding entries keep the place of the family they replace.
CHECKS: dict[str, Check] = {name: _family(name) for name in RELATION_FAMILIES} | {
    "chi-consistency": Check(
        lambda n, shape, seed: RELATION_FAMILIES["chi-consistency"](
            n, shape, seed=seed
        )
    ),
    "star": _family("star", expected=star_relation_expected),
    "main-theorem": Check(_main_theorem, applies=_on_hooks),
    "fold-equivariance": Check(
        lambda n, shape, seed: verify_fold_equivariance(Partition(shape)),
        applies=_on_hooks,
    ),
}
ALL_CHECKS = tuple(CHECKS)


@dataclass(frozen=True)
class RunConfig:
    n_min: int
    n_max: int
    shapes: str | tuple[tuple[int, ...], ...] = "all"  # all | hooks | explicit
    relations: tuple[str, ...] = ALL_CHECKS
    workers: int = 1
    seed: int = 0
    allow_large: bool = False

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("invalid n range")
        if self.n_max > HARD_CAP and not self.allow_large:
            raise ValueError(
                f"n > {HARD_CAP} needs the explicit large-run override"
            )
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")
        for name in self.relations:
            if name not in CHECKS:
                raise ValueError(f"unknown check {name!r}")


@dataclass
class Summary:
    checked: int = 0
    passed: int = 0
    failed: int = 0
    records: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
        }


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def _shapes_for(config: RunConfig, n: int) -> list[Partition]:
    if config.shapes == "all":
        return enumerate_partitions(n)
    if config.shapes == "hooks":
        return [lam for lam in enumerate_partitions(n) if is_hook(lam)]
    return [
        Partition(s) for s in config.shapes if Partition(s).size == n
    ]


def _run_check(job: Job) -> RelationReport:
    n, shape, name, seed = job
    return CHECKS[name].run(n, shape, seed)


def _run_shard(shard: list[Job]) -> list[RelationReport]:
    """Run every check of one (n, shape) in this process."""
    return [_run_check(job) for job in shard]


def _ssyt_count(lam: tuple[int, ...], m: int) -> int:
    """|SSYT(lam, m)| by the hook-content formula, without enumerating."""
    cols = conjugate(Partition(lam))
    num = den = 1
    for r, length in enumerate(lam):
        for c in range(length):
            num *= m + c - r
            den *= length - c + cols[c] - r - 1
    return num // den


def _classify(name: str, shape: tuple[int, ...], report: RelationReport) -> str:
    if CHECKS[name].expected(Partition(shape)):
        return report.status
    return "EXPECTED-FAIL" if report.status == "FAIL" else "UNEXPECTED-PASS"


def batch_verify(config: RunConfig) -> Summary:
    shards: list[list[Job]] = []
    for n in range(config.n_min, config.n_max + 1):
        for shape in _shapes_for(config, n):
            shard = [
                (n, tuple(shape), name, config.seed)
                for name in config.relations
                if CHECKS[name].applies(shape)
            ]
            if shard:
                shards.append(shard)
    shards.sort(key=lambda shard: -_ssyt_count(shard[0][1], shard[0][0]))

    if config.workers > 1 and len(shards) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            reports = list(pool.map(_run_shard, shards))
    else:
        reports = [_run_shard(shard) for shard in shards]

    paired = sorted(
        zip(
            (job for shard in shards for job in shard),
            (report for shard in reports for report in shard),
        ),
        key=lambda jr: (jr[0][0], jr[0][1], jr[0][2]),
    )
    summary = Summary()
    for (n, shape, name, _), report in paired:
        status = _classify(name, shape, report)
        record = report.to_json()
        record["status"] = status
        summary.records.append(record)
        summary.checked += 1
        if status in ("PASS", "EXPECTED-FAIL"):
            summary.passed += 1
        else:
            summary.failed += 1
    return summary
