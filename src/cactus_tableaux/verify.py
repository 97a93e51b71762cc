"""Batch verification driver.

Every (n, shape, check) job of a run is grouped into one shard per
(n, shape), so the domain of that shape and its cached generator
permutations are built once, in the process that runs all of its checks.
Shards go to a worker pool largest domain first, and the records come back
sorted by (n, shape, check), so the output does not depend on the worker
count.

The star relation gets special treatment: it is predicted to fail off
hooks and (2,2), so those failures are recorded as EXPECTED-FAIL, and a
pass there is itself a suite failure (UNEXPECTED-PASS).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

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

ALL_CHECKS = tuple(RELATION_FAMILIES) + ("main-theorem", "fold-equivariance")

WORKERS_ENV = "CACTUS_TABLEAUX_WORKERS"

Job = tuple[int, tuple[int, ...], str, int]  # (n, shape, check, seed)


@dataclass(frozen=True)
class RunConfig:
    n_min: int
    n_max: int
    shapes: str | tuple[tuple[int, ...], ...] = "all"  # all | hooks | explicit
    relations: tuple[str, ...] = ALL_CHECKS
    workers: int = 1
    seed: int = 0
    allow_large: bool = False
    out: Optional[str] = None

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
            if name not in ALL_CHECKS:
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
    if name == "main-theorem":
        if shape == (2, 1):
            return verify_two_one_case()
        return verify_main_theorem(Partition(shape))
    if name == "fold-equivariance":
        return verify_fold_equivariance(Partition(shape))
    if name == "chi-consistency":
        return RELATION_FAMILIES[name](n, shape, seed=seed)
    return RELATION_FAMILIES[name](n, shape)


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
    if name == "star" and not star_relation_expected(Partition(shape)):
        return "EXPECTED-FAIL" if report.status == "FAIL" else "UNEXPECTED-PASS"
    return report.status


def batch_verify(config: RunConfig) -> Summary:
    shards: list[list[Job]] = []
    for n in range(config.n_min, config.n_max + 1):
        for shape in _shapes_for(config, n):
            shard = []
            for name in config.relations:
                if name in ("main-theorem", "fold-equivariance"):
                    if not is_hook(shape) or shape.size < 2:
                        continue
                shard.append((n, tuple(shape), name, config.seed))
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
