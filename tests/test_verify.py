"""The batch verification driver."""

import io
from pathlib import Path

import pytest

from cactus_tableaux.cli import _emit_summary
from cactus_tableaux.shapes import enumerate_partitions
from cactus_tableaux.tableaux import enumerate_ssyt
from cactus_tableaux.verify import (
    ALL_CHECKS,
    HARD_CAP,
    RunConfig,
    _ssyt_count,
    batch_verify,
    default_workers,
)


def make_config(**kw):
    base = dict(n_min=3, n_max=3, shapes="all", relations=("cactus-defining",))
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            make_config(n_min=4, n_max=3)

    def test_hard_cap(self):
        with pytest.raises(ValueError):
            make_config(n_max=HARD_CAP + 1)
        make_config(n_min=1, n_max=HARD_CAP + 1, allow_large=True)

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            make_config(relations=("nope",))

    def test_all_checks_includes_theorem_suites(self):
        assert "main-theorem" in ALL_CHECKS
        assert "fold-equivariance" in ALL_CHECKS


def test_default_workers_env(monkeypatch):
    monkeypatch.setenv("CACTUS_TABLEAUX_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("CACTUS_TABLEAUX_WORKERS", "junk")
    assert default_workers() == 1


def test_n_range_scopes_the_run():
    summary = batch_verify(make_config())
    # three partitions of 3, one relation each
    assert summary.checked == 3
    assert summary.failed == 0
    assert all(r["n"] == 3 for r in summary.records)


def test_empty_shape_filter():
    summary = batch_verify(make_config(shapes=()))
    assert summary.checked == 0 and summary.failed == 0


def test_explicit_shape_filter():
    summary = batch_verify(make_config(shapes=((2, 1),)))
    assert summary.checked == 1
    assert summary.records[0]["shape"] == [2, 1]


def test_hooks_filter():
    summary = batch_verify(
        make_config(n_min=4, n_max=4, shapes="hooks", relations=("star",))
    )
    assert {tuple(r["shape"]) for r in summary.records} == {
        (4,),
        (3, 1),
        (2, 1, 1),
        (1, 1, 1, 1),
    }
    assert summary.failed == 0


def test_star_expected_fail_classification():
    summary = batch_verify(
        make_config(n_min=5, n_max=5, relations=("star",))
    )
    by_shape = {tuple(r["shape"]): r["status"] for r in summary.records}
    assert by_shape[(3, 2)] == "EXPECTED-FAIL"
    assert by_shape[(2, 2, 1)] == "EXPECTED-FAIL"
    assert by_shape[(4, 1)] == "PASS"
    # expected failures count as passed checks
    assert summary.failed == 0


def test_star_two_two_is_an_honest_failure():
    # The swap of the two (2,2) tableaux composed with an identity has
    # order two, so the third power cannot be the identity; the predicate
    # nevertheless predicts a pass there, and the driver reports the
    # discrepancy as a genuine FAIL.
    summary = batch_verify(
        make_config(n_min=4, n_max=4, relations=("star",))
    )
    by_shape = {tuple(r["shape"]): r["status"] for r in summary.records}
    assert by_shape[(2, 2)] == "FAIL"
    assert summary.failed == 1


def test_deterministic_records():
    cfg = make_config(
        n_min=3, n_max=4, relations=("cactus-defining", "star", "main-theorem")
    )
    assert batch_verify(cfg).records == batch_verify(cfg).records


def test_worker_pool_matches_serial():
    # every check of a shape runs in one shard, so shards hold several jobs
    cfg_serial = make_config(n_min=3, n_max=4, relations=ALL_CHECKS)
    cfg_pool = make_config(n_min=3, n_max=4, relations=ALL_CHECKS, workers=2)
    serial = batch_verify(cfg_serial)
    assert serial.records == batch_verify(cfg_pool).records
    assert serial.checked > len(enumerate_partitions(3)) + len(
        enumerate_partitions(4)
    )


def test_hook_content_count_matches_enumeration():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for m in range(1, n + 2):
                assert _ssyt_count(tuple(lam), m) == len(
                    enumerate_ssyt(lam, m)
                ), (lam, m)


def test_main_theorem_jobs_only_run_on_hooks():
    summary = batch_verify(
        make_config(n_min=4, n_max=4, relations=("main-theorem",))
    )
    shapes = {tuple(r["shape"]) for r in summary.records}
    assert (2, 2) not in shapes
    assert summary.failed == 0


def test_fold_equivariance_jobs_only_run_on_hooks():
    summary = batch_verify(
        make_config(n_min=1, n_max=4, relations=("fold-equivariance",))
    )
    shapes = {tuple(r["shape"]) for r in summary.records}
    # (1,) is a hook of size 1, and (2, 2) is no hook
    assert shapes == {
        (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)
    }
    assert summary.failed == 0


@pytest.mark.parametrize("shapes", [((2, 1), (2, 1)), ((2, 1, 0), (2, 1))])
def test_repeated_explicit_shape_is_checked_once(shapes):
    summary = batch_verify(make_config(shapes=shapes, relations=("star",)))
    assert summary.records == [
        {"relation": "star", "n": 3, "shape": [2, 1], "status": "PASS"}
    ]


def test_two_one_main_theorem_record():
    summary = batch_verify(
        make_config(shapes=((2, 1),), relations=("main-theorem",))
    )
    assert summary.records == [
        {"relation": "two-one-case", "n": 3, "shape": [2, 1], "status": "PASS"}
    ]


@pytest.mark.parametrize(
    "config, expected_file",
    [
        (RunConfig(n_min=2, n_max=4), "smoke-relations-n4.jsonl"),
        (
            RunConfig(
                n_min=4, n_max=5, shapes="hooks", relations=("main-theorem",)
            ),
            "smoke-hooks-n5.jsonl",
        ),
        (
            RunConfig(
                n_min=4,
                n_max=12,
                shapes="hooks",
                relations=("main-theorem",),
                allow_large=True,
            ),
            "hooks-n12.jsonl",
        ),
    ],
    ids=["relations-n4", "hooks-n5", "hooks-n12"],
)
def test_records_match_the_committed_smoke_run(config, expected_file):
    # The full record stream of a run, rendered as the CLI renders it,
    # against the output the benchmark expects of its smoke or full run.
    stream = io.StringIO()
    _emit_summary(batch_verify(config), stream)
    expected = (
        Path(__file__).resolve().parent.parent / "perfbench" / "expected" / expected_file
    )
    assert stream.getvalue().encode() == expected.read_bytes()
