"""The relation checks and the batch verification driver."""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cactus_tableaux
from cactus_tableaux import verify
from cactus_tableaux.cli import _emit_summary, dispatch
from cactus_tableaux.group_actions import (
    BKWord,
    CactusWord,
    bk_t_perm,
    interval_perm,
    word_perm,
)
from cactus_tableaux.shapes import (
    Interval,
    Partition,
    Permutation,
    enumerate_partitions,
)
from cactus_tableaux.tableaux import _DOMAIN_CACHES, Tableau, _index, enumerate_ssyt
from cactus_tableaux.verify import (
    ALL_CHECKS,
    HARD_CAP,
    RunConfig,
    _ssyt_count,
    batch_verify,
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

    def test_n_10_needs_the_large_run_override(self):
        # n = 10 holds about 30.6M SSYT: refused by default, whatever HARD_CAP is.
        with pytest.raises(ValueError, match="large-run override"):
            make_config(n_min=10, n_max=10)
        make_config(n_min=10, n_max=10, allow_large=True)
        make_config(n_min=9, n_max=9)

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            make_config(relations=("nope",))

    @pytest.mark.parametrize("shapes", ["hook", "", "ALL"])
    def test_unknown_shape_filter(self, shapes):
        # Any other string used to fail inside batch_verify, read as a shape.
        with pytest.raises(ValueError, match="'all', 'hooks' or a tuple"):
            RunConfig(2, 3, shapes=shapes)

    def test_all_checks_includes_theorem_suites(self):
        assert "main-theorem" in ALL_CHECKS
        assert "fold-equivariance" in ALL_CHECKS

    def test_all_checks_order_is_pinned(self):
        # The order is the --relations help text and the job order in a shard.
        assert ALL_CHECKS == (
            "cactus-defining",
            "xi-relations",
            "bk-relations",
            "pq-promotion",
            "chi-consistency",
            "reduced-cactus",
            "star",
            "star-sixth",
            "main-theorem",
            "fold-equivariance",
        )


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


def _record_forks(monkeypatch) -> list[int]:
    """Wrap os.fork, which still forks, and list the child pids it returns."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_processes_are_never_more_than_the_shards(monkeypatch):
    """--workers 64 on the 3 shapes of n = 3 runs 3 processes: this one
    and exactly 2 forked children."""
    pids = _record_forks(monkeypatch)
    summary = batch_verify(make_config(workers=64))
    assert len(pids) == len(enumerate_partitions(3)) - 1 == 2
    assert summary.records == batch_verify(make_config()).records
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_results_must_hold_every_job_exactly_once(monkeypatch, workers):
    run_shard = verify._run_shard
    monkeypatch.setattr(verify, "_run_shard", lambda shard: run_shard(shard) * 2)
    with pytest.raises(AssertionError, match="every job exactly once"):
        batch_verify(make_config(workers=workers))
    _assert_no_child_left()


@pytest.fixture
def forked_check(monkeypatch):
    """Install, as cactus-defining, a check that calls ``in_child`` in a
    forked worker, after telling this process so through a pipe, and
    ``in_parent`` here once a child has got that far.  So a child always
    holds a shard, however the tickets fall.  The fork copies the patched
    registry into each child."""
    parent = os.getpid()
    told, tell = os.pipe()

    def install(in_child, in_parent=lambda: None):
        def run(n, shape):
            if os.getpid() != parent:
                os.write(tell, b".")
                in_child()
            else:
                select.select([told], [], [], 30)
                in_parent()
            return verify.RelationReport("cactus-defining", n, shape, "PASS")

        monkeypatch.setitem(verify.CHECKS, "cactus-defining", verify.Check(run))

    yield install
    os.close(told)
    os.close(tell)


VERIFY_N3 = [
    "verify", "relations", "--n", "3", "--relations", "cactus-defining",
    "--workers", "2",
]


def test_a_value_error_in_a_child_exits_2(forked_check, monkeypatch, capsys):
    """The child raises at its first shard, and this process raises it
    again after at most one more shard of its own: its first shard waits
    until the child has written its payload and exited."""
    ended, end = os.pipe()
    exit_ = os._exit

    def exit_and_tell(code):  # called only in the child, as it leaves
        os.write(end, b".")
        exit_(code)

    def boom():
        raise ValueError("boom")

    shards_here = []

    def after_the_child_ended():
        if not shards_here:
            select.select([ended], [], [], 30)
        shards_here.append(1)

    monkeypatch.setattr(os, "_exit", exit_and_tell)
    forked_check(boom, after_the_child_ended)
    argv = [
        "verify", "relations", "--n-min", "2", "--n-max", "4",
        "--relations", "cactus-defining", "--workers", "2",
    ]
    try:
        assert dispatch(argv) == 2
    finally:
        os.close(ended)
        os.close(end)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: boom\n"
    # 10 shards: the child stops at its first, so a run that reads the
    # child only at the end runs every other shard here.
    assert 1 <= len(shards_here) <= 2
    _assert_no_child_left()


def test_a_child_that_dies_raises_and_leaves_out_untouched(
    forked_check, monkeypatch, capsys, tmp_path
):
    pids = _record_forks(monkeypatch)
    forked_check(lambda: os._exit(9))
    target = tmp_path / "records.jsonl"
    target.write_text("old\n")
    with pytest.raises(RuntimeError) as raised:
        dispatch([*VERIFY_N3, "--out", str(target)])
    assert str(raised.value) == (
        f"verify worker {pids[0]} ended without its results"
        f" (wait status {9 << 8})"
    )
    assert capsys.readouterr().out == ""
    assert target.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == [target]
    _assert_no_child_left()


def test_an_exception_here_kills_the_children_at_once(forked_check):
    def fail():
        raise ValueError("in the parent")

    forked_check(lambda: time.sleep(30), fail)
    start = time.monotonic()
    with pytest.raises(ValueError, match="in the parent"):
        batch_verify(make_config(workers=2))
    assert time.monotonic() - start < 10
    _assert_no_child_left()


SLOW_RUN = """
import os, time
from cactus_tableaux import verify
from cactus_tableaux.cli import main

def slow(n, shape):
    # One write per line: with PYTHONUNBUFFERED set, print writes each
    # piece on its own, and the two processes' pieces would interleave.
    os.write(2, f"shard {os.getpid()}\\n".encode())
    time.sleep(60)

verify.CHECKS["cactus-defining"] = verify.Check(slow)
main()
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _signal_mid_run(signum: int) -> bytes:
    """Send signum to the main process of a forked CLI run, once it and
    its child are both mid-shard.  The main process must die by that
    signal, the child must be gone soon after, and stdout must stay empty;
    returns what stderr got after the two shard lines."""
    src = str(Path(cactus_tableaux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", SLOW_RUN, *VERIFY_N3],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    pids: set[int] = set()
    try:
        seen, deadline = b"", time.monotonic() + 60
        while seen.count(b"\n") < 2:
            wait = max(0.0, deadline - time.monotonic())
            ready = select.select([proc.stderr], [], [], wait)[0]
            chunk = os.read(proc.stderr.fileno(), 4096) if ready else b""
            assert chunk, seen  # the run ended, or no shard started in time
            seen += chunk
        *shards, rest = seen.split(b"\n", 2)
        pids = {int(line.split()[1]) for line in shards}
        assert proc.pid in pids and len(pids) == 2
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == -signum
        (child,) = pids - {proc.pid}
        deadline = time.monotonic() + 10
        while _alive(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(child)
        assert proc.stdout.read() == b""  # a live child would hold it open
        return rest + proc.stderr.read()
    finally:
        for pid in pids - {proc.pid}:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_sigterm_kills_and_reaps_the_children():
    """SIGTERM to the main process of a forked run: the child is gone soon
    after, and the main process still dies by SIGTERM, with nothing on
    stdout or stderr."""
    assert _signal_mid_run(signal.SIGTERM) == b""


def test_sigint_prints_one_line_and_kills_and_reaps_the_children():
    """A Ctrl-C to the main process of a forked run: the child is gone soon
    after, and the main process still dies by SIGINT, with nothing on
    stdout and one line, not a traceback, on stderr."""
    assert _signal_mid_run(signal.SIGINT) == b"error: interrupted\n"


def _cached_domains() -> list[int]:
    return [cache.cache_info().currsize for cache in _DOMAIN_CACHES]


def test_every_domain_cache_is_registered():
    # A cache keyed by a domain's shape outlives its shard unless
    # _drop_domains clears it; the registry is filled by decoration.
    caches = {}
    for info in pkgutil.iter_modules(cactus_tableaux.__path__):
        module = importlib.import_module(f"cactus_tableaux.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                caches[name] = obj
    domain = {
        name
        for name, cache in caches.items()
        if next(iter(inspect.signature(cache).parameters)) == "lam"
    }
    assert sorted(cache.__name__ for cache in _DOMAIN_CACHES) == sorted(domain)
    assert all(caches[name] in _DOMAIN_CACHES for name in domain)
    assert set(caches) - domain == {
        "_partitions", "_bead_index", "_column", "character_table",
        "_class_sizes", "cactus_defining_pairs", "bk_relation_pairs",
        "_star_pairs", "_xi_pairs", "_reduced_pairs", "_generators",
        "_atom_words",
    }


def test_a_run_leaves_no_domain_cached():
    # A domain belongs to one shard, so each shard drops its caches at its
    # end; a serial run leaves none warm in this process.
    batch_verify(make_config(n_min=2, n_max=4, relations=ALL_CHECKS))
    assert _cached_domains() == [0] * len(_DOMAIN_CACHES)


def test_a_check_that_raises_leaves_no_domain_cached(monkeypatch):
    built = []

    def broken(n, shape):
        interval_perm(shape, n, 1, 2)  # _keyed_domain, promotion_perm, interval_perm
        bk_t_perm(shape, None, 1)  # _syt_keys, bk_t_perm
        word_perm(BKWord(n, (("p", 1),)), shape, n)  # _atom_perm
        built.append(_cached_domains())
        raise RuntimeError("broken check")

    monkeypatch.setitem(verify.CHECKS, "star", verify.Check(broken))
    with pytest.raises(RuntimeError, match="broken check"):
        batch_verify(make_config(relations=("star",)))
    assert 0 not in built[0]
    assert _cached_domains() == [0] * len(_DOMAIN_CACHES)


@pytest.mark.parametrize("domain, m", [("ssyt", 5), ("syt", None)])
def test_forced_failure_builds_one_tableau(monkeypatch, domain, m):
    """A failing comparison turns only its counterexample into a Tableau:
    the rows at the first position where the two sides differ."""
    lam = (3, 2)
    rows = list(_index(lam, m))
    lhs = Permutation.identity(len(rows))
    rhs = Permutation.transposition(len(rows), 2, 3)
    expected = Tableau(rows[1])
    built = []
    post_init = Tableau.__post_init__

    def counted(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(Tableau, "__post_init__", counted)
    report = verify._compare("forced", 5, lam, domain, [(lhs, rhs, {})])
    assert built == [expected]
    assert report.counterexample == {"tableau": expected.to_json()}


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


@pytest.mark.parametrize(
    "relations", [("star", "star"), ("star", "cactus-defining", "star")]
)
def test_repeated_relation_is_checked_once(relations):
    summary = batch_verify(make_config(shapes=((2, 1),), relations=relations))
    assert [r["relation"] for r in summary.records] == sorted(set(relations))
    assert summary.checked == len(set(relations))


def _reversed(p: Permutation) -> Permutation:
    return Permutation(tuple(reversed(p.images)))


@pytest.mark.parametrize(
    "target, at, instance",
    [
        ("promotion_perm", (2,), "p1 vs promotion_2"),
        ("interval_perm", (1, 3), "q2 vs xi[1,3]"),
    ],
)
def test_pq_promotion_failure_record(monkeypatch, target, at, instance):
    real = getattr(verify, target)

    def broken(lam, m, *args):
        p = real(lam, m, *args)
        return _reversed(p) if args == at else p

    monkeypatch.setattr(verify, target, broken)
    report = verify.check_pq_promotion(3, (2, 1))
    assert json.dumps(report.to_json()) == (
        '{"relation": "pq-promotion", "n": 3, "shape": [2, 1], "status": "FAIL", '
        '"counterexample": {"tableau": {"rows": [[1, 1], [2]]}, '
        f'"instance": "{instance}"}}}}'
    )


def test_chi_consistency_failure_record(monkeypatch):
    # Every word translates to t1, which is c[1,2] but not c[1,3].
    monkeypatch.setattr(verify, "chi_translate", lambda w: BKWord(w.n, (("t", 1),)))
    report = verify.check_chi_consistency(3, (2, 1))
    assert json.dumps(report.to_json()) == (
        '{"relation": "chi-consistency", "n": 3, "shape": [2, 1], "status": "FAIL", '
        '"counterexample": {"tableau": {"rows": [[1, 1], [2]]}, '
        '"lhs": "c[1,3]", "rhs": "t1"}}'
    )


def test_chi_consistency_failure_record_keeps_its_fields(monkeypatch):
    # chi-consistency runs through the word-pair loop, but its pairs carry
    # no instance name, so the record has no "instance" field.
    monkeypatch.setattr(verify, "chi_translate", lambda w: BKWord(w.n, (("t", 1),)))
    assert verify.check_chi_consistency(4, (2, 1, 1)).to_json() == {
        "relation": "chi-consistency", "n": 4, "shape": [2, 1, 1],
        "status": "FAIL",
        "counterexample": {
            "tableau": {"rows": [[1, 1], [2], [3]]}, "lhs": "c[1,3]", "rhs": "t1",
        },
    }


def test_main_theorem_failure_record(monkeypatch):
    # The Kostka side of the one-row shape cannot match the (3,1) module.
    real = verify.kostka_vector
    monkeypatch.setattr(
        verify, "kostka_vector", lambda lam: real(Partition((lam.size,)))
    )
    report = verify.verify_main_theorem(Partition((3, 1)))
    assert json.dumps(report.to_json()) == (
        '{"relation": "main-theorem", "n": 4, "shape": [3, 1], "status": "FAIL", '
        '"counterexample": {"module": {"degree": 3, "mults": '
        '[{"mu": [3], "mult": 1}, {"mu": [2, 1], "mult": 1}]}, '
        '"kostka": {"degree": 3, "mults": [{"mu": [3], "mult": 1}]}}}'
    )


def test_fold_not_a_bijection_record(monkeypatch):
    real = verify.fold_map
    first = Tableau(((1, 2, 3), (4,)))
    monkeypatch.setattr(verify, "fold_map", lambda T: real(first))
    report = verify.verify_fold_equivariance(Partition((3, 1)))
    assert json.dumps(report.to_json()) == (
        '{"relation": "fold-equivariance", "n": 4, "shape": [3, 1], '
        '"status": "FAIL", "counterexample": {"reason": "fold is not a bijection"}}'
    )


def test_fold_equivariance_failure_record(monkeypatch):
    # s_i acting trivially breaks equivariance at the first tableau t_2 moves.
    monkeypatch.setattr(verify, "permutation_act_tabloid", lambda s, P: P)
    report = verify.verify_fold_equivariance(Partition((3, 1)))
    assert json.dumps(report.to_json()) == (
        '{"relation": "fold-equivariance", "n": 4, "shape": [3, 1], '
        '"status": "FAIL", "counterexample": '
        '{"i": 1, "tableau": {"rows": [[1, 2, 4], [3]]}}}'
    )


def test_disjoint_pair_failure_record(monkeypatch):
    # c[1,2] acts as c[2,3], which does not commute with c[3,4].  The
    # mirrored pair "c[3,4]c[1,2] disjoint" compares the same two
    # permutations and would come later, so listing it could not change
    # this record.
    real = verify.word_perm

    def broken(w, *args):
        if isinstance(w, CactusWord):
            J, K = Interval(1, 2), Interval(2, 3)
            w = CactusWord(w.n, tuple(K if f == J else f for f in w.factors))
        return real(w, *args)

    monkeypatch.setattr(verify, "word_perm", broken)
    report = verify.check_cactus_defining(5, (2, 1, 1, 1))
    assert json.dumps(report.to_json()) == (
        '{"relation": "cactus-defining", "n": 5, "shape": [2, 1, 1, 1], '
        '"status": "FAIL", "counterexample": '
        '{"tableau": {"rows": [[1, 1], [2], [3], [5]]}, '
        '"instance": "c[1,2]c[3,4] disjoint", '
        '"lhs": "c[1,2] c[3,4]", "rhs": "c[3,4] c[1,2]"}}'
    )


def test_each_disjoint_pair_is_listed_once():
    instances = [name for name, _, _ in verify.cactus_defining_pairs(5)]
    disjoint = [name for name in instances if name.endswith("disjoint")]
    assert len(instances) == 40 and len(disjoint) == 5
    assert "c[1,2]c[3,4] disjoint" in disjoint
    assert "c[3,4]c[1,2] disjoint" not in disjoint


def test_a_check_builds_nothing_after_its_first_failure(monkeypatch):
    built = []
    real = verify.word_perm

    def counted(w, *args):
        built.append(str(w))
        return real(w, *args)

    monkeypatch.setattr(verify, "word_perm", counted)
    report = verify.check_star_relation(5, (3, 2))
    assert report.counterexample["instance"] == "(t2 t3)^3"
    # (t3 t4)^3 and its identity are never built.
    assert built == [str(BKWord(5, (("t", 2), ("t", 3))) ** 3), "<identity>"]


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
        (RunConfig(n_min=2, n_max=5), "relations-n5.jsonl"),
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
    ids=["relations-n4", "relations-n5", "hooks-n5", "hooks-n12"],
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


def test_traced_pool_run_matches_the_committed_smoke_run(tmp_path):
    # The benchmark's tracer replaces the public cached builders by wrappers
    # without cache_clear; a pooled run under it must still drop each shard's
    # domains and print the untraced records.
    root = Path(__file__).resolve().parent.parent
    src = str(root / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = [sys.executable, str(root / "perfbench" / "child.py"), "cli"]
    trace = ["--trace", "full", "--trace-dir", str(tmp_path)]
    argv = ["verify", "relations", "--n-min", "2", "--n-max", "4", "--workers", "2"]
    proc = subprocess.run(
        [*child, *trace, "--", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr.decode()
    expected = root / "perfbench" / "expected" / "smoke-relations-n4.jsonl"
    assert proc.stdout == expected.read_bytes()
