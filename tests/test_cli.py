"""Command-line interface: subcommands, wire formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cactus_tableaux.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_import_does_not_load_the_process_pool():
    """Neither importing the CLI nor a pooled verify run loads
    concurrent.futures or multiprocessing, nor dataclasses or inspect,
    which the value types do without."""
    import cactus_tableaux

    src = str(Path(cactus_tableaux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import cactus_tableaux.cli, sys\n"
        "unwanted = ('concurrent.futures', 'multiprocessing',"
        " 'dataclasses', 'inspect')\n"
        "print(sorted(m for m in unwanted if m in sys.modules), file=sys.stderr)\n"
        "rc = cactus_tableaux.cli.dispatch(['verify', 'relations', '--n-min', '2',"
        " '--n-max', '3', '--workers', '2'])\n"
        "print(sorted(m for m in unwanted if m in sys.modules), rc, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n[] 0\n"
    assert proc.stdout.endswith('"failed": 0}}\n')


def test_enumerate_partitions(capsys):
    code, lines = run(capsys, "enumerate", "partitions", "--n", "4")
    assert code == 0
    assert lines[0] == [4]
    assert len(lines) == 5


def test_enumerate_syt(capsys):
    code, lines = run(capsys, "enumerate", "syt", "--shape", "[2,1]")
    assert code == 0
    assert lines == [{"rows": [[1, 2], [3]]}, {"rows": [[1, 3], [2]]}]


def test_enumerate_ssyt_with_content(capsys):
    code, lines = run(
        capsys,
        "enumerate", "ssyt", "--shape", "[3,1]", "--m", "2", "--content", "[2,2]",
    )
    assert code == 0
    assert lines == [{"rows": [[1, 1, 2], [2]]}]


def test_enumerate_tabloids(capsys):
    code, lines = run(capsys, "enumerate", "tabloids", "--shape", "[2,2]")
    assert code == 0
    assert len(lines) == 6


def test_enumerate_tabloids_of_a_composition(capsys):
    code, lines = run(capsys, "enumerate", "tabloids", "--shape", "[1,2]")
    assert code == 0
    assert len(lines) == 3
    assert all(line["shape"] == [1, 2] for line in lines)


def test_enumerate_patterns(capsys):
    code, lines = run(
        capsys, "enumerate", "patterns", "--shape", "[1]", "--m", "2"
    )
    assert code == 0
    assert lines == [{"rows": [[1], [1, 0]]}, {"rows": [[0], [1, 0]]}]


def test_act_cactus_word(capsys):
    code, lines = run(
        capsys,
        "act", "--n", "3", "--word", "c[1,3]",
        "--tableau", '{"rows": [[1, 2], [3]]}',
    )
    assert code == 0
    assert lines == [{"rows": [[1, 3], [2]]}]


def test_act_bk_word(capsys):
    code, lines = run(
        capsys,
        "act", "--n", "5", "--word", "t3 t4 t3 t4 t3 t4",
        "--tableau", '{"rows": [[1, 3, 4], [2, 5]]}',
    )
    assert code == 0
    assert lines == [{"rows": [[1, 3, 5], [2, 4]]}]


def test_act_malformed_word_exits_2(capsys):
    code, _ = run(
        capsys, "act", "--n", "3", "--word", "z9", "--tableau", '{"rows": [[1]]}'
    )
    assert code == 2


def test_act_malformed_tableau_exits_2(capsys):
    code, _ = run(capsys, "act", "--n", "3", "--word", "t2", "--tableau", "[[1]]")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "syt"),
        ("enumerate", "ssyt", "--shape", "[2,1]"),
        ("enumerate", "partitions"),
        ("verify", "relations", "--n", "3", "--shapes", "5"),
        ("act", "--n", "3", "--word", "c[1,2]", "--tableau", '{"rows": 5}'),
        ("enumerate", "patterns", "--shape", "[2,1]"),
        ("decompose", "--shape", "5"),
        ("kostka", "--mu", "[2]", "--nu", "2"),
        ("enumerate", "ssyt", "--shape", "[2]", "--m", "2", "--content", "2"),
        ("fold", "--tableau", '{"rows": [[1]], "inner": 1}'),
        ("act", "--n", "3", "--word", "", "--tableau", '{"rows": [[3, 1], [1]]}'),
        ("act", "--n", "3", "--word", "", "--tableau", '{"rows": [[1]], "inner": [1]}'),
        ("enumerate", "syt", "--shape", "[1100]"),
        ("kostka", "--mu", "[1100]", "--nu", "[1100]"),
        ("act", "--n", "3", "--word", "t1", "--tableau", '{"rows":[[true]]}'),
        ("enumerate", "syt", "--shape", "[true,true]"),
        ("kostka", "--mu", "[true]", "--nu", "[true]"),
        ("verify", "relations", "--n", "2", "--shapes", "[[true,true]]"),
        ("verify", "relations", "--n-min", "3"),
        ("verify", "main-theorem", "--n-min", "4"),
        ("verify", "relations", "--n", "3", "--relations", ""),
        ("verify", "main-theorem", "--n", "4", "--relations", "star"),
    ],
    ids=["syt-no-shape", "ssyt-no-m", "partitions-no-n", "shapes-not-list",
         "rows-not-list", "patterns-no-m", "shape-not-list", "nu-not-list",
         "content-not-list", "inner-not-list", "empty-word-non-semistandard",
         "empty-word-skew", "syt-too-deep", "kostka-too-deep", "rows-bool",
         "shape-bool", "kostka-bool", "shapes-bool", "n-min-only",
         "main-theorem-n-min-only", "relations-empty",
         "main-theorem-relations"],
)
def test_malformed_input_exits_2_with_one_line(capsys, argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["relations", "main-theorem"])
def test_verify_n_10_without_allow_large_exits_2(capsys, command):
    # n = 10 is about 30.6M SSYT: refused up front, before anything is built.
    code = dispatch(["verify", command, "--n-min", "9", "--n-max", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: n > 9 needs the explicit large-run override\n"


def test_verify_relations_pass(capsys):
    code, lines = run(
        capsys,
        "verify", "relations", "--n", "3", "--relations", "cactus-defining",
    )
    assert code == 0
    summary = lines[-1]["summary"]
    assert summary == {"checked": 3, "passed": 3, "failed": 0}


def test_verify_reports_expected_fail(capsys):
    code, lines = run(
        capsys,
        "verify", "relations", "--n", "5", "--relations", "star",
        "--shapes", "[[3,2]]",
    )
    assert code == 0
    assert lines[0]["status"] == "EXPECTED-FAIL"
    assert "counterexample" in lines[0]


def test_verify_failure_exit_code(capsys):
    # the (2,2) star check is a genuine failure, so the run exits 1
    code, lines = run(
        capsys,
        "verify", "relations", "--n", "4", "--relations", "star",
        "--shapes", "[[2,2]]",
    )
    assert code == 1
    assert lines[-1]["summary"]["failed"] == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ("verify", "relations", "--n", "3", "--shapes", "[[2,2]]"),
            "no job for the shapes [[2, 2]] at n = 3..3",
        ),
        (
            ("verify", "main-theorem", "--n", "1"),
            "no job for the shapes all at n = 1..1",
        ),
        (
            ("verify", "relations", "--n-min", "2", "--n-max", "3",
             "--shapes", "[[2,2],[4]]"),
            "no job for the shapes [[2, 2], [4]] at n = 2..3",
        ),
    ],
    ids=["shape-of-another-size", "no-check-applies", "every-shape-unmatched"],
)
def test_verify_that_checks_nothing_exits_2(capsys, argv, error):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: nothing to verify: {error}\n"


def test_verify_with_some_shapes_unmatched_runs_the_rest(capsys):
    code, lines = run(
        capsys,
        "verify", "relations", "--n", "3", "--shapes", "[[2,2],[2,1]]",
        "--relations", "star",
    )
    assert code == 0
    assert lines == [
        {"relation": "star", "n": 3, "shape": [2, 1], "status": "PASS"},
        {"summary": {"checked": 1, "passed": 1, "failed": 0}},
    ]


def test_verify_repeated_relation_is_checked_once(capsys):
    code, lines = run(
        capsys,
        "verify", "relations", "--n", "3", "--shapes", "[[2,1]]",
        "--relations", "star,star",
    )
    assert code == 0
    assert lines == [
        {"relation": "star", "n": 3, "shape": [2, 1], "status": "PASS"},
        {"summary": {"checked": 1, "passed": 1, "failed": 0}},
    ]


def test_verify_main_theorem_target(capsys):
    code, lines = run(capsys, "verify", "main-theorem", "--n", "5")
    assert code == 0
    assert all(
        r["relation"] in ("main-theorem", "two-one-case")
        for r in lines[:-1]
    )


def test_verify_rejects_bad_range(capsys):
    code, _ = run(capsys, "verify", "relations", "--n-min", "5", "--n-max", "3")
    assert code == 2


def test_verify_hard_cap(capsys):
    code, _ = run(capsys, "verify", "relations", "--n", "11")
    assert code == 2


def test_verify_out_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = dispatch(
        [
            "verify", "relations", "--n", "3",
            "--relations", "cactus-defining", "--out", str(out),
        ]
    )
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[-1]["summary"]["failed"] == 0


def test_verify_failed_run_keeps_out_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    out.write_text("earlier report\n")
    code = dispatch(
        ["verify", "relations", "--n", "3", "--relations", "bogus",
         "--out", str(out)]
    )
    assert code == 2
    assert out.read_text() == "earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.jsonl"]


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.jsonl"
    code = dispatch(
        ["verify", "relations", "--n", "3", "--relations", "star",
         "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: No such file or directory\n"
    )


def test_verify_deterministic_output(capsys):
    args = ("verify", "relations", "--n", "4", "--relations", "star,reduced-cactus")
    dispatch(list(args))
    first = capsys.readouterr().out
    dispatch(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_decompose(capsys):
    code, lines = run(capsys, "decompose", "--shape", "[3,1,1]")
    assert code == 0
    assert lines == [
        {
            "degree": 4,
            "mults": [
                {"mu": [4], "mult": 1},
                {"mu": [3, 1], "mult": 1},
                {"mu": [2, 2], "mult": 1},
            ],
        }
    ]


def test_decompose_non_hook_exits_2(capsys):
    code, _ = run(capsys, "decompose", "--shape", "[2,2]")
    assert code == 2


def test_kostka(capsys):
    code, lines = run(capsys, "kostka", "--mu", "[3,1]", "--nu", "[2,2]")
    assert code == 0
    assert lines == [{"mu": [3, 1], "nu": [2, 2], "kostka": 1}]


def test_character_table(capsys):
    code, lines = run(capsys, "character-table", "--m", "3")
    assert code == 0
    # rows and columns both run over partitions reverse-lexicographically
    assert lines == [
        {"mu": [3], "values": [1, 1, 1]},
        {"mu": [2, 1], "values": [-1, 0, 2]},
        {"mu": [1, 1, 1], "values": [1, -1, 1]},
    ]


def test_fold(capsys):
    code, lines = run(
        capsys, "fold", "--tableau", '{"rows": [[1, 2, 3, 4, 5], [6], [7], [8]]}'
    )
    assert code == 0
    assert lines == [{"shape": [4, 3], "rows": [[1, 2, 3, 4], [5, 6, 7]]}]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 2


def test_verify_relations_at_n_1_passes(capsys):
    # Rank 1 has no generators, so chi-consistency compares nothing and passes.
    code, lines = run(capsys, "verify", "relations", "--n", "1", "--workers", "1")
    assert code == 0
    assert lines[-1]["summary"] == {"checked": 8, "passed": 8, "failed": 0}


# sha256 of the whole record stream of verify relations --n-min 2 --n-max 6.
RELATIONS_N6_SHA256 = (
    "24c3b60c0e5bf62b3877a25e1ad9312715d3a0c3d862b197feb9443e9c53a34e"
)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_relations_n6_stream_is_pinned(capsys, workers):
    # The committed benchmark outputs stop at n = 5; this pins n = 6, every
    # chi-consistency record included, byte for byte.  It exits 1 on the
    # standing failure of the star relation on (2,2).
    code = dispatch(
        ["verify", "relations", "--n-min", "2", "--n-max", "6", "--workers", workers]
    )
    out = capsys.readouterr().out.encode()
    assert code == 1
    assert hashlib.sha256(out).hexdigest() == RELATIONS_N6_SHA256


# sha256 of the record stream of verify relations --n 7 (134 records).
RELATIONS_N7_SHA256 = (
    "d8b3d080703883baad11ad2d74005d2129a589cdae9f4bb58ac94a81cece08ac"
)


def test_verify_relations_n7_pool_stream_is_pinned(capsys):
    # The pool path, where each worker drops its domains between shards.
    code = dispatch(["verify", "relations", "--n", "7", "--workers", "2"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert len(out.splitlines()) == 134 + 1
    assert hashlib.sha256(out).hexdigest() == RELATIONS_N7_SHA256


def test_verify_seed_is_accepted_and_ignored(capsys):
    argv = ["verify", "relations", "--n-min", "2", "--n-max", "4"]
    code = dispatch(argv)
    plain = capsys.readouterr().out
    assert dispatch(argv + ["--seed", "9"]) == code
    assert capsys.readouterr().out == plain


# ---------------------------------------------------------------------------
# Fuzzing: small argv draws never end in a traceback.

_small_int = st.integers(-1, 4)
_json_scalar = st.one_of(
    _small_int, st.booleans(), st.none(), st.just(2.0), st.just("1")
)
_json_list = st.lists(_json_scalar, max_size=4)
_json_rows = st.lists(st.lists(_small_int, max_size=3), max_size=3)


def _json(strategy):
    return strategy.map(json.dumps)


_shape_text = st.one_of(
    _json(st.lists(st.integers(0, 3), max_size=3)),
    _json(_json_list),
    st.sampled_from(["5", "[", "{}", "null"]),
)
_tableau_text = st.one_of(
    _json(st.fixed_dictionaries({"rows": _json_rows})),
    _json(
        st.fixed_dictionaries(
            {"rows": st.one_of(_json_rows, _json_list)}, optional={"inner": _json_list}
        )
    ),
    st.sampled_from(["[[1]]", "{}", "[", '{"rows": 5}']),
)
_word_text = st.lists(
    st.sampled_from(["t1", "t2", "p2", "q3", "c[1,2]", "c[2,4]", "c[3,1]", "t0", "x"]),
    max_size=3,
).map(" ".join)


@st.composite
def _argv(draw):
    command = draw(
        st.sampled_from(
            ["enumerate", "act", "verify", "decompose", "kostka",
             "character-table", "fold"]
        )
    )
    argv = [command]
    if command == "enumerate":
        argv.append(
            draw(st.sampled_from(["partitions", "syt", "ssyt", "tabloids", "patterns"]))
        )
        for flag, value in (
            ("--n", _small_int.map(str)),
            ("--shape", _shape_text),
            ("--m", _small_int.map(str)),
            ("--content", _shape_text),
        ):
            if draw(st.booleans()):
                argv += [flag, draw(value)]
    elif command == "act":
        argv += ["--n", str(draw(st.integers(1, 4))), "--word", draw(_word_text)]
        argv += ["--tableau", draw(_tableau_text)]
    elif command == "verify":
        argv += [draw(st.sampled_from(["relations", "main-theorem"]))]
        for flag in ("--n", "--n-min", "--n-max"):
            if draw(st.booleans()):
                argv += [flag, str(draw(st.integers(-1, 4)))]
        argv += ["--workers", "1"]
        argv += ["--shapes", draw(st.one_of(st.sampled_from(["all", "hooks"]),
                                            _json(st.lists(_json_list, max_size=2))))]
        if draw(st.booleans()):
            argv += ["--relations", draw(st.sampled_from(
                ["star", "bk-relations,star-sixth", "no-such-check", ""]))]
    elif command == "decompose":
        argv += ["--shape", draw(_shape_text)]
    elif command == "kostka":
        argv += ["--mu", draw(_shape_text), "--nu", draw(_shape_text)]
    elif command == "character-table":
        argv += ["--m", str(draw(_small_int))]
    else:
        argv += ["--tableau", draw(_tableau_text)]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_dispatch_fuzz_exits_0_1_or_2_without_traceback(argv):
    """An exception escaping dispatch fails the test, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code, usage = exc.code, True
        else:
            usage = False
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
        if not usage:
            assert err.getvalue().startswith("error: "), argv
            assert err.getvalue().count("\n") == 1, argv
