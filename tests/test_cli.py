"""Command-line interface: subcommands, wire formats, exit codes."""

import json

import pytest

from cactus_tableaux.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


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
    ],
    ids=["syt-no-shape", "ssyt-no-m", "partitions-no-n", "shapes-not-list",
         "rows-not-list", "patterns-no-m", "shape-not-list", "nu-not-list",
         "content-not-list", "inner-not-list", "empty-word-non-semistandard",
         "empty-word-skew", "syt-too-deep", "kostka-too-deep"],
)
def test_malformed_input_exits_2_with_one_line(capsys, argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


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
