"""Command-line front end.

Everything is emitted as JSON lines on stdout (or to --out).  Exit codes:
0 success / all checks pass, 1 at least one unexpected verification
failure, 2 usage or input error (an input too deep for the recursion limit
included, and a verify run whose shapes, sizes and checks leave no job).
A Ctrl-C prints one line on stderr and ends the process by SIGINT, as a
SIGTERM ends it by SIGTERM; a forked verify run kills and reaps its
children first in both cases.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional, Sequence

from .shapes import Composition, Partition, enumerate_partitions
from .tableaux import (
    Tableau,
    enumerate_ssyt,
    enumerate_syt,
    enumerate_tabloids,
)
from .gt_patterns import to_pattern
from .group_actions import act, parse_word
from .representation import (
    character_table,
    decompose_schutzenberger,
    fold_map,
    kostka_number,
)
from .verify import ALL_CHECKS, RunConfig, Summary, batch_verify


def _emit(stream, obj) -> None:
    stream.write(json.dumps(obj, separators=(", ", ": ")) + "\n")


def _required(value, flag: str, command: str):
    if value is None:
        raise ValueError(f"{command} needs {flag}")
    return value


def _is_int_list(obj) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not integers.
    return isinstance(obj, list) and all(type(x) is int for x in obj)


def _int_list(text: str, what: str) -> list[int]:
    obj = json.loads(text)
    if not _is_int_list(obj):
        raise ValueError(f"{what} must be a JSON array of integers")
    return obj


def _parse_shape(text: str) -> Partition:
    return Partition(_int_list(text, "shape"))


def _parse_tableau(text: str) -> Tableau:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError("tableau JSON must be an object with a 'rows' field")
    rows = obj["rows"]
    if not (isinstance(rows, list) and all(_is_int_list(row) for row in rows)):
        raise ValueError("tableau 'rows' must be a JSON array of integer arrays")
    if not _is_int_list(obj.get("inner", [])):
        raise ValueError("tableau 'inner' must be a JSON array of integers")
    return Tableau.from_json(obj)


def _cmd_enumerate(args, stream) -> int:
    command = f"enumerate {args.what}"
    if args.what == "partitions":
        for lam in enumerate_partitions(_required(args.n, "--n", command)):
            _emit(stream, list(lam))
        return 0
    text = _required(args.shape, "--shape", command)
    if args.what == "tabloids":
        # Tabloids are indexed by compositions, not only by partitions.
        for p in enumerate_tabloids(Composition(_int_list(text, "shape"))):
            _emit(stream, p.to_json())
        return 0
    shape = _parse_shape(text)
    if args.what in ("ssyt", "patterns"):
        _required(args.m, "--m", command)
    if args.what == "syt":
        for t in enumerate_syt(shape):
            _emit(stream, t.to_json())
    elif args.what == "ssyt":
        content = (
            Composition(_int_list(args.content, "content")) if args.content else None
        )
        for t in enumerate_ssyt(shape, args.m, content_filter=content):
            _emit(stream, t.to_json())
    elif args.what == "patterns":
        for t in enumerate_ssyt(shape, args.m):
            _emit(stream, to_pattern(t, args.m).to_json())
    return 0


def _cmd_act(args, stream) -> int:
    word = parse_word(args.word, args.n)
    tableau = _parse_tableau(args.tableau)
    _emit(stream, act(word, tableau).to_json())
    return 0


def _make_config(args) -> RunConfig:
    if args.shapes in ("all", "hooks"):
        shapes = args.shapes
    else:
        shapes = json.loads(args.shapes)
        if not (isinstance(shapes, list) and all(map(_is_int_list, shapes))):
            raise ValueError(
                "--shapes must be all, hooks or a JSON array of integer arrays"
            )
        shapes = tuple(tuple(s) for s in shapes)
    n_min = args.n_min if args.n_min is not None else args.n
    n_max = args.n_max if args.n_max is not None else args.n
    if n_min is None or n_max is None:
        raise ValueError("give --n or --n-min/--n-max")
    relations = (
        tuple(args.relations.split(","))
        if args.relations is not None
        else ALL_CHECKS
    )
    return RunConfig(
        n_min=n_min,
        n_max=n_max,
        shapes=shapes,
        relations=relations,
        workers=args.workers,
        allow_large=args.allow_large,
    )


def _emit_summary(summary: Summary, stream) -> int:
    for record in summary.records:
        _emit(stream, record)
    _emit(stream, {"summary": summary.to_json()})
    return 1 if summary.failed else 0


def _cmd_verify(args, stream) -> int:
    if args.target == "main-theorem":
        if args.relations is not None:
            raise ValueError("verify main-theorem takes no --relations")
        args.relations = "main-theorem"
    config = _make_config(args)
    summary = batch_verify(config)
    if not summary.checked:
        shapes = config.shapes
        named = shapes if isinstance(shapes, str) else json.dumps(shapes)
        raise ValueError(
            f"nothing to verify: no job for the shapes {named}"
            f" at n = {config.n_min}..{config.n_max}"
        )
    return _emit_summary(summary, stream)


def _cmd_decompose(args, stream) -> int:
    vec = decompose_schutzenberger(_parse_shape(args.shape))
    _emit(stream, vec.to_json())
    return 0


def _cmd_kostka(args, stream) -> int:
    mu = _parse_shape(args.mu)
    nu = Composition(_int_list(args.nu, "nu"))
    _emit(stream, {"mu": list(mu), "nu": list(nu), "kostka": kostka_number(mu, nu)})
    return 0


def _cmd_character_table(args, stream) -> int:
    table = character_table(args.m)
    for mu, row in zip(table.partitions, table.values):
        _emit(stream, {"mu": list(mu), "values": list(row)})
    return 0


def _cmd_fold(args, stream) -> int:
    _emit(stream, fold_map(_parse_tableau(args.tableau)).to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cactus-tableaux",
        description="Exact tableau combinatorics and group-action verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate combinatorial objects")
    p.add_argument(
        "what", choices=["partitions", "syt", "ssyt", "tabloids", "patterns"]
    )
    p.add_argument("--n", type=int, help="size (for partitions)")
    p.add_argument("--shape", help="shape as a JSON array")
    p.add_argument("--m", type=int, default=None, help="alphabet size")
    p.add_argument("--content", help="content filter as a JSON array")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("act", help="apply a group word to a tableau")
    p.add_argument("--n", type=int, required=True, help="ambient rank")
    p.add_argument("--word", required=True, help='e.g. "c[1,3]" or "t2 q3"')
    p.add_argument("--tableau", required=True, help="tableau as JSON")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("target", choices=["relations", "main-theorem"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--shapes", default="all", help='all | hooks | JSON list')
    p.add_argument(
        "--relations",
        default=None,
        help="comma-separated subset of: " + ",".join(ALL_CHECKS),
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decompose", help="hook-shape module decomposition")
    p.add_argument("--shape", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("kostka", help="Kostka number K_{mu,nu}")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=_cmd_kostka)

    p = sub.add_parser("character-table", help="symmetric group characters")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_character_table)

    p = sub.add_parser("fold", help="fold a standard hook tableau to a tabloid")
    p.add_argument("--tableau", required=True)
    p.set_defaults(func=_cmd_fold)

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_path = getattr(args, "out", None)
    try:
        if out_path:
            return _run_to_file(args, out_path)
        return args.func(args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # The enumerators recurse once per cell; a shape too large for the
        # stack is an input this program cannot take.
        print("error: input too deep for the recursion limit", file=sys.stderr)
        return 2


def _run_to_file(args, path: str) -> int:
    """Run the command into a temporary file beside ``path``, then move it
    into place; a command that raises leaves ``path`` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as stream:
            code = args.func(args, stream)
        os.replace(tmp, path)
    except OSError as exc:
        _discard(tmp)
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    except BaseException:
        _discard(tmp)
        raise
    return code


def _discard(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def main() -> None:
    try:
        code = dispatch()
    except KeyboardInterrupt:
        # One line instead of a traceback.  Then the process dies by SIGINT
        # with its default action, as after an uncaught KeyboardInterrupt,
        # so its wait status stays; stdout is flushed first, as exit does.
        import signal

        print("error: interrupted", file=sys.stderr)
        with contextlib.suppress(OSError, ValueError):
            sys.stdout.flush()
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
