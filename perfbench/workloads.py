"""Workload definitions, seeded input generation and output checks.

Three workloads run the ``cactus-tableaux verify`` command line and compare
its stdout and exit code with a stored expected output; ``act-stream`` calls
``act(word, T)`` in a closed loop on seeded inputs.  Why each workload is in
the benchmark is written in BENCHMARK.json and README.md.  ``bk-n7`` and
``act-stream`` run when asked for but are left out of BENCHMARK.json, so that
the two listed workloads get runs long enough to be steady (README.md,
"Steadiness and bounds"); the act sampler still runs on every workload as the
act control run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected"

# Calls per chunk of the act control run of the verify workloads, which
# report the act metrics too.  A run makes at least four chunks: 1,000 calls
# leave 10 samples beyond p99.
ACT_CONTROL_CALLS = 250
# Seed whose act outputs are also compared with a stored digest.
DIGEST_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    # CLI arguments after ``cactus-tableaux``; "{seed}" is replaced.  Empty
    # for the in-process act-stream workload.
    argv: tuple[str, ...] = ()
    expected: str = ""  # file under expected/ with the CLI's stdout
    expected_exit: int = 0
    act_calls: int = ACT_CONTROL_CALLS

    def cli_args(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]

    @property
    def workers(self) -> int:
        argv = list(self.argv)
        return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="relations-n5",
            argv=(
                "verify", "relations", "--n-min", "2", "--n-max", "5",
                "--workers", "2", "--seed", "{seed}",
            ),
            expected="relations-n5.jsonl",
            # Criterion 5: the star relation fails on (2,2) at n = 4.
            expected_exit=1,
        ),
        Workload(
            name="bk-n7",
            argv=("verify", "relations", "--n", "7", "--relations", "bk-relations"),
            expected="bk-n7.jsonl",
        ),
        Workload(name="act-stream", act_calls=2000),
        Workload(
            name="hooks-n12",
            argv=(
                "verify", "main-theorem", "--n-min", "4", "--n-max", "12",
                "--shapes", "hooks", "--allow-large",
            ),
            expected="hooks-n12.jsonl",
        ),
    )
}

# Minimal sizes of the same workloads, for the self-test.
SMOKE = {
    "relations-n5": Workload(
        name="relations-n5",
        argv=(
            "verify", "relations", "--n-min", "2", "--n-max", "4",
            "--workers", "2", "--seed", "{seed}",
        ),
        expected="smoke-relations-n4.jsonl",
        expected_exit=1,
        act_calls=20,
    ),
    "bk-n7": Workload(
        name="bk-n7",
        argv=("verify", "relations", "--n", "4", "--relations", "bk-relations"),
        expected="smoke-bk-n4.jsonl",
        act_calls=20,
    ),
    "act-stream": Workload(name="act-stream", act_calls=20),
    "hooks-n12": Workload(
        name="hooks-n12",
        argv=(
            "verify", "main-theorem", "--n-min", "4", "--n-max", "5",
            "--shapes", "hooks",
        ),
        expected="smoke-hooks-n5.jsonl",
        act_calls=20,
    ),
}


def count_ssyt(shape: tuple[int, ...], m: int) -> int:
    """|SSYT(shape, m)| by the hook-content formula."""
    num = den = 1
    for r, length in enumerate(shape):
        for c in range(length):
            leg = sum(1 for below in shape[r + 1 :] if below > c)
            num *= m + c - r
            den *= length - c + leg
    return num // den


def random_ssyt(rng: random.Random, lam: tuple[int, ...], m: int) -> list[list[int]]:
    """Rows of a uniform random T in SSYT(lam, m).

    Walks the Gelfand-Tsetlin chain down from lam: the shape of the entries
    <= j-1 is drawn among the shapes interlacing the shape of the entries
    <= j, weighted by how many tableaux complete it.
    """
    chain = [tuple(lam)]
    for j in range(m, 1, -1):
        outer = chain[-1]
        lows = [outer[i + 1] if i + 1 < len(outer) else 0 for i in range(len(outer))]
        candidates = [
            tuple(p for p in mu if p)
            for mu in itertools.product(
                *(range(lo, hi + 1) for lo, hi in zip(lows, outer))
            )
        ]
        weights = [count_ssyt(mu, j - 1) for mu in candidates]
        chain.append(rng.choices(candidates, weights)[0])
    chain.append(())
    chain.reverse()  # chain[j] is the shape of the entries <= j
    rows: list[list[int]] = [[] for _ in lam]
    for j in range(1, m + 1):
        for i, length in enumerate(chain[j]):
            before = chain[j - 1][i] if i < len(chain[j - 1]) else 0
            rows[i] += [j] * (length - before)
    return rows


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in reverse lexicographic order.

    The sampler uses no package code, so that a change to the package can
    never change the inputs a seed gives."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [
        (first, *rest)
        for first in range(min(n, largest), 0, -1)
        for rest in partitions(n - first, first)
    ]


def act_inputs(seed: int, calls: int) -> list[list]:
    """Seeded act inputs as [n, word text, tableau rows].

    Even-numbered calls get a cactus word of c[a,b] factors, uniform over
    1 <= a < b <= n; odd-numbered calls a t/p/q word, kind and level 1..n-1
    uniform.  n in {6, 7} and the word length in 1..4 cycle through every
    combination, so each seed has the same mix: the median latency sits
    between the cheap t/p/q calls and the dearer cactus calls, and drawing
    the mix at random moved it by about 12 % between seeds.  lambda is
    uniform over the partitions of n and T uniform over SSYT(lambda, n).
    """
    rng = random.Random(seed)
    out = []
    for i in range(calls):
        n = 6 + (i // 8) % 2
        length = 1 + (i // 2) % 4
        rows = random_ssyt(rng, rng.choice(partitions(n)), n)
        if i % 2 == 0:
            intervals = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
            word = " ".join(
                "c[%d,%d]" % rng.choice(intervals) for _ in range(length)
            )
        else:
            word = " ".join(
                f"{rng.choice('tpq')}{rng.randint(1, n - 1)}"
                for _ in range(length)
            )
        out.append([n, word, rows])
    return out


def inverse_word(word: str, n: int) -> str:
    """The word undoing ``word``: every generator c[a,b] and t_k is an
    involution, so reverse the factors, with p/q atoms expanded into t's."""
    from cactus_tableaux.group_actions import parse_bk_word

    if word.startswith("c["):
        return " ".join(reversed(word.split()))
    return " ".join(f"t{k}" for k in reversed(parse_bk_word(word, n).expand()))


def act_digest(outputs: list) -> str:
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


def expected_digest(seed: int, start: int, calls: int) -> str | None:
    """Stored digest of the act outputs for inputs start .. start+calls-1 of
    the seed's sequence, for DIGEST_SEED only."""
    if seed != DIGEST_SEED:
        return None
    digests = json.loads((EXPECTED / "act-digests.json").read_text())
    return digests.get(f"{start}+{calls}")


def check_act(inputs: list[list], outputs: list) -> int:
    """Number of failed calls: the call raised, the shape changed, the result
    is not semistandard, or the inverse word does not restore the input."""
    from cactus_tableaux.group_actions import act, parse_word
    from cactus_tableaux.tableaux import Tableau

    failed = 0
    for (n, word, rows), out_rows in zip(inputs, outputs, strict=True):
        if out_rows is None:
            failed += 1
            continue
        try:
            T = Tableau(tuple(map(tuple, rows)))
            out = Tableau(tuple(map(tuple, out_rows)))
            ok = (
                out.outer == T.outer
                and out.is_semistandard()
                and act(parse_word(inverse_word(word, n), n), out) == T
            )
        except (ValueError, TypeError):  # malformed output rows
            ok = False
        failed += not ok
    return failed


def check_cli(workload: Workload, rc: int, stdout: str) -> tuple[int, int]:
    """(records attempted, records failed) against the expected output.

    Each expected record line that is missing or differs counts as failed;
    a wrong exit code or a wrong summary line fails every record.
    """
    expected = (EXPECTED / workload.expected).read_text().splitlines()
    records = expected[:-1]
    got = stdout.splitlines()
    if rc != workload.expected_exit or got[-1:] != expected[-1:]:
        return len(records), len(records)
    failed = sum(
        1 for i, line in enumerate(records) if i >= len(got) or got[i] != line
    )
    failed += max(0, len(got) - len(expected))
    return len(records), min(failed, len(records))
