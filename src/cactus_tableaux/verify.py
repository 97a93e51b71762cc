"""Relation checks, the one check registry, and the batch verification driver.

A check is a function ``(n, shape)`` that decides one claim on one
domain and returns a :class:`RelationReport`: PASS, or FAIL with a
replayable counterexample.  Two words are compared extensionally, through
the permutations they induce on SSYT(shape, n) or SYT(shape), and the first
tableau on which they differ is reported.

``CHECKS`` is the registry: the check function of each name, the shapes it
applies to, and the shapes on which it is expected to pass.  The star
relation is predicted to fail off hooks and (2,2), so those failures are
recorded as EXPECTED-FAIL, and a pass there is itself a suite failure
(UNEXPECTED-PASS).

Every (n, shape, check) job of a run is grouped into one shard per
(n, shape), so the domain of that shape and its cached generator
permutations are built once, in the process that runs all of its checks,
and dropped when the shard ends: no other shard reads them.
With ``workers`` w > 1, w processes run the shards: this one and w - 1
``os.fork`` children, never more than there are shards.  The shard
indices, largest domain first, sit in one pipe as 4-byte tickets, and each
process takes the next ticket whenever it is free, until the pipe is
empty.  Each child sends its (job, report) pairs back pickled, once, on a
pipe of its own, which this process reads between its own shards, so a
child's failure ends the run before this process starts another shard.
The records are sorted by (n, shape, check) afterwards, so the output does
not depend on the worker count.  Where ``os.fork`` is missing, the run
stays in this process.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import os
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, NoReturn, Optional

from .shapes import (
    Interval,
    Partition,
    Permutation,
    enumerate_partitions,
    is_hook,
    value_type,
)
from .tableaux import (
    Tableau,
    _drop_domains,
    _index,
    _ssyt_count,
    enumerate_tabloids,
    permutation_act_tabloid,
)
from .group_actions import (
    BKAtom,
    BKWord,
    CactusWord,
    Word,
    bk_t_perm,
    chi_translate,
    interval_perm,
    promotion_perm,
    word_perm,
)
from .representation import (
    HookShape,
    decompose_schutzenberger,
    fold_map,
    kostka_vector,
)

HARD_CAP = 9  # the largest n a run takes without allow_large: n = 10 is 30.6M SSYT

Shape = tuple[int, ...]
Job = tuple[int, Shape, str]  # (n, shape, check)


@value_type
class RelationReport:
    relation: str
    n: int
    shape: Shape
    status: str  # PASS | FAIL
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        obj: dict = {
            "relation": self.relation,
            "n": self.n,
            "shape": list(self.shape),
            "status": self.status,
        }
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        return obj


# ---------------------------------------------------------------------------
# Comparing permutations of a domain.


def _compare(
    relation: str,
    n: int,
    lam: Shape,
    domain: str,
    comparisons: Iterable[tuple[Permutation, Permutation, object]],
    describe: Callable[[object], dict] = dict,
) -> RelationReport:
    """PASS, or FAIL at the first comparison whose two sides differ.

    ``comparisons`` yields (lhs, rhs, label) and is consumed lazily, so
    no permutation after the first failure is built.  The counterexample
    is the first tableau of the domain on which the sides differ, followed
    by the fields ``describe(label)``, which only the failing comparison
    formats.
    """
    for lhs, rhs, label in comparisons:
        if lhs != rhs:
            index = _index(lam, n if domain == "ssyt" else None)
            i = next(i for i, x in enumerate(lhs.images) if x != rhs.images[i])
            rows = next(itertools.islice(index, i, None))
            ce = {"tableau": Tableau(rows).to_json(), **describe(label)}
            return RelationReport(relation, n, lam, "FAIL", ce)
    return RelationReport(relation, n, lam, "PASS")


WordPair = tuple[Optional[str], Word, Word]


def _pair_fields(pair: WordPair) -> dict:
    """The counterexample fields of a (name, lhs, rhs) pair; a pair named
    None reports no ``instance`` field."""
    name, lhs, rhs = pair
    fields = {} if name is None else {"instance": name}
    return {**fields, "lhs": str(lhs), "rhs": str(rhs)}


def _check_word_pairs(
    relation: str, n: int, shape: Shape, pairs: Iterable[WordPair], domain: str
) -> RelationReport:
    """Compare both words of each (name, lhs, rhs) pair on the domain.

    The shape is checked once, here: ``word_perm`` takes a ``Partition``
    as it is.
    """
    lam = Partition(shape)
    comparisons = (
        (word_perm(pair[1], lam, n, domain), word_perm(pair[2], lam, n, domain), pair)
        for pair in pairs
    )
    return _compare(relation, n, tuple(lam), domain, comparisons, _pair_fields)


# ---------------------------------------------------------------------------
# Both sides of each relation, as words.


def _cw(n: int, *factors: tuple[int, int]) -> CactusWord:
    return CactusWord(n, tuple(Interval(*f) for f in factors))


def _bw(n: int, *atoms: BKAtom) -> BKWord:
    return BKWord(n, tuple(atoms))


def _intervals(n: int) -> list[Interval]:
    return [Interval(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]


def _interval_pairs(n: int) -> Iterable[tuple[Interval, Interval]]:
    """Ordered pairs (J, K) of generator intervals, lexicographic in J, then K."""
    return itertools.product(_intervals(n), repeat=2)


def _nested(J: Interval, K: Interval) -> bool:
    return J.a <= K.a and K.b <= J.b


def _reflect(J: Interval, K: Interval) -> Interval:
    """K reflected inside J."""
    return Interval(J.a + J.b - K.b, J.a + J.b - K.a)


# The word pairs of each relation depend on n alone, so each builder runs
# once per n and returns a tuple, which no caller can change.


@lru_cache(maxsize=None)
def cactus_defining_pairs(n: int) -> tuple[tuple[str, CactusWord, CactusWord], ...]:
    """Both sides of every defining relation, as words.

    A disjoint pair is listed once, with J before K: "K J = J K" compares
    the same two permutations as "J K = K J", and would come later.
    """
    e = _cw(n)
    pairs = [(f"{J}^2", _cw(n, J, J), e) for J in _intervals(n)]
    for J, K in _interval_pairs(n):
        if J.b < K.a:
            pairs.append((f"{J}{K} disjoint", _cw(n, J, K), _cw(n, K, J)))
        elif _nested(J, K) and J != K:
            pairs.append((f"{J}{K} nested", _cw(n, J, K), _cw(n, _reflect(J, K), J)))
    return tuple(pairs)


@lru_cache(maxsize=None)
def bk_relation_pairs(n: int) -> tuple[tuple[str, BKWord, BKWord], ...]:
    pairs = []
    e = _bw(n)
    for k in range(1, n):
        pairs.append((f"t{k}^2", _bw(n, ("t", k), ("t", k)), e))
    for k in range(1, n):
        for l in range(k + 2, n):
            pairs.append(
                (
                    f"t{k} t{l} commute",
                    _bw(n, ("t", k), ("t", l)),
                    _bw(n, ("t", l), ("t", k)),
                )
            )
    if n >= 3:
        pairs.append(("(t1 t2)^6", _bw(n, ("t", 1), ("t", 2)) ** 6, e))
    for k in range(3, n):
        pairs.append(
            (f"(t1 q{k})^4", _bw(n, ("t", 1), ("q", k)) ** 4, e)
        )
    return tuple(pairs)


@lru_cache(maxsize=None)
def _star_pairs(n: int, e: int) -> tuple[tuple[str, BKWord, BKWord], ...]:
    """(t_k t_{k+1})^e against the identity, for 2 <= k <= n - 2."""
    one = _bw(n)
    return tuple(
        (f"(t{k} t{k + 1})^{e}", _bw(n, ("t", k), ("t", k + 1)) ** e, one)
        for k in range(2, n - 1)
    )


@lru_cache(maxsize=None)
def _generators(n: int) -> tuple[CactusWord, ...]:
    """The one-factor words c[a,b], in ``_intervals`` order."""
    return tuple(_cw(n, J) for J in _intervals(n))


@lru_cache(maxsize=None)
def _atom_words(n: int, kind: str) -> tuple[BKWord, ...]:
    """The one-atom words kind_1, ..., kind_{n-1}."""
    return tuple(_bw(n, (kind, k)) for k in range(1, n))


@lru_cache(maxsize=None)
def _xi_pairs(n: int) -> tuple[tuple[str, CactusWord, CactusWord], ...]:
    """The disjoint and the nesting relation of the interval involutions."""
    pairs = [
        (f"xi[{J.a},{J.b}] xi[{K.a},{K.b}] commute", _cw(n, J, K), _cw(n, K, J))
        for J, K in _interval_pairs(n)
        if J.b + 1 < K.a
    ]
    pairs += [
        (
            f"xi[{J.a},{J.b}] xi[{K.a},{K.b}] xi[{J.a},{J.b}]",
            _cw(n, J, K, J),
            _cw(n, _reflect(J, K)),
        )
        for J, K in _interval_pairs(n)
        if _nested(J, K)
    ]
    return tuple(pairs)


@lru_cache(maxsize=None)
def _reduced_pairs(n: int) -> tuple[tuple[str, CactusWord, CactusWord], ...]:
    """The braid-like quotient relations, against the identity."""
    if n < 3:
        return ()
    e = _cw(n)
    return (
        ("(c[1,2] c[2,3])^3", _cw(n, (1, 2), (2, 3)) ** 3, e),
        ("(c[1,2] c[1,3])^6", _cw(n, (1, 2), (1, 3)) ** 6, e),
    )


# ---------------------------------------------------------------------------
# The checks, each (n, shape) -> RelationReport.


def check_cactus_defining(n: int, shape: Shape) -> RelationReport:
    return _check_word_pairs(
        "cactus-defining", n, shape, cactus_defining_pairs(n), "ssyt"
    )


def check_xi_relations(n: int, shape: Shape) -> RelationReport:
    """The two interval-involution relations: disjoint and nesting."""
    return _check_word_pairs("xi-relations", n, shape, _xi_pairs(n), "ssyt")


def check_bk_relations(n: int, shape: Shape) -> RelationReport:
    return _check_word_pairs(
        "bk-relations", n, shape, bk_relation_pairs(n), "ssyt"
    )


def check_pq_promotion(n: int, shape: Shape) -> RelationReport:
    """p_k acts as bounded promotion at k+1; q_k as xi_[1,k+1]."""
    shape = Partition(shape)
    lam = tuple(shape)

    def comparisons():
        words = zip(_atom_words(n, "p"), _atom_words(n, "q"))
        for k, (p, q) in enumerate(words, start=1):
            yield (
                word_perm(p, shape, n, "ssyt"),
                promotion_perm(lam, n, k + 1),
                {"instance": f"p{k} vs promotion_{k + 1}"},
            )
            yield (
                word_perm(q, shape, n, "ssyt"),
                interval_perm(lam, n, 1, k + 1),
                {"instance": f"q{k} vs xi[1,{k + 1}]"},
            )

    return _compare("pq-promotion", n, lam, "ssyt", comparisons())


def check_chi_consistency(n: int, shape: Shape) -> RelationReport:
    """Each generator c[a,b] and its translation induce the same permutation.

    That decides every cactus word: ``chi_translate`` works factor by factor
    and ``word_perm`` multiplies factor permutations, so on both sides a
    word's permutation is the product of its factors' permutations.  The
    translations are made by each check, not cached per n: they are what
    the check is about.
    """
    pairs = [(None, w, chi_translate(w)) for w in _generators(n)]
    return _check_word_pairs("chi-consistency", n, shape, pairs, "ssyt")


def check_reduced_cactus(n: int, shape: Shape) -> RelationReport:
    """The braid-like quotient relations act trivially on SYT."""
    return _check_word_pairs("reduced-cactus", n, shape, _reduced_pairs(n), "syt")


def check_star_relation(n: int, shape: Shape) -> RelationReport:
    """(t_k t_{k+1})^3 = 1 on SYT for k >= 2; holds iff hook or (2,2)."""
    return _check_word_pairs("star", n, shape, _star_pairs(n, 3), "syt")


def check_star_sixth(n: int, shape: Shape) -> RelationReport:
    """(t_k t_{k+1})^6 = 1 on SYT for every shape."""
    return _check_word_pairs("star-sixth", n, shape, _star_pairs(n, 6), "syt")


def star_relation_expected(shape: Partition) -> bool:
    """Shapes on which the star relation is predicted to hold."""
    lam = Partition(shape)
    return is_hook(lam) or lam == Partition((2, 2))


# ---------------------------------------------------------------------------
# The hook-shape theorems on SYT.


def verify_main_theorem(lam: Partition) -> RelationReport:
    """Check the decomposition equals the Kostka vector; the dimension
    identity is checked inside ``decompose_schutzenberger``."""
    lam = Partition(lam)
    n = lam.size
    module_side = decompose_schutzenberger(lam)
    kostka_side = kostka_vector(lam)
    if module_side.mults != kostka_side.mults:
        ce = {"module": module_side.to_json(), "kostka": kostka_side.to_json()}
        return RelationReport("main-theorem", n, tuple(lam), "FAIL", ce)
    return RelationReport("main-theorem", n, tuple(lam), "PASS")


def verify_two_one_case() -> RelationReport:
    """The outlying (2,1) module: c[1,3] swaps the basis, c[1,2]/c[2,3] fix it."""
    lam = (2, 1)
    swap = interval_perm(lam, None, 1, 3)
    fix12 = interval_perm(lam, None, 1, 2)
    fix23 = interval_perm(lam, None, 2, 3)
    ok = (
        swap == Permutation((2, 1))
        and fix12.is_identity()
        and fix23.is_identity()
    )
    return RelationReport(
        "two-one-case", 3, lam, "PASS" if ok else "FAIL",
        None if ok else {"c13": repr(swap), "c12": repr(fix12), "c23": repr(fix23)},
    )


def verify_fold_equivariance(lam: Partition) -> RelationReport:
    """Fold is a bijection intertwining s_i with t_{i+1}."""
    lam = Partition(lam)
    hook = HookShape.from_partition(lam)
    n = lam.size
    domain = list(_index(tuple(lam), None))
    folded = [fold_map(Tableau(rows)) for rows in domain]
    if len(set(folded)) != len(folded) or len(folded) != len(
        enumerate_tabloids(hook.tilde)
    ):
        return RelationReport(
            "fold-equivariance", n, tuple(lam), "FAIL",
            {"reason": "fold is not a bijection"},
        )
    for i in range(1, n - 1):
        perm = bk_t_perm(tuple(lam), None, i + 1)
        s_i = Permutation.transposition(n - 1, i, i + 1)
        for j, rows in enumerate(domain):
            lhs = folded[perm(j + 1) - 1]
            rhs = permutation_act_tabloid(s_i, folded[j])
            if lhs != rhs:
                return RelationReport(
                    "fold-equivariance", n, tuple(lam), "FAIL",
                    {"i": i, "tableau": Tableau(rows).to_json()},
                )
    return RelationReport("fold-equivariance", n, tuple(lam), "PASS")


def check_main_theorem(n: int, shape: Shape) -> RelationReport:
    """The hook theorem on SYT(shape); (2,1) is its outlying case."""
    if shape == (2, 1):
        return verify_two_one_case()
    return verify_main_theorem(Partition(shape))


def check_fold_equivariance(n: int, shape: Shape) -> RelationReport:
    return verify_fold_equivariance(Partition(shape))


# ---------------------------------------------------------------------------
# The registry and the driver.


class Check(NamedTuple):
    run: Callable[[int, Shape], RelationReport]
    applies: Callable[[Partition], bool] = lambda lam: True  # shapes to run on
    expected: Callable[[Partition], bool] = lambda lam: True  # shapes it holds on


def _on_hooks(lam: Partition) -> bool:
    return is_hook(lam) and lam.size >= 2


CHECKS: dict[str, Check] = {
    "cactus-defining": Check(check_cactus_defining),
    "xi-relations": Check(check_xi_relations),
    "bk-relations": Check(check_bk_relations),
    "pq-promotion": Check(check_pq_promotion),
    "chi-consistency": Check(check_chi_consistency),
    "reduced-cactus": Check(check_reduced_cactus),
    "star": Check(check_star_relation, expected=star_relation_expected),
    "star-sixth": Check(check_star_sixth),
    "main-theorem": Check(check_main_theorem, applies=_on_hooks),
    "fold-equivariance": Check(check_fold_equivariance, applies=_on_hooks),
}
ALL_CHECKS = tuple(CHECKS)


@value_type
class RunConfig:
    n_min: int
    n_max: int
    shapes: str | tuple[tuple[int, ...], ...] = "all"  # all | hooks | explicit
    relations: tuple[str, ...] = ALL_CHECKS
    workers: int = 1
    allow_large: bool = False

    def __post_init__(self):
        for name in ("n_min", "n_max", "workers"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("invalid n range")
        if self.n_max > HARD_CAP and not self.allow_large:
            raise ValueError(
                f"n > {HARD_CAP} needs the explicit large-run override"
            )
        if isinstance(self.shapes, str) and self.shapes not in ("all", "hooks"):
            raise ValueError(
                "shapes must be 'all', 'hooks' or a tuple of shapes,"
                f" not {self.shapes!r}"
            )
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")
        for name in self.relations:
            if name not in CHECKS:
                raise ValueError(f"unknown check {name!r}")


class Summary:
    """The counts and records of one run; ``batch_verify`` fills it in."""

    def __init__(
        self,
        checked: int = 0,
        passed: int = 0,
        failed: int = 0,
        records: Optional[list[dict]] = None,
    ):
        self.checked = checked
        self.passed = passed
        self.failed = failed
        self.records = [] if records is None else records

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
        }


def _shapes_for(config: RunConfig, n: int) -> list[Partition]:
    if config.shapes == "all":
        return enumerate_partitions(n)
    if config.shapes == "hooks":
        return [lam for lam in enumerate_partitions(n) if is_hook(lam)]
    # Each distinct shape once, in first-seen order ([2,1,0] is [2,1]).
    shapes = dict.fromkeys(Partition(s) for s in config.shapes)
    return [lam for lam in shapes if lam.size == n]


def _run_check(job: Job) -> RelationReport:
    n, shape, name = job
    return CHECKS[name].run(n, shape)


def _run_shard(shard: list[Job]) -> list[tuple[Job, RelationReport]]:
    """Run every check of one (n, shape) in this process, then drop its domains."""
    try:
        return [(job, _run_check(job)) for job in shard]
    finally:
        _drop_domains()


_TICKET = 4  # bytes per shard index in the ticket pipe


def _pull(
    shards: list[list[Job]], tickets: int, poll: Callable[[], None] = lambda: None
) -> list[tuple[Job, RelationReport]]:
    """Run the shard of each ticket read from ``tickets`` until the pipe is
    empty, calling ``poll`` after each one.  Every ticket is written whole
    in one write of at most PIPE_BUF bytes, so a read never splits one."""
    pairs = []
    while ticket := os.read(tickets, _TICKET):
        pairs += _run_shard(shards[int.from_bytes(ticket, "little")])
        poll()
    return pairs


def _child(shards: list[list[Job]], tickets: int, feed: int, send: int) -> NoReturn:
    """The body of a forked worker: pull shards, then write the pickled
    (pairs, None), or (None, exception), to ``send`` in one piece.  It
    leaves through ``os._exit``, so it never returns into the caller's
    stack; the exit status is 0 only once the payload is written."""
    import pickle
    import signal

    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.close(feed)
        try:
            payload = pickle.dumps((_pull(shards, tickets), None))
        except BaseException as exc:  # raised again by the parent
            try:
                payload = pickle.dumps((None, exc))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((None, RuntimeError(repr(exc))))
        with open(send, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


class _Terminated(BaseException):
    """SIGTERM in the main process of a forked run, raised so that its
    children are killed and reaped before the process dies."""


def _run_forked(
    shards: list[list[Job]], workers: int
) -> list[tuple[Job, RelationReport]]:
    """Run the shards on this process and ``workers - 1`` forked children,
    all pulling from one ticket pipe.  A child's exception is raised here
    again; a child that ends without its payload raises ``RuntimeError``.
    Between its own shards this process reads every payload that is ready,
    so a child's failure is raised before the next shard here starts.
    Whatever this process raises, every child is killed and reaped first.
    For that, a SIGTERM to this process raises ``_Terminated`` while the
    run lasts; once the children are gone, SIGTERM is delivered again with
    its default action, so the process still dies by that signal."""
    # Imported here: a serial run and the CLI's start-up do not need them.
    import gc
    import pickle
    import select
    import signal

    tickets, feed = os.pipe()
    children: dict[int, int] = {}  # read end of its result pipe -> pid
    pairs: list[tuple[Job, RelationReport]] = []

    def collect(ready: Iterable[int]) -> None:
        """Read each result pipe in ``ready`` to its end, reap its child and
        add its pairs, or raise its failure."""
        for results in ready:
            with open(results, "rb", closefd=False) as fh:
                data = fh.read()
            pid = children[results]
            _, status = os.waitpid(pid, 0)
            del children[results]
            os.close(results)
            payload = None
            with contextlib.suppress(Exception):
                payload = pickle.loads(data)
            if status or payload is None:
                raise RuntimeError(
                    f"verify worker {pid} ended without its results"
                    f" (wait status {status})"
                )
            done, error = payload
            if error is not None:
                raise error
            pairs.extend(done)

    def poll() -> None:
        collect(select.select(list(children), [], [], 0)[0])

    def terminate(signum, frame) -> NoReturn:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # clean up once
        raise _Terminated

    try:
        previous = signal.signal(signal.SIGTERM, terminate)
    except ValueError:  # only the main thread may set a handler
        previous = terminate
    # Objects frozen before the forks are never scanned by the collector,
    # so no process writes to their pages and copies them on that account.
    gc.freeze()
    try:
        try:
            for _ in range(workers - 1):
                results, send = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _child(shards, tickets, feed, send)
                os.close(send)
                children[results] = pid
            for i in range(len(shards)):
                os.write(feed, i.to_bytes(_TICKET, "little"))
            os.close(feed)
            feed = -1
            mine = _pull(shards, tickets, poll)
            collect(list(children))
            return mine + pairs
        finally:
            for fd in (tickets, feed):
                if fd >= 0:
                    os.close(fd)
            for results, pid in children.items():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(results)
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)
        raise
    finally:
        gc.unfreeze()
        if previous is not terminate:
            signal.signal(signal.SIGTERM, previous)


def batch_verify(config: RunConfig) -> Summary:
    # Each distinct check once, in first-seen order, like the shapes.
    names = dict.fromkeys(config.relations)
    shards: list[list[Job]] = []
    for n in range(config.n_min, config.n_max + 1):
        for shape in _shapes_for(config, n):
            shard = [
                (n, tuple(shape), name)
                for name in names
                if CHECKS[name].applies(shape)
            ]
            if shard:
                shards.append(shard)
    shards.sort(key=lambda shard: -_ssyt_count(shard[0][1], shard[0][0]))

    if config.workers > 1 and len(shards) > 1 and hasattr(os, "fork"):
        # A worker beyond the shard count would get no ticket.
        pairs = _run_forked(shards, min(config.workers, len(shards)))
    else:
        pairs = itertools.chain.from_iterable(map(_run_shard, shards))
    pairs = sorted(pairs, key=lambda pair: pair[0])
    if [job for job, _ in pairs] != sorted(job for shard in shards for job in shard):
        raise AssertionError("the shard results do not hold every job exactly once")

    summary = Summary()
    for (n, shape, name), report in pairs:
        status = report.status
        if not CHECKS[name].expected(Partition(shape)):
            status = "EXPECTED-FAIL" if status == "FAIL" else "UNEXPECTED-PASS"
        record = report.to_json()
        record["status"] = status
        summary.records.append(record)
        summary.checked += 1
        if status in ("PASS", "EXPECTED-FAIL"):
            summary.passed += 1
        else:
            summary.failed += 1
    return summary
