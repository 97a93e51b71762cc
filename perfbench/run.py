"""Benchmark runner for cactus-tableaux.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``, so
nothing is installed or built.  Every timed run is a fresh interpreter.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full result,
with the per-repetition samples and the run metadata, is also written to
``.perfbench/results/``.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    SRC,
    WORKLOADS,
    Workload,
    act_digest,
    act_inputs,
    check_cli,
    expected_digest,
)

OUT = ROOT / ".perfbench"
PYTHON = sys.executable
# Set-up spawns per round, and at least this many in a run.
SETUP_PER_ROUND = 2
SETUP_SPAWNS = 7
# The act control run of a verify workload is at least this many chunks,
# each a different slice of ACT_CONTROL_SLICES slices of seeded inputs.
ACT_CONTROL_MIN = 4
ACT_CONTROL_SLICES = 16
# A run must end within 180 s; children are killed at this deadline.
RUN_DEADLINE_S = 170.0


class Run:
    """Children of one benchmark run, with a shared deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv: list[str], stdin: str | None = None):
        """Run a child to completion: (exit code, stdout, wall s, cpu s).

        Wall time runs from the spawn to the reaping of the child.  CPU is
        user plus system time of the child and of every descendant it reaped
        (the pool workers), from the rusage wait4 returns; it equals the
        change in getrusage(RUSAGE_CHILDREN) over the child's life.
        """
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=self.env,
            text=True,
            start_new_session=True,
        )
        timeout = max(1.0, self.deadline - time.monotonic())
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            if stdin is not None:
                try:
                    with proc.stdin:
                        proc.stdin.write(stdin)
                except BrokenPipeError:
                    pass  # the child died; its exit code tells
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, wall, usage.ru_utime + usage.ru_stime


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def check_import(run: Run) -> None:
    """Fail the run unless the package imports from this checkout's src/.

    This first import also writes the bytecode that later imports use."""
    code = "import cactus_tableaux.cli as c; print(c.__file__)"
    rc, out, _, _ = run.spawn([PYTHON, "-c", code])
    if rc != 0 or not Path(out.strip()).is_relative_to(SRC):
        raise SystemExit(f"cactus_tableaux not importable from {SRC}")


def setup_times(run: Run, spawns: int) -> list[float]:
    """Seconds for a fresh interpreter to import cactus_tableaux.cli."""
    return [
        run.spawn([PYTHON, "-c", "import cactus_tableaux.cli"])[2]
        for _ in range(spawns)
    ]


def run_act(run: Run, inputs: list[list], trace_dir: Path | None = None) -> dict:
    argv = [PYTHON, str(HERE / "child.py"), "act"]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    rc, out, wall, cpu = run.spawn(argv, stdin=json.dumps(inputs))
    if rc != 0 or not out:
        return {
            "rc": rc, "cpu": cpu, "wall": wall, "peak_kib": 0,
            "outputs": [None] * len(inputs),
        }
    result = json.loads(out)
    result.update(rc=rc, cpu=cpu, wall=wall)
    return result


class Checker:
    """Accumulates operations attempted and failed over one run.

    Act outputs are checked in one helper process when the run is done, so
    that checking takes no time between the timed processes.  Identical
    outputs for the same inputs are checked once and counted each time.
    """

    def __init__(self, run: Run, seed: int):
        self.run = run
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        # (index of the first input in the seed's sequence, output digest)
        #   -> [inputs, outputs, times seen]
        self.pending: dict[tuple[int, str], list] = {}

    def cli(self, workload: Workload, rc: int, stdout: str) -> None:
        attempted, failed = check_cli(workload, rc, stdout)
        self.attempted += attempted
        self.failed += failed

    def act(self, inputs: list[list], result: dict, start: int = 0) -> None:
        outputs = result["outputs"]
        self.attempted += len(inputs)
        entry = self.pending.setdefault((start, act_digest(outputs)), [inputs, outputs, 0])
        entry[2] += 1

    def finish(self) -> None:
        """Check the act outputs seen so far."""
        if not self.pending:
            return
        entries = list(self.pending.items())
        data = [{"inputs": i, "outputs": o} for _, (i, o, _) in entries]
        argv = [PYTHON, str(HERE / "child.py"), "check"]
        rc, out, _, _ = self.run.spawn(argv, stdin=json.dumps(data))
        if rc != 0:
            raise SystemExit(f"act output check failed with exit code {rc}")
        for ((start, digest), (inputs, _, seen)), failed in zip(entries, json.loads(out)):
            wanted = expected_digest(self.seed, start, len(inputs))
            if wanted is not None and digest != wanted:
                failed = max(failed, 1)
            self.failed += failed * seen
        self.pending.clear()


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def act_control(run: Run, check: Checker, pool: list[list], calls: int, k: int) -> list[int]:
    """Chunk k of the act control run of a verify workload.

    Chunk k runs the k-th slice of ``calls`` inputs of the pool, cycling, so
    that a run's latencies come from many distinct inputs.  The latencies are
    sparse around their median, so the median of a few hundred inputs moves
    with the seed.
    """
    start = k * calls % len(pool)
    inputs = pool[start : start + calls]
    result = run_act(run, inputs)
    check.act(inputs, result, start)
    return result.get("latency_ns", [])


def end_to_end(workload: Workload, seed: int, seconds: int) -> tuple[Checker, dict, dict]:
    """Repeat rounds until the next one would overrun ``seconds``.

    The host's speed drifts in phases of seconds to minutes, so every
    quantity is sampled in every round, spread over the whole run: each round
    makes set-up spawns and one repetition of the workload.  On the verify
    workloads a chunk of the act control run precedes every repetition and
    follows the last one.
    """
    run = Run()
    check = Checker(run, seed)
    check_import(run)
    if workload.is_cli:
        inputs = act_inputs(seed, ACT_CONTROL_SLICES * workload.act_calls)
    else:
        inputs = act_inputs(seed, workload.act_calls)
    chunks = 0  # of the act control run
    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "setup_s": []}
    latencies: list[int] = []
    peak_kib = 0  # of the workload's own processes, not of the act control
    rss_file = OUT / f"rss-{os.getpid()}.txt"
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    while True:
        samples["setup_s"] += setup_times(run, SETUP_PER_ROUND)
        if workload.is_cli:
            latencies += act_control(run, check, inputs, workload.act_calls, chunks)
            chunks += 1
            argv = [
                PYTHON, str(HERE / "child.py"), "cli", "--rss-file", str(rss_file),
                "--", *workload.cli_args(seed),
            ]
            rss_file.unlink(missing_ok=True)
            rc, out, wall, cpu = run.spawn(argv)
            check.cli(workload, rc, out)
            if rss_file.exists():
                peak_kib = max(peak_kib, int(rss_file.read_text()))
        else:
            result = run_act(run, inputs)
            check.act(inputs, result)
            wall, cpu = result.get("loop_ns", 0) / 1e9, result["cpu"]
            latencies += result.get("latency_ns", [])
            peak_kib = max(peak_kib, result["peak_kib"])
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        rounds = len(samples["wall_s"])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    # One more chunk after the last repetition, and more if a short run has
    # too few samples for the p99.
    while workload.is_cli and (chunks == rounds or chunks < ACT_CONTROL_MIN):
        latencies += act_control(run, check, inputs, workload.act_calls, chunks)
        chunks += 1
    samples["setup_s"] += setup_times(run, SETUP_SPAWNS - len(samples["setup_s"]))
    rss_file.unlink(missing_ok=True)
    check.finish()
    latencies_us = [ns / 1000 for ns in latencies] or [0.0, 0.0]
    metrics = {
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
        "act_p50_us": (statistics.median(latencies_us), "us"),
        "act_p99_us": (percentile(latencies_us, 99), "us"),
        "ok_ratio": (1 - check.failed / max(1, check.attempted), "1"),
    }
    samples["act_samples"] = [len(latencies)]
    return check, metrics, samples


def job_metrics(spans: list[list], workers: int, wall: float) -> dict:
    """verify.* from the job spans: [pid, name, start, end, parent, job]."""
    jobs = [(s[3] - s[2]) / 1e9 for s in spans if s[1] == tracer.JOB]
    return {
        "verify.jobs": (len(jobs), "count"),
        "verify.job_p50_s": (statistics.median(jobs) if jobs else 0.0, "s"),
        "verify.job_max_s": (max(jobs, default=0.0), "s"),
        "verify.pool_efficiency": (sum(jobs) / (workers * wall), "1"),
    }


def layer_metrics(stats: dict, caches: dict) -> dict:
    def stat(name: str, slot: int) -> int:
        return stats.get(name, [0] * 6)[slot]

    def seconds(*names: str, slot: int = tracer.TOTAL_NS) -> float:
        return sum(stat(n, slot) for n in names) / 1e9

    hits = sum(h for h, _ in caches.values())
    lookups = sum(h + m for h, m in caches.values())
    m = {
        "group_actions.perm_builds": (
            sum(stat(n, tracer.MISSES) for n in tracer.PERM_CACHES), "count"
        ),
        "group_actions.perm_build_s": (
            seconds(*tracer.PERM_CACHES, slot=tracer.MISS_NS), "s"
        ),
        "group_actions.perm_cache_hit_ratio": (hits / lookups if lookups else 0.0, "1"),
        "group_actions.compose_s": (
            seconds("group_actions.word_perm", slot=tracer.SELF_NS), "s"
        ),
        "sliding.bounded_promotion_calls": (
            stat("sliding.bounded_promotion", tracer.CALLS), "count"
        ),
        "sliding.bounded_promotion_s": (seconds("sliding.bounded_promotion"), "s"),
        "sliding.jdt_rectify_s": (seconds("sliding.jdt_rectify"), "s"),
        "gt_patterns.strip_swap_calls": (
            stat("gt_patterns.strip_swap", tracer.CALLS), "count"
        ),
        "gt_patterns.strip_swap_s": (seconds("gt_patterns.strip_swap"), "s"),
        "tableaux.enumerate_s": (seconds(*tracer.SIZED), "s"),
        "tableaux.domain_size": (
            sum(stat(n, tracer.ITEMS) for n in tracer.SIZED), "count"
        ),
        "shapes.perm_mul_calls": (stat(tracer.PERM_MUL, tracer.CALLS), "count"),
        "shapes.perm_mul_s": (seconds(tracer.PERM_MUL), "s"),
        "representation.character_table_s": (
            seconds("representation.character_table"), "s"
        ),
        "representation.decompose_self_s": (
            seconds("representation.decompose_schutzenberger", slot=tracer.SELF_NS),
            "s",
        ),
        "representation.kostka_vector_s": (
            seconds("representation.kostka_vector"), "s"
        ),
    }
    for layer in tracer.LAYERS:
        names = [n for n in stats if n.split(".")[0] == layer]
        m[f"{layer}.self_s"] = (seconds(*names, slot=tracer.SELF_NS), "s")
    return m


def act_kind_us(inputs: list[list], result: dict) -> dict:
    """Median untraced latency per call, by word kind, in microseconds."""
    lat = result.get("latency_ns", [])
    cactus = [ns / 1000 for (_, w, _), ns in zip(inputs, lat) if w.startswith("c[")]
    bk = [ns / 1000 for (_, w, _), ns in zip(inputs, lat) if not w.startswith("c[")]
    return {
        "group_actions.cactus_act_us": (statistics.median(cactus) if cactus else 0.0, "us"),
        "group_actions.bk_act_us": (statistics.median(bk) if bk else 0.0, "us"),
    }


def traced(
    workload: Workload, seed: int, probes: bool = True
) -> tuple[Checker, dict, dict]:
    """Per-layer metrics from two passes and the per-call probes.

    Pass A wraps only the verify job function (one wrapper call per job), so
    its wall time stands for the untraced wall time; it gives the job
    metrics.  Pass B wraps every public layer function; it gives the rest.
    Tracing overhead is pass B wall over pass A wall.
    """
    run = Run()
    check = Checker(run, seed)
    base = OUT / "trace" / f"{workload.name}-seed{seed}"
    dirs = {mode: base / mode for mode in ("jobs", "full")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
        for old in d.glob("trace-*.jsonl"):
            old.unlink()
    metrics: dict = {}
    if workload.is_cli:
        walls = {}
        for mode, d in dirs.items():
            argv = [
                PYTHON, str(HERE / "child.py"), "cli", "--trace", mode,
                "--trace-dir", str(d), "--", *workload.cli_args(seed),
            ]
            rc, out, walls[mode], _ = run.spawn(argv)
            check.cli(workload, rc, out)
        spans, _, _ = tracer.load(dirs["jobs"])
        metrics.update(job_metrics(spans, workload.workers, walls["jobs"]))
        wall_a, wall_b = walls["jobs"], walls["full"]
    else:
        inputs = act_inputs(seed, workload.act_calls)
        plain = run_act(run, inputs)
        check.act(inputs, plain)
        full = run_act(run, inputs, dirs["full"])
        check.act(inputs, full)
        metrics.update(job_metrics([], workload.workers, 1.0))
        wall_a, wall_b = plain.get("loop_ns", 0) / 1e9, full.get("loop_ns", 0) / 1e9
    check.finish()
    _, stats, caches = tracer.load(dirs["full"])
    metrics.update(layer_metrics(stats, caches))
    if workload.is_cli:
        calls = {
            "group_actions.cactus_act": "group_actions.cactus_act_us",
            "group_actions.bk_act": "group_actions.bk_act_us",
        }
        for name, metric in calls.items():
            n = stats.get(name, [0] * 6)[tracer.CALLS]
            us = stats[name][tracer.TOTAL_NS] / n / 1000 if n else 0.0
            metrics[metric] = (us, "us")
    else:
        metrics.update(act_kind_us(inputs, plain))
    metrics["trace.overhead_ratio"] = (wall_b / wall_a if wall_a else 0.0, "1")
    if probes:
        rc, out, _, _ = run.spawn([PYTHON, str(HERE / "probes.py")])
        check.attempted += 1
        check.failed += rc != 0
        for name, value in (json.loads(out) if rc == 0 else {}).items():
            metrics[name] = (value, "us")
    return check, metrics, {"trace_dirs": {k: str(v) for k, v in dirs.items()}}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cactus_tableaux" / "cli.py").is_file():
        print(f"error: no cactus_tableaux sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
    }
    if args.trace:
        check, metrics, samples = traced(workload, args.seed)
    else:
        check, metrics, samples = end_to_end(workload, args.seed, args.seconds)
    meta["loadavg_end"] = os.getloadavg()
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "meta": meta,
        "failed_ratio": check.failed / max(1, check.attempted),
        "samples": samples,
        **result,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": meta, "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
