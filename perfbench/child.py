"""Child processes of the benchmark: one fresh interpreter per timed run.

    python3 perfbench/child.py cli [--trace jobs|full --trace-dir DIR]
                                   [--rss-file FILE] -- ARGS
        Run ``cactus-tableaux ARGS`` in this process, optionally traced, and
        write the peak RSS in KiB to FILE.
    python3 perfbench/child.py act [--trace-dir DIR] < INPUTS
        Apply each (n, word, rows) input with ``act`` in a closed loop with one
        client and print one JSON line: the loop time, the per-call latencies
        in ns, the output rows (null where the call raised), the errors and
        the peak RSS in KiB.
    python3 perfbench/child.py check < [{"inputs": ..., "outputs": ...}, ...]
        Print, as a JSON list, the number of act outputs of each entry that
        fail the checks.

The runner puts the checkout's ``src`` on PYTHONPATH.  Inputs are parsed
before the timed loop; the tracer, when asked for, is installed after that,
so parsing is never traced or timed.

Peak RSS is VmHWM of this process image, or the ru_maxrss of a reaped child
(pool worker) when larger.  The ru_maxrss of this process would not do: it
also counts the memory of the runner that spawned it, up to the exec.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def peak_kib() -> int:
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run_cli(args) -> int:
    from cactus_tableaux import cli

    # tracer and workloads are imported only where used, so that an untraced
    # process holds the CLI and little else.
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.trace_dir, full=args.trace == "full")
        tracer.install()
    rc = cli.dispatch(args.rest)
    sys.stdout.flush()
    if tracer is not None:
        tracer.flush()
    if args.rss_file:
        with open(args.rss_file, "w") as fh:
            fh.write(f"{peak_kib()}\n")
    return rc


def run_act(args) -> int:
    from cactus_tableaux import group_actions
    from cactus_tableaux.tableaux import Tableau

    inputs = [
        (group_actions.parse_word(word, n), Tableau(tuple(map(tuple, rows))))
        for n, word, rows in json.load(sys.stdin)
    ]
    tracer = None
    if args.trace_dir:
        from tracer import Tracer

        tracer = Tracer(args.trace_dir)
        tracer.install()
    clock = time.perf_counter_ns
    latencies = []
    outputs = []
    errors = []
    loop_start = clock()
    for i, (w, T) in enumerate(inputs):
        start = clock()
        try:
            out = group_actions.act(w, T)
        except Exception as exc:  # reported, and counted as a failed call
            out = None
            errors.append([i, repr(exc)])
        latencies.append(clock() - start)
        outputs.append(out)
    loop_ns = clock() - loop_start
    if tracer is not None:
        tracer.flush()
    json.dump(
        {
            "loop_ns": loop_ns,
            "latency_ns": latencies,
            "outputs": [None if o is None else o.rows for o in outputs],
            "errors": errors,
            "peak_kib": peak_kib(),
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="what", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace", choices=["jobs", "full"])
    p.add_argument("--trace-dir")
    p.add_argument("--rss-file")
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p = sub.add_parser("act")
    p.add_argument("--trace-dir")
    sub.add_parser("check")
    args = parser.parse_args()
    if args.what == "cli":
        if args.rest[:1] == ["--"]:
            args.rest = args.rest[1:]
        return run_cli(args)
    if args.what == "check":
        import workloads

        data = json.load(sys.stdin)
        print(json.dumps([workloads.check_act(d["inputs"], d["outputs"]) for d in data]))
        return 0
    return run_act(args)


if __name__ == "__main__":
    sys.exit(main())
