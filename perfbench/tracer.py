"""Span tracer that wraps the public functions of each cactus_tableaux layer.

The tracer works from outside the package: ``install()`` replaces every public
module-level function of the seven layer modules (plus ``Permutation.__mul__``
and the verify job function ``_run_check``) by a timing wrapper, in every
package namespace and registry dict that refers to it.  Calls between modules
resolve names at call time, so they go through the wrappers too.

Every call updates per-function aggregates (calls, inclusive time, self time,
lru-cache misses and the time spent in missing calls, items returned by the
enumerators).  Full span records (name, start, end, parent, job) are kept in
memory for the outer ``SPAN_DEPTH`` levels of each process; deeper calls are
folded into the aggregates so that millions of inner calls do not hold
millions of records.  Pool workers (forked) flush after every job, because
they leave through ``os._exit`` and run no exit hooks; the main process
flushes once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

LAYERS = (
    "shapes",
    "tableaux",
    "sliding",
    "gt_patterns",
    "group_actions",
    "representation",
    "verify",
)
JOB = "verify._run_check"
PERM_MUL = "shapes.Permutation.__mul__"
PERM_CACHES = (
    "group_actions.interval_perm",
    "group_actions.bk_t_perm",
    "group_actions.promotion_perm",
    "group_actions.interval_perm_syt",
    "group_actions.bk_t_perm_syt",
)
SIZED = ("tableaux.enumerate_ssyt", "tableaux.enumerate_syt")
SPAN_DEPTH = 3

# Aggregate slots, per function name.
CALLS, TOTAL_NS, SELF_NS, MISSES, MISS_NS, ITEMS = range(6)


class Tracer:
    def __init__(self, out_dir: Path, full: bool = True):
        self.out_dir = Path(out_dir)
        self.full = full
        self.worker = False
        self.originals: dict[str, object] = {}
        self._reset()
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.spans: list[list] = []
        self.flushed = 0
        self.stack: list[list[int]] = []
        self.job = None

    def _forked(self) -> None:
        self.worker = True
        self._reset()

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns
        info = getattr(fn, "cache_info", None)
        sized = name in SIZED
        is_job = name == JOB

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if is_job:
                n, shape, check = args[0][:3]
                tracer.job = f"{n}:{','.join(map(str, shape))}:{check}"
            frame = [0, -1]  # time covered by child calls, span index
            if len(stack) < SPAN_DEPTH:
                frame[1] = len(tracer.spans)
                parent = stack[-1][1] if stack else -1
                tracer.spans.append([name, 0, 0, parent, tracer.job])
            stack.append(frame)
            before = info().misses if info else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                rec = tracer.stats.get(name)
                if rec is None:
                    rec = tracer.stats[name] = [0] * 6
                rec[CALLS] += 1
                rec[TOTAL_NS] += elapsed
                rec[SELF_NS] += elapsed - frame[0]
                if info and info().misses != before:
                    rec[MISSES] += 1
                    rec[MISS_NS] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] >= 0:
                    span = tracer.spans[frame[1]]
                    span[1], span[2] = start, end
                if is_job:
                    tracer.job = None
                    if tracer.worker:
                        tracer.flush()
            if sized:
                rec[ITEMS] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions in every cactus_tableaux namespace."""
        import cactus_tableaux

        modules = {
            layer: importlib.import_module(f"cactus_tableaux.{layer}")
            for layer in LAYERS
        }
        modules["cli"] = importlib.import_module("cactus_tableaux.cli")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if not (self.full and not attr.startswith("_")) and name != JOB:
                    continue
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                self.originals[name] = obj
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in [cactus_tableaux, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]
        if self.full:
            perm = modules["shapes"].Permutation
            self.originals[PERM_MUL] = perm.__mul__
            perm.__mul__ = self._wrap(PERM_MUL, perm.__mul__)

    def cache_counts(self) -> dict[str, list[int]]:
        """(hits, misses) of the generator-permutation caches, this process."""
        out = {}
        for name in PERM_CACHES:
            fn = self.originals.get(name)
            if fn is not None:
                ci = fn.cache_info()
                out[name] = [ci.hits, ci.misses]
        return out

    def flush(self) -> None:
        """Append this process's new spans and its aggregates so far."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        line = {
            "pid": os.getpid(),
            "spans": self.spans[self.flushed :],
            "stats": self.stats,
            "caches": self.cache_counts(),
        }
        self.flushed = len(self.spans)
        with open(self.out_dir / f"trace-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")


def load(out_dir: Path) -> tuple[list[list], dict[str, list[int]], dict[str, list[int]]]:
    """All spans, and aggregates and cache counts summed over processes.

    Each process file holds one line per flush; its aggregates and cache
    counts are cumulative, so the last line of each file is that process's
    total.  A span's parent index refers to the spans of the same process.
    """
    spans: list[list] = []
    stats: dict[str, list[int]] = {}
    caches: dict[str, list[int]] = {}
    for path in sorted(Path(out_dir).glob("trace-*.jsonl")):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for line in lines:
            spans.extend([line["pid"], *span] for span in line["spans"])
        for name, rec in lines[-1]["stats"].items():
            total = stats.setdefault(name, [0] * 6)
            for i, value in enumerate(rec):
                total[i] += value
        for name, counts in lines[-1]["caches"].items():
            total = caches.setdefault(name, [0, 0])
            total[0] += counts[0]
            total[1] += counts[1]
    return spans, stats, caches
