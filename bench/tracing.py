"""Outside-in call tracing for the benchmark's traced passes.

``install`` wraps the layer functions of ``dilutecw`` so that every call
records a span: name, start, end, parent span, thread, and the thread's CPU
time over the call.  Spans stay in memory and are written out once, when the
pass ends.  Nothing in the package is edited.

A wrapper must replace the name in every module that looks it up, because
``cli``, ``mcmc`` and ``exact`` import functions by name: ``mcmc`` finds
``sample_graph`` and ``run_chain`` in its own globals, and
``variance_ratio_detail`` finds ``second_moment_log`` in ``exact``'s.  So each
original function object is swapped for its wrapper wherever a ``dilutecw``
module holds it.

Hot leaf helpers (``pair_spin_count``, ``spin_count``, ``eval_F``, the sweep)
are not wrapped: they run hundreds of thousands of times per command, and a
span per call would cost more than the work it times.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

# Module -> functions that get a span.  Names are the public layer boundaries.
LAYERS = {
    "graph": ("sample_graph", "write_graph", "read_graph"),
    "mcmc": ("build_update_tables", "run_chain", "quenched_experiment"),
    "exact": ("enumerate_partition", "expected_partition_log", "second_moment_log", "disorder_oracle"),
    "asymptotics": ("predict_log_partition", "taylor_coefficients_exact", "remainder_check"),
    "stats": ("levy_distance", "ks_distance", "summarize"),
    "cli": ("main",),
}

# Work counted at a boundary, from the bound arguments and the result.
WORK = {
    "graph.sample_graph": lambda a, r: a["params"].n ** 2,
    "graph.read_graph": lambda a, r: r.n ** 2,
    "mcmc.run_chain": lambda a, r: a["g"].n * a["cfg"].sweeps * a["cfg"].replicas,
    "exact.enumerate_partition": lambda a, r: 1 << a["g"].n,
}


class Tracer:
    """Collects spans from wrapped calls, on any thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to whatever the main thread is
        # inside: quenched_experiment hands graphs to a pool and waits.
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            span = {"id": next(self._ids), "name": name, "parent": self._parent(stack), "thread": ident}
            if name == "cli.main":
                span["tag"] = signature.bind(*args, **kwargs).arguments["argv"][0]
            stack.append(span["id"])
            cpu = time.thread_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.thread_time() - cpu
                stack.pop()
                self.spans.append(span)
            if work is not None:
                span["work"] = work(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a dilutecw module refers to it."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dilutecw"]
    for short, names in LAYERS.items():
        module = sys.modules[f"dilutecw.{short}"]
        for attr in names:
            original = getattr(module, attr)
            wrapped = tracer.wrap(f"{short}.{attr}", original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
    measure = sys.modules["dilutecw.stats"].EmpiricalMeasure
    measure.from_samples = classmethod(
        tracer.wrap("stats.from_samples", measure.__dict__["from_samples"].__func__)
    )


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def summarize_spans(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span key: total seconds, calls, self seconds, thread CPU seconds, work.

    The key is the span name, plus ``[tag]`` when the span carries one (the
    command of ``cli.main``).  Self time is a span's duration minus the part of
    it covered by its children, on any thread.  A span whose parent has the
    same name is a recursive call (``read_graph`` on a path calls itself on the
    open file) and counts as part of its parent, not as its child.
    """
    by_id = {s["id"]: s for s in spans}

    def recursive(s: dict) -> bool:
        parent = by_id.get(s["parent"])
        return parent is not None and parent["name"] == s["name"]

    children = defaultdict(list)
    for s in spans:
        if not recursive(s):
            children[s["parent"]].append((s["start"], s["end"]))
    totals = defaultdict(lambda: {"s": 0.0, "calls": 0, "self_s": 0.0, "cpu_s": 0.0, "work": 0})
    for s in spans:
        if recursive(s):
            continue
        key = s["name"] + (f"[{s['tag']}]" if "tag" in s else "")
        duration = s["end"] - s["start"]
        entry = totals[key]
        entry["s"] += duration
        entry["calls"] += 1
        entry["self_s"] += duration - _covered(s["start"], s["end"], children[s["id"]])
        entry["cpu_s"] += s["cpu"]
        entry["work"] += s.get("work", 0)
    return dict(totals)
