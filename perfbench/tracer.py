"""Run one ``repro`` CLI command with per-layer spans.

Usage: ``PYTHONPATH=src python3 perfbench/tracer.py SPANS_DIR REPRO_ARGS...``

Each layer is timed from outside the program by wrapping its public
functions.  Modules import these functions by name, so every ``repro``
module binding of a wrapped function is replaced, not only the
defining one.  A span stack per process turns durations into self
times: a layer's self time is its spans' duration minus the part its
child spans cover.  The stack is not thread-safe; the wrapped functions
all run on the main thread of their process.

The ``import`` span covers ``repro.cli`` and every module that holds
a wrap point, imported before the command runs so they can be wrapped.

Pool workers forked by ``--jobs N`` inherit the wrappers.  Each starts
a fresh recorder and writes its spans when it exits.  Every process
writes ``SPANS_DIR/spans-<pid>.json``.  A wrap point the program no
longer has is listed as absent instead of failing the run.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from multiprocessing import util

perf_counter = time.perf_counter
T0 = perf_counter()


class Recorder:
    """Per-process span totals."""

    def __init__(self, role: str, memo_base: dict | None = None):
        self.role = role
        self.stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: specialiser memo counters inherited at fork, subtracted on dump
        self.memo_base = memo_base or {}


REC = Recorder("parent")
ABSENT: list[str] = []


def _trace_instructions(rec: Recorder, bundle) -> None:
    rec.counts["trace.instructions"] += getattr(bundle, "length", 0)


def _sim_cycles(rec: Recorder, stats) -> None:
    rec.counts["processor.sim_cycles"] += getattr(stats, "cycles", 0)


def _store_hit(rec: Recorder, stats) -> None:
    rec.counts["cache.get_hits"] += stats is not None


#: (layer, module, attribute, counter): the function is found where
#: ``module`` binds ``attribute``; a dotted attribute is a method and is
#: replaced on its class
WRAP_POINTS = (
    ("compiler", "repro.kernels.suite", "build_program", None),
    ("trace", "repro.kernels.suite", "record_trace", _trace_instructions),
    ("cache.key", "repro.engine.session", "cache_key", None),
    ("cache.get", "repro.engine.cache", "ResultCache.get", _store_hit),
    ("cache.put", "repro.engine.cache", "ResultCache.put", None),
    ("specialize", "repro.pipeline.processor", "get_specialized_loop", None),
    ("loopcheck", "repro.analysis.loopcheck", "check_source", None),
    ("processor", "repro.pipeline.processor", "Processor.run", _sim_cycles),
    ("memory", "repro.memory.cache", "Cache.access", None),
    ("memory", "repro.memory.hierarchy", "MemorySystem.iaccess", None),
    ("memory", "repro.memory.hierarchy", "MemorySystem.daccess", None),
    ("runner.wait", "repro.engine.runner", "wait", None),
    ("runner.cell", "repro.engine.runner", "_simulate_cell", None),
    ("harness", "repro.harness.claims", "evaluate_claims", None),
)


def _span(layer: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = REC
        stack = rec.stack
        stack.append(0.0)
        t = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            d = perf_counter() - t
            rec.self_s[layer] += d - stack.pop()
            rec.total_s[layer] += d
            rec.calls[layer] += 1
            if stack:
                stack[-1] += d
        if counter is not None:
            counter(rec, result)
        return result

    return wrapper


def _import_layers() -> None:
    for _, module, _, _ in WRAP_POINTS:
        try:
            importlib.import_module(module)
        except ImportError:
            pass  # reported as absent by _install
    importlib.import_module("repro.cli")


def _install() -> None:
    for layer, module, attr, counter in WRAP_POINTS:
        *path, name = attr.split(".")
        owner = sys.modules.get(module)
        try:
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, name)
        except AttributeError:
            ABSENT.append(f"{module}.{attr}")
            continue
        wrapped = _span(layer, orig, counter)
        if path:
            setattr(owner, name, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)


def _memo_counters() -> dict:
    mod = sys.modules.get("repro.pipeline.specialize")
    info = getattr(mod, "cache_info", None)
    return info() if info else {}


def _dump(spans_dir: str, rec: Recorder, wall_s: float | None) -> None:
    memo = _memo_counters()
    doc = {
        "role": rec.role,
        "pid": os.getpid(),
        "wall_s": wall_s,
        "self_s": rec.self_s,
        "total_s": rec.total_s,
        "calls": rec.calls,
        "counts": rec.counts,
        "memo_hits": memo.get("hits", 0) - rec.memo_base.get("hits", 0),
        "memo_misses": (
            memo.get("misses", 0) - rec.memo_base.get("misses", 0)
        ),
        "absent": ABSENT,
    }
    path = os.path.join(spans_dir, f"spans-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump(doc, f)


def main(argv: list[str]) -> int:
    spans_dir, cli_args = argv[0], argv[1:]

    t = perf_counter()
    _import_layers()
    REC.self_s["import"] = perf_counter() - t
    REC.calls["import"] = 1
    _install()

    def start_worker(_parent_rec) -> None:
        # runs in each forked pool worker after multiprocessing has
        # cleared the inherited finalizers, so this one survives
        global REC
        REC = Recorder("worker", memo_base=_memo_counters())
        util.Finalize(None, _dump, args=(spans_dir, REC, None),
                      exitpriority=10)

    util.register_after_fork(REC, start_worker)
    parent = REC
    atexit.register(
        lambda: _dump(spans_dir, parent, perf_counter() - T0)
    )
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
