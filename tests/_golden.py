"""Golden simulated-result digests (imported explicitly, like
``_kernels``).

``cell_digests`` simulates the quick Fig. 13b matrix plus one
``CCSI AS``/``llhh``/4T cell per non-``paper`` memory and machine
preset and returns a SHA-256 of each cell's ``SimStats.to_dict()``;
``matrix_digest`` is ``perfbench/check.py``'s whole-matrix digest.

The 64 KB paper L1s evict only a handful of lines at quick scale, so
replacement order never shows in those cells; two more cells shrink
both L1s to 2 KB (flat memory, where the generated loop inlines the
L1 hit path, and ``l2``, where every L1 probe is a ``Cache.access``).

Regenerate ``golden_sim_digests.json`` (only for an intended change to
simulated results, with a CHANGES.md line saying why)::

    PYTHONPATH=src python tests/_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

from repro.arch.config import MEMORY_PRESETS, PAPER_MACHINE, CacheConfig
from repro.arch.scenarios import MACHINE_PRESETS
from repro.engine import QUICK_SCALE, SimulationSession

GOLDEN_PATH = Path(__file__).parent / "golden_sim_digests.json"
PRESET_CELL = ("CCSI AS", "llhh", 4)
_SMALL_L1 = CacheConfig(size_bytes=2048, assoc=2)
SMALL_L1_MACHINE = replace(PAPER_MACHINE, icache=_SMALL_L1, dcache=_SMALL_L1)


def matrix_digest(results: dict) -> str:
    """One digest over every cell of a ``session.sweep()`` result."""
    digest = hashlib.sha256()
    for key in sorted(results):
        line = json.dumps([list(key), results[key].to_dict()], sort_keys=True)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def _stats_digest(stats) -> str:
    return hashlib.sha256(
        json.dumps(stats.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def cell_digests(session: SimulationSession) -> tuple[dict, str]:
    """``({cell name: digest}, whole-matrix digest)`` for the quick
    matrix and the preset cells, simulated through ``session``."""
    matrix = session.sweep()
    cells = {"/".join(map(str, k)): _stats_digest(s) for k, s in matrix.items()}
    p, w, nt = PRESET_CELL
    memories = [m for m in MEMORY_PRESETS if m != "paper"]
    for (*_, mem), s in session.sweep([p], [w], (nt,), memory=memories).items():
        cells[f"{p}/{w}/{nt}/memory={mem}"] = _stats_digest(s)
    machines = [m for m in MACHINE_PRESETS if m != "paper"]
    for (*_, mach), s in session.sweep([p], [w], (nt,), machine=machines).items():
        cells[f"{p}/{w}/{nt}/machine={mach}"] = _stats_digest(s)
    small = SimulationSession(session.scale, SMALL_L1_MACHINE)
    for mem in (None, "l2"):
        name = f"{p}/{w}/{nt}/l1=2KB" + (f"/memory={mem}" if mem else "")
        cells[name] = _stats_digest(small.run(p, w, nt, memory=mem))
    return cells, matrix_digest(matrix)


if __name__ == "__main__":
    session = SimulationSession(QUICK_SCALE, jobs=2)
    try:
        digests, whole = cell_digests(session)
    finally:
        session.close()
    GOLDEN_PATH.write_text(json.dumps({
        "about": "SHA-256 of SimStats.to_dict() (sort_keys) per quick-scale "
                 "cell; tests/test_golden.py fails on any drift. Regenerate "
                 "with `PYTHONPATH=src python tests/_golden.py`.",
        "scale": asdict(QUICK_SCALE),
        "matrix_sha256": whole,
        "cells": dict(sorted(digests.items())),
    }, indent=2) + "\n")
    print(f"{len(digests)} cells, matrix {whole}")
