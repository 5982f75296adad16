"""Result-identity probe for one benchmark store.

Reads a store written by a benchmark command back through the public
``SimulationSession`` API and prints one JSON line:

* ``cells`` and ``simulated``: the quick paper matrix (8 policies x 9
  Fig. 13b workloads x {2, 4} threads) and how many of its cells were
  missing from the store and had to be simulated again;
* ``stats_sha256``: a digest of every cell's full ``SimStats.to_dict()``;
* ``sim_cycles``: the simulated cycles of the whole matrix;
* ``claims``: the rendered paper-claims table of these results.

Usage: ``PYTHONPATH=src python3 perfbench/check.py STORE``
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro.engine import QUICK_SCALE, SimulationSession
from repro.harness.claims import evaluate_claims, render_claims


def main(argv: list[str]) -> int:
    session = SimulationSession(QUICK_SCALE, cache_dir=argv[0])
    results = session.sweep()
    digest = hashlib.sha256()
    for key in sorted(results):
        line = json.dumps([list(key), results[key].to_dict()], sort_keys=True)
        digest.update(line.encode() + b"\n")
    print(json.dumps({
        "cells": len(results),
        "simulated": session.simulations,
        "stats_sha256": digest.hexdigest(),
        "sim_cycles": sum(s.cycles for s in results.values()),
        # the session answers the speedup/average-IPC queries the
        # claims need from its memo, so this simulates nothing more
        "claims": render_claims(evaluate_claims(session)),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
