#!/usr/bin/env python
"""Regenerate the paper's Fig. 13a benchmark table: per-benchmark
single-thread IPC with real (IPCr) and perfect (IPCp) memory.

Run:  python examples/single_thread_ipc.py [--scale 1.0]
"""

import argparse

from repro.engine import ExperimentScale, SimulationSession
from repro.harness.figures import fig13a, render_fig13a


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=0.5,
                    help="kernel trip-count scale (1.0 = full)")
    args = ap.parse_args()

    session = SimulationSession(ExperimentScale(kernel_scale=args.scale))
    rows = fig13a(session)
    print(render_fig13a(rows))
    print(
        "\nClasses: l <= 1.6, m ~ 2-3, h >= 3.5 (measured IPCr). "
        "Shapes match the paper: colorspace is the fastest and most "
        "cache-sensitive; mcf/gsmencode the slowest."
    )


if __name__ == "__main__":
    main()
