"""Vertical/horizontal waste decomposition.

The paper's motivation (§I) frames multithreading as attacking the two
kinds of issue waste: *vertical* (cycles with no operation issued) and
*horizontal* (unused slots in issuing cycles).  This module reports the
decomposition per policy so the mechanism behind every speedup is
visible: CSMT/SMT remove vertical waste; split-issue additionally
attacks horizontal waste.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.policies import Policy, get_policy
from ..engine.session import SimulationSession


@dataclass
class WasteRow:
    policy: str
    workload: str
    threads: int
    ipc: float
    vertical_frac: float   # share of cycles issuing nothing
    horizontal_frac: float  # share of slot-cycles unused in active cycles
    utilisation: float      # ops / (issue_width * cycles)


def waste_breakdown(
    session: SimulationSession,
    policies: list[str | Policy],
    workload: str,
    n_threads: int,
) -> list[WasteRow]:
    rows = []
    for pol in policies:
        p = get_policy(pol) if isinstance(pol, str) else pol
        s = session.run(p, workload, n_threads)
        width = s.issue_width
        active = s.cycles - s.vertical_waste
        horiz = (
            s.horizontal_waste / (active * width) if active else 0.0
        )
        rows.append(
            WasteRow(
                policy=p.name,
                workload=workload,
                threads=n_threads,
                ipc=s.ipc,
                vertical_frac=s.vertical_waste_frac,
                horizontal_frac=horiz,
                utilisation=s.operations / (width * s.cycles)
                if s.cycles
                else 0.0,
            )
        )
    return rows


def render_waste(rows: list[WasteRow]) -> str:
    out = [
        f"{'policy':9s} {'IPC':>5s} {'vert%':>6s} {'horiz%':>7s} "
        f"{'util%':>6s}"
    ]
    for r in rows:
        out.append(
            f"{r.policy:9s} {r.ipc:5.2f} {100 * r.vertical_frac:5.1f}% "
            f"{100 * r.horizontal_frac:6.1f}% {100 * r.utilisation:5.1f}%"
        )
    return "\n".join(out)
