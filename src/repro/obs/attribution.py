"""Cycle attribution: where every issue slot of every cycle went.

The simulator's headline numbers (IPC, waste fractions) say *what* a
cell achieved; attribution says *why*.  An attribution run
(:class:`~repro.pipeline.processor.Processor` with ``attribute=True``,
always the per-cycle reference loop) accounts every issue-slot × cycle
into the exhaustive, mutually exclusive category set
:data:`~repro.pipeline.stats.ATTRIBUTION_CATEGORIES` under the
invariant

    ``sum(categories) == cycles * issue_width``

and flushes the totals into ``SimStats.attribution``.  This module is
the reporting side: invariant checking, the ``repro why`` report, and
the stacked-bar rendering ``repro fig why`` shares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..pipeline.stats import ATTRIBUTION_CATEGORIES, SimStats

if TYPE_CHECKING:
    from ..engine.session import SimulationSession

#: one-character glyph per category for text stacked bars
CATEGORY_GLYPHS = {
    "useful": "#",
    "merge_limited": "x",
    "mem_stall": "m",
    "switch_drain": "s",
    "post_switch": "p",
    "empty": ".",
}

#: short column labels for reports (keep under 7 chars)
CATEGORY_LABELS = {
    "useful": "useful",
    "merge_limited": "merge",
    "mem_stall": "mem",
    "switch_drain": "drain",
    "post_switch": "post",
    "empty": "empty",
}


def check_attribution(stats: SimStats) -> dict:
    """Validate the exhaustive-accounting invariant of an attributed
    run and return its attribution block.

    Raises :class:`ValueError` if the run carries no attribution, if a
    category is missing, or if the slot totals do not balance — a
    balance failure means the instrumented reference loop skipped or
    double-counted a cycle, which would silently corrupt every ``why``
    report built on it.
    """
    a = stats.attribution
    if not a:
        raise ValueError("stats carry no attribution (not an "
                         "attribution run?)")
    cats = a["categories"]
    missing = set(ATTRIBUTION_CATEGORIES) - set(cats)
    if missing:
        raise ValueError(f"attribution missing categories: {missing}")
    balance = stats.attribution_balance()
    if balance != 0:
        raise ValueError(
            f"attribution does not balance: sum(categories) == "
            f"{sum(cats.values())} but cycles*slots == "
            f"{a['cycles'] * a['slots']} (off by {balance})"
        )
    if cats["useful"] != stats.operations:
        raise ValueError(
            f"useful slots ({cats['useful']}) != operations issued "
            f"({stats.operations})"
        )
    return a


def attribution_fractions(stats: SimStats) -> dict[str, float]:
    """Category shares of the run's total slot-cycles (sum to 1.0)."""
    a = check_attribution(stats)
    total = a["cycles"] * a["slots"]
    return {
        c: (a["categories"][c] / total if total else 0.0)
        for c in ATTRIBUTION_CATEGORIES
    }


def attribution_bar(fractions: dict[str, float], width: int = 32) -> str:
    """Render category fractions as a fixed-width text stacked bar."""
    cells = []
    for c in ATTRIBUTION_CATEGORIES:
        cells.append((c, int(round(fractions.get(c, 0.0) * width))))
    # rounding drift lands on the largest segment so the bar stays
    # exactly `width` characters
    drift = width - sum(n for _, n in cells)
    if drift:
        big = max(range(len(cells)), key=lambda i: cells[i][1])
        cells[big] = (cells[big][0], max(0, cells[big][1] + drift))
    return "".join(CATEGORY_GLYPHS[c] * n for c, n in cells)


def why_rows(
    session: SimulationSession,
    policies,
    workload: str,
    n_threads: int,
    memory: str | None = None,
    machine: str | None = None,
) -> list[dict]:
    """Attribution breakdown per policy for one (workload, nt) cell.

    Each policy costs one reference-loop simulation of the cell
    ``session`` resolves.  Attributed results are neither memoised nor
    stored: a populated ``attribution`` block in a shared entry would
    leak into plain runs.
    """
    rows = []
    for pol in policies:
        cell = session.cell(pol, workload, n_threads, memory, machine)
        s = cell.simulate(session.cache, attribute=True)[0]
        rows.append(
            {
                "policy": pol if isinstance(pol, str) else pol.name,
                "workload": workload,
                "threads": n_threads,
                "ipc": s.ipc,
                "cycles": s.cycles,
                "loop_used": s.attribution.get("loop_used"),
                "fractions": attribution_fractions(s),
            }
        )
    return rows


def render_why(rows: list[dict]) -> str:
    """The ``repro why`` report: one stacked bar + percentage columns
    per policy.  Ends with an explicit invariant line (CI greps it)."""
    if not rows:
        return "why: no rows"
    head = rows[0]
    out = [
        f"Why: issue-slot cycle attribution — {head['workload']} / "
        f"{head['threads']}T ({head['loop_used']} loop)",
        f"  {'policy':9s} {'IPC':>5s}  "
        + " ".join(
            f"{CATEGORY_LABELS[c]:>6s}" for c in ATTRIBUTION_CATEGORIES
        )
        + "  attribution",
    ]
    for r in rows:
        f = r["fractions"]
        out.append(
            f"  {r['policy']:9s} {r['ipc']:5.2f}  "
            + " ".join(
                f"{100 * f[c]:5.1f}%" for c in ATTRIBUTION_CATEGORIES
            )
            + f"  |{attribution_bar(f)}|"
        )
    legend = " ".join(
        f"{CATEGORY_GLYPHS[c]}={CATEGORY_LABELS[c]}"
        for c in ATTRIBUTION_CATEGORIES
    )
    out.append(f"  bar: {legend}")
    out.append(
        "  attribution invariant: OK "
        "(sum(categories) == cycles * slots, useful == operations)"
    )
    return "\n".join(out)
