"""EXPERIMENTS.md generator: paper-vs-measured for every figure.

``python -m repro report`` runs the full matrix
(:func:`report_results`) and rewrites EXPERIMENTS.md;
:func:`render_report` can also consume a pre-computed
results dict (``results_full.json``) so the document is reproducible
from archived runs.
"""

from __future__ import annotations

import json
from pathlib import Path

from .claims import PAPER_FIG14_AVG, PAPER_FIG15_AVG, evaluate_claims
from .figures import fig13a, fig14, fig15, fig16


def report_results(session) -> dict:
    """The results dict :func:`render_report` consumes, computed
    through ``session``.  The whole policy x workload x {2, 4} matrix
    is prefetched first, so under ``--jobs N`` it fills in one pool
    phase and every figure below reads it from the memo."""
    session.prefetch()
    return {
        "fig13a": fig13a(session),
        "fig14": fig14(session),
        "fig15": fig15(session),
        "fig16": fig16(session),
        "claims": [
            {"name": c.name, "paper": c.paper, "measured": c.measured,
             "holds": c.holds}
            for c in evaluate_claims(session)
        ],
    }


def _fig13_section(rows) -> list[str]:
    out = [
        "## Fig. 13a — benchmark table (single-thread IPC)",
        "",
        "| benchmark | class | IPCr (paper) | IPCr (ours) | IPCp (paper) | IPCp (ours) |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        out.append(
            f"| {r['benchmark']} | {r['ilp']} | {r['paper_ipcr']:.2f} | "
            f"{r['ipcr']:.2f} | {r['paper_ipcp']:.2f} | {r['ipcp']:.2f} |"
        )
    out += [
        "",
        "Shape check: the class bands separate (l < m < h), colorspace is "
        "the fastest and among the most cache-sensitive, mcf/gsmencode the "
        "slowest — matching the paper's ordering. Our medium/high kernels "
        "run somewhat hotter than the paper's full applications (straight-"
        "line kernels lack the serial fringe of whole programs).",
        "",
    ]
    return out


def _speedup_section(title, rows, columns, paper_avg) -> list[str]:
    out = [title, "", "| T | workload | " + " | ".join(columns) + " |",
           "|---" * (2 + len(columns)) + "|"]
    for r in rows:
        cells = " | ".join(f"{r[c]:+.1f}%" for c in columns)
        out.append(f"| {r['threads']} | {r['workload']} | {cells} |")
    out.append("")
    out.append("Paper averages for comparison: " + ", ".join(
        f"{k[1]} {k[0]}T = {v:.1f}%" for k, v in paper_avg.items()
    ))
    out.append("")
    return out


def _fig16_section(rows) -> list[str]:
    out = [
        "## Fig. 16 — absolute IPC of all multithreading techniques",
        "",
        "| policy | 2T IPC | 4T IPC |",
        "|---|---|---|",
    ]
    by = {(r["threads"], r["policy"]): r["ipc"] for r in rows}
    pols = [r["policy"] for r in rows if r["threads"] == 2]
    for p in pols:
        out.append(f"| {p} | {by[(2, p)]:.2f} | {by[(4, p)]:.2f} |")
    out.append("")
    return out


def _claims_section(claims) -> list[str]:
    out = [
        "## §VI-B / §VII headline claims",
        "",
        "| claim | paper | measured | verdict |",
        "|---|---|---|---|",
    ]
    for c in claims:
        paper = "n/a" if c["paper"] is None else f"{c['paper']:.1f}"
        verdict = "**holds**" if c["holds"] else "differs"
        out.append(
            f"| {c['name']} | {paper} | {c['measured']:.1f} | {verdict} |"
        )
    out.append("")
    return out


def render_report(results: dict, scale_note: str) -> str:
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Every table/figure of the paper's evaluation, regenerated by this "
        "reproduction. " + scale_note,
        "",
        "Reproduction target (per DESIGN.md): *shape-level* agreement — "
        "who wins, orderings, where gaps open — not absolute numbers: the "
        "substrate here is a from-scratch simulator with stand-in kernels "
        "at a reduced instruction budget.",
        "",
    ]
    lines += _fig13_section(results["fig13a"])
    lines += _speedup_section(
        "## Fig. 14 — CCSI speedup over CSMT",
        results["fig14"], ["NS", "AS"], PAPER_FIG14_AVG,
    )
    lines += _speedup_section(
        "## Fig. 15 — COSI / OOSI speedup over SMT",
        results["fig15"],
        ["COSI NS", "COSI AS", "OOSI NS", "OOSI AS"],
        PAPER_FIG15_AVG,
    )
    lines += _fig16_section(results["fig16"])
    lines += _claims_section(results["claims"])
    lines += [
        "## Known divergences",
        "",
        "* **2-thread speedups are smaller than the paper's** (e.g. CCSI "
        "AS avg ~2% vs 8.7%). Our compiled kernels occupy fewer clusters "
        "per instruction than ST200-compiled full applications, so at two "
        "threads the renamed cluster assignments collide less and plain "
        "CSMT/SMT already merge most cycles, leaving split-issue less "
        "headroom. At four threads (where collisions are unavoidable) the "
        "magnitudes land close to the paper.",
        "* **COSI captures less of OOSI's gain than in the paper.** Same "
        "root cause: our bundles are thin, so intra-bundle (operation-"
        "level) conflicts — which only OOSI can resolve — dominate the "
        "residual conflicts.",
        "* **Medium/high kernels run at higher absolute IPC** than the "
        "paper's applications (Fig. 13a table above); class ordering and "
        "cache-sensitivity patterns match.",
        "* The qualitative claims — split-issue helps both merge levels, "
        "AS > NS with the gap widening for high-ILP (ICC-heavy) "
        "workloads, OOSI AS best overall, gains larger at 4T for "
        "op-level merging, CCSI narrowing the CSMT-vs-SMT gap — all hold.",
        "",
    ]
    return "\n".join(lines)


def write_report(
    results_path: str | Path = "results_full.json",
    out_path: str | Path = "EXPERIMENTS.md",
    scale_note: str = "",
) -> Path:
    results = json.loads(Path(results_path).read_text())
    if not scale_note:
        mins = results.get("elapsed_sec", 0) / 60
        scale_note = (
            "Defaults: kernel scale 1.0, 40k-instruction runs, 10k-cycle "
            f"timeslices (~{mins:.0f} min of pure-Python simulation)."
        )
    out = Path(out_path)
    out.write_text(render_report(results, scale_note))
    return out
