"""Regenerators for every table and figure in the paper's evaluation.

Each ``fig*`` function returns structured rows *and* can render the
paper-formatted text table.  The mapping to the paper:

* :func:`fig13a` — benchmark table: ILP class, IPCr, IPCp;
* :func:`fig14`  — CCSI speedup over CSMT, {2T, 4T} x {NS, AS}, 9
  workloads + average;
* :func:`fig15`  — COSI and OOSI speedups over SMT, same axes;
* :func:`fig16`  — absolute average IPC of all eight multithreading
  configurations for 2T and 4T.

Beyond the paper: :func:`fig_mem` (``repro fig mem``) is the
memory-sensitivity figure the hierarchy subsystem opens — average IPC
of every policy under every memory preset, i.e. Fig. 16 with the
memory system as a second axis — and :func:`fig_machine`
(``repro fig machine``) is its machine-scenario sibling: average IPC
of every policy on every machine preset, the cross-machine scaling
study the paper's single fixed machine could not express.
:func:`fig_why` (``repro fig why``) is the observability layer's
cycle-attribution figure: a stacked bar per policy of where every
issue slot of every cycle went (``docs/observability.md``).
"""

from __future__ import annotations

from ..arch.config import MEMORY_PRESETS
from ..arch.scenarios import MACHINE_PRESETS
from ..engine.session import SimulationSession
from ..kernels.suite import BENCH_ORDER, get_meta
from .workloads import WORKLOAD_ORDER

#: Policies each figure touches (single source of truth for the CLI's
#: ``--jobs`` prewarm slice — keep in sync with the fig* bodies below)
FIG14_POLICIES = ["CSMT", "CCSI NS", "CCSI AS"]
FIG15_POLICIES = ["SMT", "COSI NS", "COSI AS", "OOSI NS", "OOSI AS"]

#: Fig. 16 bar order (the paper's legend order)
FIG16_POLICIES = [
    "CSMT",
    "CCSI NS",
    "CCSI AS",
    "SMT",
    "COSI NS",
    "COSI AS",
    "OOSI NS",
    "OOSI AS",
]


def fig13a(session: SimulationSession):
    """Per-benchmark single-thread IPC with real and perfect memory."""
    rows = []
    for name in BENCH_ORDER:
        meta = get_meta(name)
        ipcr = session.run_single(name).ipc
        ipcp = session.run_single(name, perfect_memory=True).ipc
        rows.append(
            {
                "benchmark": name,
                "ilp": meta.ilp_class,
                "description": meta.description,
                "ipcr": ipcr,
                "ipcp": ipcp,
                "paper_ipcr": meta.paper_ipcr,
                "paper_ipcp": meta.paper_ipcp,
            }
        )
    return rows


def render_fig13a(rows) -> str:
    out = [
        "Fig. 13a: Benchmarks (single-thread IPC, real vs perfect memory)",
        f"{'benchmark':12s} {'ILP':>3s} {'IPCr':>6s} {'IPCp':>6s} "
        f"{'paper r':>8s} {'paper p':>8s}",
    ]
    for r in rows:
        out.append(
            f"{r['benchmark']:12s} {r['ilp']:>3s} {r['ipcr']:6.2f} "
            f"{r['ipcp']:6.2f} {r['paper_ipcr']:8.2f} {r['paper_ipcp']:8.2f}"
        )
    return "\n".join(out)


def fig14(session: SimulationSession):
    """CCSI speedup over CSMT (%), {NS, AS} x {2T, 4T} per workload
    (policies: FIG14_POLICIES)."""
    rows = []
    for nt in (2, 4):
        for w in WORKLOAD_ORDER:
            rows.append(
                {
                    "threads": nt,
                    "workload": w,
                    "NS": session.speedup("CCSI NS", "CSMT", w, nt),
                    "AS": session.speedup("CCSI AS", "CSMT", w, nt),
                }
            )
        rows.append(
            {
                "threads": nt,
                "workload": "avg",
                "NS": _avg_speedup(session, "CCSI NS", "CSMT", nt),
                "AS": _avg_speedup(session, "CCSI AS", "CSMT", nt),
            }
        )
    return rows


def fig15(session: SimulationSession):
    """COSI and OOSI speedups over SMT (%), per workload
    (policies: FIG15_POLICIES)."""
    rows = []
    for nt in (2, 4):
        for w in WORKLOAD_ORDER:
            rows.append(
                {
                    "threads": nt,
                    "workload": w,
                    "COSI NS": session.speedup("COSI NS", "SMT", w, nt),
                    "COSI AS": session.speedup("COSI AS", "SMT", w, nt),
                    "OOSI NS": session.speedup("OOSI NS", "SMT", w, nt),
                    "OOSI AS": session.speedup("OOSI AS", "SMT", w, nt),
                }
            )
        rows.append(
            {
                "threads": nt,
                "workload": "avg",
                "COSI NS": _avg_speedup(session, "COSI NS", "SMT", nt),
                "COSI AS": _avg_speedup(session, "COSI AS", "SMT", nt),
                "OOSI NS": _avg_speedup(session, "OOSI NS", "SMT", nt),
                "OOSI AS": _avg_speedup(session, "OOSI AS", "SMT", nt),
            }
        )
    return rows


def fig16(session: SimulationSession):
    """Average IPC of every multithreading technique, 2T and 4T."""
    rows = []
    for nt in (2, 4):
        for pol in FIG16_POLICIES:
            rows.append(
                {
                    "threads": nt,
                    "policy": pol,
                    "ipc": session.average_ipc(pol, nt),
                }
            )
    return rows


#: Preset column order of the memory-sensitivity figure: the paper's
#: flat model first, then increasing hierarchy fidelity.
FIG_MEM_PRESETS = [
    "paper",
    "slow-dram",
    "mshr",
    "l2",
    "l2+mshr",
    "l2+prefetch",
    "l2+stride",
    "l2+pf+mshr",
]


def fig_mem(
    session: SimulationSession,
    presets=None,
    n_threads=(2, 4),
):
    """Memory-sensitivity figure: average IPC (over all nine workloads)
    of every multithreading technique under every memory preset."""
    if presets is None:
        presets = [p for p in FIG_MEM_PRESETS if p in MEMORY_PRESETS]
    rows = []
    for nt in n_threads:
        for pol in FIG16_POLICIES:
            rows.append(
                {
                    "threads": nt,
                    "policy": pol,
                    "ipc": {
                        m: session.average_ipc(pol, nt, memory=m)
                        for m in presets
                    },
                }
            )
    return rows


def render_fig_mem(rows) -> str:
    """Policy x preset average-IPC table, one block per thread count."""
    out = ["Fig. mem: average IPC per policy x memory preset"]
    if not rows:
        return out[0]
    presets = list(rows[0]["ipc"])
    header = "  " + " ".join(f"{m:>11s}" for m in presets)
    for nt in sorted({r["threads"] for r in rows}):
        out.append(f"--- {nt}-Thread ---")
        out.append(f"  {'policy':8s}" + header)
        for r in rows:
            if r["threads"] == nt:
                out.append(
                    f"  {r['policy']:8s}  "
                    + " ".join(
                        f"{r['ipc'][m]:11.2f}" for m in presets
                    )
                )
    return "\n".join(out)


#: Machine column order of the machine-sensitivity figure: the paper's
#: machine first, then shape variations.
FIG_MACHINE_PRESETS = [
    "paper",
    "narrow",
    "wide",
    "big-fu",
    "fast-switch",
]


def fig_machine(
    session: SimulationSession,
    machines=None,
    n_threads=(2, 4),
):
    """Machine-sensitivity figure: average IPC (over all nine
    workloads) of every multithreading technique on every machine
    scenario — the cross-machine scaling study no single-machine axis
    can produce."""
    if machines is None:
        machines = [m for m in FIG_MACHINE_PRESETS if m in MACHINE_PRESETS]
    rows = []
    for nt in n_threads:
        for pol in FIG16_POLICIES:
            rows.append(
                {
                    "threads": nt,
                    "policy": pol,
                    "ipc": {
                        m: session.average_ipc(pol, nt, machine=m)
                        for m in machines
                    },
                }
            )
    return rows


def render_fig_machine(rows) -> str:
    """Policy x machine average-IPC table, one block per thread count."""
    out = ["Fig. machine: average IPC per policy x machine scenario"]
    if not rows:
        return out[0]
    machines = list(rows[0]["ipc"])
    header = "  " + " ".join(f"{m:>11s}" for m in machines)
    for nt in sorted({r["threads"] for r in rows}):
        out.append(f"--- {nt}-Thread ---")
        out.append(f"  {'policy':8s}" + header)
        for r in rows:
            if r["threads"] == nt:
                out.append(
                    f"  {r['policy']:8s}  "
                    + " ".join(
                        f"{r['ipc'][m]:11.2f}" for m in machines
                    )
                )
    return "\n".join(out)


def fig_why(
    session: SimulationSession,
    workload: str = "llhh",
    n_threads: int = 4,
    policies=None,
):
    """Cycle-attribution figure (``repro fig why``): per-policy
    issue-slot attribution fractions for one (workload, threads) cell.
    Each row costs one reference-loop attribution run (memoised by the
    session); the invariant ``sum(categories) == cycles * slots`` is
    checked on every row."""
    from ..obs.attribution import why_rows

    if policies is None:
        policies = FIG16_POLICIES
    return why_rows(session, policies, workload, n_threads)


def render_fig_why(rows) -> str:
    """Stacked-bar chart of where every issue slot went, per policy."""
    from ..obs.attribution import (
        CATEGORY_GLYPHS,
        CATEGORY_LABELS,
        attribution_bar,
    )

    if not rows:
        return "Fig. why: no rows"
    head = rows[0]
    out = [
        "Fig. why: issue-slot cycle attribution per policy — "
        f"{head['workload']} / {head['threads']}T",
    ]
    for r in rows:
        out.append(
            f"  {r['policy']:8s} |{attribution_bar(r['fractions'], 48)}|"
            f" IPC {r['ipc']:5.2f}"
        )
    legend = " ".join(
        f"{CATEGORY_GLYPHS[c]}={CATEGORY_LABELS[c]}"
        for c in CATEGORY_GLYPHS
    )
    out.append(f"  bar: {legend}")
    return "\n".join(out)


def _avg_speedup(
    session: SimulationSession, policy: str, baseline: str, nt: int
) -> float:
    vals = [
        session.speedup(policy, baseline, w, nt) for w in WORKLOAD_ORDER
    ]
    return sum(vals) / len(vals)


def render_speedup_table(rows, columns) -> str:
    header = f"{'T':>2s} {'workload':>9s} " + " ".join(
        f"{c:>9s}" for c in columns
    )
    out = [header]
    for r in rows:
        out.append(
            f"{r['threads']:2d} {r['workload']:>9s} "
            + " ".join(f"{r[c]:8.1f}%" for c in columns)
        )
    return "\n".join(out)


def render_fig16(rows) -> str:
    out = ["Fig. 16: average IPC of all multithreading techniques"]
    for nt in (2, 4):
        out.append(f"--- {nt}-Thread ---")
        for r in rows:
            if r["threads"] == nt:
                out.append(f"  {r['policy']:8s} {r['ipc']:5.2f}")
    return "\n".join(out)
