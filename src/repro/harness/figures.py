"""Regenerators for every table and figure in the paper's evaluation.

Each ``fig*`` function returns structured rows *and* can render the
paper-formatted text table.  The mapping to the paper:

* :func:`fig13a` — benchmark table: ILP class, IPCr, IPCp;
* :func:`fig14`  — CCSI speedup over CSMT, {2T, 4T} x {NS, AS}, 9
  workloads + average;
* :func:`fig15`  — COSI and OOSI speedups over SMT, same axes;
* :func:`fig16`  — absolute average IPC of all eight multithreading
  configurations for 2T and 4T.

Beyond the paper: :func:`fig_axis` is Fig. 16 with a scenario as a
second axis — average IPC of every policy under every memory preset
(``repro fig mem``) or on every machine preset (``repro fig machine``,
the cross-machine scaling study the paper's single fixed machine could
not express) — and :func:`sensitivity` runs one cell under every value
of such an axis (``repro mem``, ``repro machine``).
:func:`fig_why` (``repro fig why``) is the observability layer's
cycle-attribution figure: a stacked bar per policy of where every
issue slot of every cycle went (``docs/observability.md``).

Every function that reads matrix cells first hands their slice to
:meth:`SimulationSession.prefetch`, which fans the missing cells over
the pool under ``--jobs N``; its loop then reads them from the memo.
"""

from __future__ import annotations

from ..engine.session import SimulationSession
from ..kernels.suite import BENCH_ORDER, get_meta
from ..pipeline.stats import SimStats
from .workloads import WORKLOAD_ORDER

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
    """CCSI speedup over CSMT (%), {NS, AS} x {2T, 4T} per workload."""
    session.prefetch(["CSMT", "CCSI NS", "CCSI AS"])
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
    """COSI and OOSI speedups over SMT (%), per workload."""
    session.prefetch(["SMT", "COSI NS", "COSI AS", "OOSI NS", "OOSI AS"])
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
    session.prefetch(FIG16_POLICIES)
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


#: Machine column order of the machine-sensitivity figure: the paper's
#: machine first, then shape variations.
FIG_MACHINE_PRESETS = [
    "paper",
    "narrow",
    "wide",
    "big-fu",
    "fast-switch",
]


def fig_axis(
    session: SimulationSession,
    axis: str,
    values,
    n_threads=(2, 4),
):
    """Scenario-sensitivity figure: average IPC (over all nine
    workloads) of every multithreading technique under every value of
    one scenario axis — ``axis`` is ``"memory"`` (presets of
    :data:`~repro.arch.config.MEMORY_PRESETS`) or ``"machine"``
    (scenarios of :data:`~repro.arch.scenarios.MACHINE_PRESETS`)."""
    session.prefetch(FIG16_POLICIES, n_threads=n_threads, **{axis: values})
    return [
        {
            "threads": nt,
            "policy": pol,
            "ipc": {
                v: session.average_ipc(pol, nt, **{axis: v})
                for v in values
            },
        }
        for nt in n_threads
        for pol in FIG16_POLICIES
    ]


def render_fig_axis(rows, title: str) -> str:
    """Policy x axis-value average-IPC table, one block per thread
    count."""
    out = [title]
    if not rows:
        return title
    values = list(rows[0]["ipc"])
    header = "  " + " ".join(f"{v:>11s}" for v in values)
    for nt in sorted({r["threads"] for r in rows}):
        out.append(f"--- {nt}-Thread ---")
        out.append(f"  {'policy':8s}" + header)
        for r in rows:
            if r["threads"] == nt:
                out.append(
                    f"  {r['policy']:8s}  "
                    + " ".join(f"{r['ipc'][v]:11.2f}" for v in values)
                )
    return "\n".join(out)


#: ``repro fig mem`` / ``repro fig machine``: the scenario axis, its
#: column order and the figure's title
FIG_AXES = {
    "mem": (
        "memory", FIG_MEM_PRESETS,
        "Fig. mem: average IPC per policy x memory preset",
    ),
    "machine": (
        "machine", FIG_MACHINE_PRESETS,
        "Fig. machine: average IPC per policy x machine scenario",
    ),
}


def sensitivity(
    session: SimulationSession,
    policy: str,
    workload: str,
    n_threads: int,
    axis: str,
    values,
) -> list[tuple[str, SimStats]]:
    """``(value, stats)`` of one cell under every value of one
    scenario axis (``"memory"`` or ``"machine"``, as for
    :func:`fig_axis`): the rows of ``repro mem`` and ``repro
    machine``."""
    session.prefetch([policy], [workload], (n_threads,), **{axis: values})
    return [
        (v, session.run(policy, workload, n_threads, **{axis: v}))
        for v in values
    ]


def fig_why(
    session: SimulationSession,
    workload: str = "llhh",
    n_threads: int = 4,
    policies=None,
):
    """Cycle-attribution figure (``repro fig why``): per-policy
    issue-slot attribution fractions for one (workload, threads) cell.
    Each row costs one reference-loop attribution run (neither memoised
    nor stored); the invariant ``sum(categories) == cycles * slots`` is
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
