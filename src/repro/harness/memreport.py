"""Memory-sensitivity report (`repro mem`).

Runs one matrix cell under each requested memory-scenario preset and
tabulates how the split-issue policies react to the memory system: IPC,
per-level miss rates, prefetch usefulness, and DRAM bank conflicts —
the new experiment dimension the hierarchy subsystem opens on top of
the paper's fixed §VI-A memory model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.config import MEMORY_PRESETS
from ..engine.session import SimulationSession
from ..pipeline.stats import SimStats


@dataclass
class MemRow:
    """One preset's outcome for the probed cell."""

    preset: str
    stats: SimStats

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def level(self, name: str) -> dict | None:
        return self.stats.memory.get("levels", {}).get(name)


def memory_sensitivity(
    session: SimulationSession,
    policy: str,
    workload: str,
    n_threads: int,
    presets=None,
) -> list[MemRow]:
    """Simulate ``(policy, workload, n_threads)`` under each preset."""
    if presets is None:
        presets = list(MEMORY_PRESETS)
    return [
        MemRow(p, session.run(policy, workload, n_threads, memory=p))
        for p in presets
    ]


def _pct(misses: int, accesses: int) -> str:
    return f"{100.0 * misses / accesses:5.1f}%" if accesses else "    -"


def render_memory_report(
    rows: list[MemRow], policy: str, workload: str, n_threads: int
) -> str:
    """Fixed-width comparison table across presets."""
    out = [
        f"Memory sensitivity: {policy} x {workload} x {n_threads}T",
        f"{'preset':>12s} {'IPC':>6s} {'cycles':>9s} {'L1I':>6s} "
        f"{'L1D':>6s} {'L2':>6s} {'pf-useful':>10s} {'dram-wait':>9s} "
        f"{'merges':>6s} {'wb':>5s}",
    ]
    base = rows[0].ipc if rows else 0.0
    for r in rows:
        s = r.stats
        l2 = r.level("l2")
        l2_col = _pct(l2["misses"], l2["accesses"]) if l2 else "     -"
        pf = s.memory.get("prefetch")
        pf_col = (
            f"{pf['useful']}/{pf['issued']}".rjust(10) if pf else "         -"
        )
        dram = s.memory.get("dram")
        dram_col = f"{dram['wait_cycles']:9d}" if dram else "        -"
        mshr = s.memory.get("mshr")
        mshr_col = f"{mshr['merges']:6d}" if mshr else "     -"
        wb = s.memory.get("writeback")
        wb_col = f"{wb['l1d'] + wb['l2']:5d}" if wb else "    -"
        delta = f"  ({100.0 * (r.ipc / base - 1.0):+.1f}%)" if base else ""
        out.append(
            f"{r.preset:>12s} {s.ipc:6.2f} {s.cycles:9d} "
            f"{_pct(s.icache_misses, s.icache_accesses)} "
            f"{_pct(s.dcache_misses, s.dcache_accesses)} "
            f"{l2_col} {pf_col} {dram_col} {mshr_col} {wb_col}{delta}"
        )
    return "\n".join(out)


def render_memory_levels(stats: SimStats) -> str:
    """Per-level breakdown of one run (`repro run --memory <hier>`)."""
    mem = stats.memory
    out = [f"memory hierarchy ({mem.get('preset', '?')}):"]
    for name, c in mem.get("levels", {}).items():
        out.append(
            f"  {name:>4s}: {c['accesses']:9d} accesses  "
            f"{_pct(c['misses'], c['accesses']).strip():>6s} miss  "
            f"{c['writebacks']:6d} writebacks"
        )
    dram = mem.get("dram")
    if dram:
        out.append(
            f"  dram: {dram['accesses']:9d} accesses  "
            f"{dram['writes']:6d} writes  "
            f"{dram['bank_conflicts']:6d} bank conflicts "
            f"({dram['wait_cycles']} wait cycles)"
        )
    pf = mem.get("prefetch")
    if pf:
        useful = pf["useful"]
        issued = pf["issued"]
        rate = f" ({100.0 * useful / issued:.0f}% useful)" if issued else ""
        l2u = pf.get("useful_l2", 0)
        l2u_col = f" +{l2u} useful at L2" if l2u else ""
        late = pf.get("late", 0)
        late_col = f", {late} late" if late else ""
        dropped = pf.get("dropped", 0)
        drop_col = f", {dropped} dropped (MSHRs full)" if dropped else ""
        out.append(
            f"  prefetch[{pf['kind']}]: {issued} issued, "
            f"{useful} useful{rate}{l2u_col}{late_col}{drop_col}"
        )
    mshr = mem.get("mshr")
    if mshr:
        out.append(
            f"  mshr[{mshr['entries']}]: {mshr['merges']} merges, "
            f"{mshr['full_stalls']} full stalls "
            f"({mshr['full_stall_cycles']} wait cycles)"
        )
    wb = mem.get("writeback")
    if wb:
        out.append(
            f"  writeback: {wb['l1d']} from L1D, {wb['l2']} from L2 "
            f"({wb['stall_cycles']} stall cycles, "
            f"penalty {wb['penalty']})"
        )
    return "\n".join(out)
