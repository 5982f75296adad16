"""Machine-sensitivity report (`repro machine`).

Runs one matrix cell on each requested machine scenario and tabulates
how the split-issue policies react to the machine's shape: IPC, issue
width actually available, waste decomposition, and context-switch
pressure — the cross-machine scaling view the scenario layer opens on
top of the paper's single fixed evaluation machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.scenarios import MACHINE_PRESETS, get_scenario
from ..engine.session import SimulationSession
from ..pipeline.stats import SimStats


@dataclass
class MachineRow:
    """One machine scenario's outcome for the probed cell."""

    scenario: str
    stats: SimStats

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def spec(self):
        return get_scenario(self.scenario)


def machine_sensitivity(
    session: SimulationSession,
    policy: str,
    workload: str,
    n_threads: int,
    machines=None,
) -> list[MachineRow]:
    """Simulate ``(policy, workload, n_threads)`` on each machine."""
    if machines is None:
        machines = list(MACHINE_PRESETS)
    return [
        MachineRow(m, session.run(policy, workload, n_threads, machine=m))
        for m in machines
    ]


def render_machine_report(
    rows: list[MachineRow], policy: str, workload: str, n_threads: int
) -> str:
    """Fixed-width comparison table across machine scenarios."""
    name_w = max([12] + [len(r.scenario) for r in rows])
    out = [
        f"Machine sensitivity: {policy} x {workload} x {n_threads}T",
        f"{'scenario':>{name_w}s} {'shape':>12s} {'issue':>5s} "
        f"{'IPC':>6s} {'util':>6s} {'vWaste':>6s} {'hWaste':>6s} "
        f"{'switches':>8s}",
    ]
    base = rows[0].ipc if rows else 0.0
    for r in rows:
        s = r.stats
        m = r.spec.machine
        cl = m.cluster
        shape = f"{m.n_clusters}x{cl.issue_width}i"
        if r.spec.timeslice_factor != 1.0:
            shape += f"/{r.spec.timeslice_factor:g}ts"
        slots = s.cycles * s.issue_width
        util = 100.0 * s.operations / slots if slots else 0.0
        h_frac = 100.0 * s.horizontal_waste / slots if slots else 0.0
        delta = f"  ({100.0 * (r.ipc / base - 1.0):+.1f}%)" if base else ""
        out.append(
            f"{r.scenario:>{name_w}s} {shape:>12s} {m.issue_width:5d} "
            f"{s.ipc:6.2f} {util:5.1f}% "
            f"{100.0 * s.vertical_waste_frac:5.1f}% "
            f"{h_frac:5.1f}% "
            f"{s.context_switches:8d}{delta}"
        )
    return "\n".join(out)


def render_scenarios(verbose: bool = False) -> str:
    """Human-readable listing of the machine-scenario registry
    (`repro scenarios`)."""
    out = ["Machine scenarios (repro run|sweep --machine <name>):"]
    name_w = max(len(n) for n in MACHINE_PRESETS)
    for name in sorted(MACHINE_PRESETS):
        spec = MACHINE_PRESETS[name]
        m = spec.machine
        cl = m.cluster
        out.append(
            f"  {name:>{name_w}s}: {m.n_clusters} clusters x "
            f"{cl.issue_width}-issue ({m.issue_width} total), "
            f"{cl.n_alu}A/{cl.n_mul}M/{cl.n_mem}L per cluster, "
            f"timeslice x{spec.timeslice_factor:g}, "
            f"memory '{m.memory.name}'"
        )
        if verbose:
            out.append(f"  {'':{name_w}s}  {spec.description}")
            out.append(
                f"  {'':{name_w}s}  fingerprint "
                f"{spec.fingerprint()[:16]}"
            )
    out.append(
        "Compose '<machine>+<memory>' with any memory preset "
        "(e.g. narrow+l2, wide+l2+prefetch); see `repro mem` for the "
        "memory presets."
    )
    return "\n".join(out)
