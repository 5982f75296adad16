"""Experiment harness: workloads, paper claims and per-figure
regenerators, each computed through a
:class:`repro.engine.SimulationSession`."""

from .claims import Claim, evaluate_claims, render_claims
from .machreport import (
    MachineRow,
    machine_sensitivity,
    render_machine_report,
    render_scenarios,
)
from .memreport import (
    MemRow,
    memory_sensitivity,
    render_memory_levels,
    render_memory_report,
)
from .figures import (
    FIG16_POLICIES,
    fig13a,
    fig14,
    fig15,
    fig16,
    render_fig13a,
    render_fig16,
    render_speedup_table,
)
from .workloads import WORKLOAD_ORDER, WORKLOADS, validate_workloads

__all__ = [
    "Claim",
    "evaluate_claims",
    "render_claims",
    "FIG16_POLICIES",
    "fig13a",
    "fig14",
    "fig15",
    "fig16",
    "render_fig13a",
    "render_fig16",
    "render_speedup_table",
    "WORKLOAD_ORDER",
    "WORKLOADS",
    "validate_workloads",
    "MemRow",
    "memory_sensitivity",
    "render_memory_levels",
    "render_memory_report",
    "MachineRow",
    "machine_sensitivity",
    "render_machine_report",
    "render_scenarios",
]
