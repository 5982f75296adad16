"""Experiment harness: workloads, paper claims and per-figure
regenerators, each computed through a
:class:`repro.engine.SimulationSession`."""

from .._lazy import lazy_exports

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
    "fig_axis",
    "render_fig_axis",
    "sensitivity",
    "WORKLOAD_ORDER",
    "WORKLOADS",
    "validate_workloads",
    "render_memory_levels",
    "render_memory_report",
    "render_machine_report",
    "render_scenarios",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".claims": ("Claim", "evaluate_claims", "render_claims"),
    ".machreport": ("render_machine_report", "render_scenarios"),
    ".memreport": ("render_memory_levels", "render_memory_report"),
    ".figures": (
        "FIG16_POLICIES", "fig13a", "fig14", "fig15", "fig16", "fig_axis",
        "render_fig13a", "render_fig16", "render_fig_axis",
        "render_speedup_table", "sensitivity",
    ),
    ".workloads": ("WORKLOAD_ORDER", "WORKLOADS", "validate_workloads"),
})
