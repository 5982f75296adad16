"""Cycle-accurate SMT timing simulator and trace infrastructure."""

from .._lazy import lazy_exports

__all__ = [
    "Processor",
    "SimParams",
    "run_single_thread",
    "BenchStats",
    "SimStats",
    "StaticTable",
    "TraceBundle",
    "build_static_table",
    "record_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".params": ("SimParams",),
    ".processor": ("Processor", "run_single_thread"),
    ".stats": ("BenchStats", "SimStats"),
    ".trace": (
        "StaticTable", "TraceBundle", "build_static_table", "record_trace",
    ),
})
