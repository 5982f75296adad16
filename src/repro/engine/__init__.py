"""The simulation engine: sessions, parallel sweeps, result caching,
and simulator instrumentation hooks.

This package is the single execution path for all experiments.  The
harness (:mod:`repro.harness`), the CLI, and the benchmark suite all
obtain results through :class:`SimulationSession`; nothing outside this
package (except unit tests) constructs a
:class:`~repro.pipeline.processor.Processor` directly.

>>> from repro.engine import SimulationSession, QUICK_SCALE
>>> session = SimulationSession(QUICK_SCALE)
>>> session.run("CCSI AS", "llhh", 4).ipc > 0
True
"""

from .._lazy import lazy_exports

__all__ = [
    "CACHE_VERSION",
    "ResultCache",
    "cache_key",
    "CellFailure",
    "CycleRecorder",
    "FaultPlan",
    "InjectedCrash",
    "RetireLog",
    "RetryPolicy",
    "SimHook",
    "SweepAborted",
    "SweepJournal",
    "cell_label",
    "run_matrix",
    "DEFAULT_SCALE",
    "Cell",
    "QUICK_SCALE",
    "ExperimentScale",
    "SimulationSession",
    "TelemetryLedger",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("CACHE_VERSION", "ResultCache", "cache_key"),
    ".faults": ("FaultPlan", "InjectedCrash"),
    ".hooks": ("CycleRecorder", "RetireLog", "SimHook"),
    ".journal": ("SweepJournal",),
    ".runner": (
        "CellFailure", "RetryPolicy", "SweepAborted", "cell_label",
        "run_matrix",
    ),
    ".session": (
        "DEFAULT_SCALE", "Cell", "QUICK_SCALE", "ExperimentScale",
        "SimulationSession",
    ),
    "..obs.telemetry": ("TelemetryLedger",),
})
