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

from .cache import CACHE_VERSION, ResultCache, cache_key
from .faults import FaultPlan, InjectedCrash
from .hooks import CycleRecorder, RetireLog, SimHook
from .journal import SweepJournal
from .runner import (
    CellFailure,
    RetryPolicy,
    SweepAborted,
    cell_label,
    run_matrix,
)
from .session import (
    DEFAULT_SCALE,
    Cell,
    QUICK_SCALE,
    ExperimentScale,
    SimulationSession,
)
from ..obs.telemetry import TelemetryLedger

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
