"""repro — cycle-accurate reproduction of *A Low Cost Split-Issue
Technique to Improve Performance of SMT Clustered VLIW Processors*
(Gupta, Sánchez, Llosa — IPDPS Workshops 2010).

Public API tour
---------------
* :mod:`repro.arch`      — machine configuration (the paper's 4-cluster,
  16-issue VEX machine is :data:`repro.arch.PAPER_MACHINE`);
* :mod:`repro.compiler`  — the mini VLIW compiler (IR builder, BUG
  cluster assignment, list scheduling, register allocation);
* :mod:`repro.vm`        — functional interpreter + trace recording;
* :mod:`repro.kernels`   — the 12-benchmark suite (paper Fig. 13a);
* :mod:`repro.core`      — merging hardware, split-issue policies
  (CSMT/SMT/CCSI/COSI/OOSI x NS/AS), delay-buffer semantics;
* :mod:`repro.pipeline`  — the cycle-accurate SMT timing simulator;
* :mod:`repro.engine`    — the execution layer: sessions, parallel
  sweeps, disk-backed result caching, simulator hooks;
* :mod:`repro.harness`   — workloads, the paper claims and the
  Figs. 13-16 regenerators; each takes a
  :class:`~repro.engine.SimulationSession` as its first argument.

Quickstart
----------
>>> from repro import quick_demo
>>> stats = quick_demo()          # CCSI AS on the llhh workload
>>> stats.ipc > 0
True
"""

from .arch import PAPER_MACHINE, MachineConfig
from .core.policies import ALL_POLICIES, Policy, get_policy
from .engine import ExperimentScale, SimulationSession
from .kernels.suite import SUITE, get_trace
from .pipeline.processor import Processor, SimParams, run_single_thread

__version__ = "1.1.0"

__all__ = [
    "PAPER_MACHINE",
    "MachineConfig",
    "ALL_POLICIES",
    "Policy",
    "get_policy",
    "SimulationSession",
    "ExperimentScale",
    "SUITE",
    "get_trace",
    "Processor",
    "SimParams",
    "run_single_thread",
    "quick_demo",
]


def quick_demo(policy: str = "CCSI AS", workload: str = "llhh"):
    """Run one small multithreaded simulation and return its stats."""
    from .engine import QUICK_SCALE

    return SimulationSession(QUICK_SCALE).run(policy, workload, 4)
