"""Simulation parameters: the run-length, multitasking and policy
knobs one cell runs under.

Kept apart from :mod:`repro.pipeline.processor` so the engine can key,
store and ship cells without importing the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimParams:
    """Scaling and policy knobs (paper values in comments)."""

    target_instructions: int = 200_000  # paper: 200 M
    timeslice: int = 50_000  # paper: 5 M cycles
    max_cycles: int = 50_000_000
    perfect_memory: bool = False
    renaming: bool = True
    priority: str = "round-robin"
    seed: int = 12345
