"""Deterministic fault injection for the sweep engine.

The fault-tolerance machinery (per-cell retry/timeout in
:mod:`repro.engine.runner`, the crash-safe store in
:mod:`repro.engine.cache`) is only trustworthy if its failure paths are
exercised on purpose.  This module injects faults at *chosen* matrix
cells and *chosen* attempts, so a chaos test (or the CI chaos step) can
say "the worker simulating CSMT/llll/2 crashes on its first attempt"
and assert the sweep survives, retries, records, and resumes exactly as
documented.

A plan is a ``;``-separated list of fault specs::

    kind@cell-pattern[#attempts]

* ``kind`` — ``crash`` (pool worker exits hard / in-process raises
  :class:`InjectedCrash`), ``hang`` (the worker sleeps past any sane
  per-cell timeout), ``enospc`` (store writes for the cell raise
  ``OSError(ENOSPC)``), ``corrupt`` (the store write lands, then the
  entry's bytes are torn — truncated mid-document — as if the machine
  died inside the write).
* ``cell-pattern`` — matched with :func:`fnmatch.fnmatch` against the
  cell's id ``policy/workload/nT[/memory][/machine]`` (e.g.
  ``CSMT/llll/2`` or ``*/hhhh/*``).  ``enospc``/``corrupt`` also match
  fingerprint-index writes under the id ``index/<bench>`` (e.g.
  ``corrupt@index/mcf``), which count as attempt 1.
* ``attempts`` — comma-separated attempt numbers the fault fires on
  (1-based); default ``1`` (fail the first try, let retries succeed).
  ``*`` fires on every attempt (a persistent fault that must exhaust
  the retry budget and become a recorded failure).

A plan comes from the ``REPRO_FAULTS`` environment variable or
explicitly from ``SimulationSession(fault_plan=...)``, so tests can
scope a plan to one session without touching the process environment.
A sweep installs its session's plan (:func:`install`) before it forks
its pool, and the workers inherit it.  Injection is
deterministic — same plan, same matrix, same faults — which is what
lets the chaos tests assert exact failure counts and exact
re-simulation counts on resume.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch

#: Exit status an injected worker crash dies with (visible in -v logs;
#: distinct from signal deaths so a chaos run is recognisable).
CRASH_EXIT_CODE = 87

#: How long an injected hang sleeps.  Finite on purpose: if pool
#: termination ever fails, a chaos test stalls for this long instead of
#: for ever.  Overridable via REPRO_FAULTS_HANG_S for tests that want
#: to keep wall time low.
DEFAULT_HANG_S = 30.0

ENV_VAR = "REPRO_FAULTS"

KINDS = ("crash", "hang", "enospc", "corrupt")


class InjectedCrash(RuntimeError):
    """In-process stand-in for a worker crash: raised instead of
    ``os._exit`` when the faulted cell runs in the parent process (the
    degraded no-pool mode must not kill the whole sweep process)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: kind + cell pattern + firing attempts."""

    kind: str
    cell: str
    #: 1-based attempt numbers to fire on; empty = every attempt
    attempts: tuple[int, ...] = (1,)

    def fires(self, cell_id: str, attempt: int) -> bool:
        if self.attempts and attempt not in self.attempts:
            return False
        return fnmatch(cell_id, self.cell)


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, picklable set of :class:`FaultSpec`\\ s."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan":
        """Parse a plan string (see module docstring); ``None``/empty
        parses to the empty plan."""
        specs = []
        for part in (text or "").split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, rest = part.partition("@")
            kind = kind.strip().lower()
            if kind not in KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in {part!r} "
                    f"(expected one of {', '.join(KINDS)})"
                )
            if not rest:
                raise ValueError(f"fault spec {part!r} names no cell")
            cell, _, att = rest.partition("#")
            att = att.strip()
            if not att:
                attempts: tuple[int, ...] = (1,)
            elif att == "*":
                attempts = ()
            else:
                attempts = tuple(
                    sorted(int(a) for a in att.split(",") if a.strip())
                )
            specs.append(FaultSpec(kind, cell.strip(), attempts))
        return cls(tuple(specs))

    @classmethod
    def from_env(cls) -> "FaultPlan":
        return cls.parse(os.environ.get(ENV_VAR))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def matching(self, kind: str, cell_id: str, attempt: int):
        return next(
            (
                s for s in self.specs
                if s.kind == kind and s.fires(cell_id, attempt)
            ),
            None,
        )


@dataclass
class _State:
    """Process-local injection state (each pool worker has its own)."""

    plan: FaultPlan = field(default_factory=FaultPlan)
    #: True only inside a pool worker, where a crash may take the whole
    #: process down; in the parent it must raise instead.
    in_worker: bool = False
    #: cell currently being simulated + its attempt number, so the
    #: store layer (which only knows cache keys) can match cell-scoped
    #: enospc/corrupt faults
    cell_id: str | None = None
    attempt: int = 1


_state = _State()


def install(plan: FaultPlan | str | None) -> FaultPlan:
    """Install ``plan`` (a :class:`FaultPlan`, plan string, or ``None``
    for the empty plan) as this process's active plan."""
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan.parse(plan)
    _state.plan = plan
    return plan


def enter_worker() -> None:
    """Pool-worker initializer: from now on a crash fault exits this
    process instead of raising."""
    _state.in_worker = True


def active() -> FaultPlan:
    return _state.plan


def begin_cell(cell_id: str, attempt: int) -> None:
    """Mark the cell about to execute (store faults key off it)."""
    _state.cell_id = cell_id
    _state.attempt = attempt


def end_cell() -> None:
    _state.cell_id = None
    _state.attempt = 1


def maybe_crash_or_hang(cell_id: str, attempt: int) -> None:
    """Fire a matching ``crash`` or ``hang`` fault for this cell.

    A crash inside a pool worker is a hard ``os._exit`` — the real
    thing, taking the worker (and the pool) down so
    ``BrokenProcessPool`` recovery gets exercised.  In the parent
    process it raises :class:`InjectedCrash` instead, which the
    degraded in-process path records as an ordinary cell failure.
    A hang sleeps long enough to trip any per-cell timeout.
    """
    plan = _state.plan
    if not plan:
        return
    if plan.matching("crash", cell_id, attempt):
        if _state.in_worker:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash(
            f"injected crash at {cell_id} (attempt {attempt})"
        )
    if plan.matching("hang", cell_id, attempt):
        time.sleep(float(os.environ.get(
            "REPRO_FAULTS_HANG_S", DEFAULT_HANG_S
        )))


def _store_fault(kind: str, item: str | None) -> bool:
    """True if a ``kind`` store fault fires for this write.  ``item``
    names a write that is not a cell's result (``index/<bench>`` for an
    index entry, always attempt 1); ``None`` means the cell currently
    executing."""
    plan = _state.plan
    if not plan:
        return False
    if item is None:
        item, attempt = _state.cell_id, _state.attempt
    else:
        attempt = 1
    return bool(item and plan.matching(kind, item, attempt))


def maybe_fail_store_write(item: str | None = None) -> None:
    """Raise ``OSError(ENOSPC)`` if an ``enospc`` fault matches the
    write (best-effort store writes must swallow it and count it, not
    die)."""
    if _store_fault("enospc", item):
        raise OSError(errno.ENOSPC, "injected: no space left on device")


def maybe_tear_entry(path, item: str | None = None) -> bool:
    """After a successful store write, tear the entry's bytes if a
    ``corrupt`` fault matches the write — the on-disk result of a
    machine dying mid-write.  Returns True if torn."""
    if not _store_fault("corrupt", item):
        return False
    try:
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
    except OSError:
        return False
    return True
