"""`SimulationSession` — the single result resolver for all simulations.

A session owns the three things every run needs — machine config,
experiment scale, and seed — and resolves each result from three
layers under one ``run()`` call:

1. an in-process memo (same-object returns, so figure generators share
   runs within a process);
2. an optional content-hashed disk cache (:mod:`repro.engine.cache`),
   shared across processes and sessions;
3. the simulator itself (:class:`~repro.pipeline.processor.Processor`),
   run through :meth:`Cell.simulate`.

``sweep()`` executes a policy × workload × thread-count matrix —
optionally × memory-scenario (`memory=` presets from
:data:`repro.arch.config.MEMORY_PRESETS`) and × machine-scenario
(`machine=` presets from :data:`repro.arch.scenarios.MACHINE_PRESETS`)
— serially or on a process pool (:mod:`repro.engine.runner`); the same
seed gives bit-identical counters either way, because every cell is an
independent deterministic simulation.

Every call resolves its cell spec once, into a :class:`Cell`; that
record is what the memo, the store, the simulator, telemetry, the
journal, fault injection and the pool workers see.  Observer runs
(hooks, cycle attribution) resolve a cell with
:meth:`SimulationSession.cell` and call :meth:`Cell.simulate`
themselves, so their results never enter the memo or the store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..arch.config import MachineConfig, PAPER_MACHINE, get_memory_config
from ..arch.scenarios import get_scenario
from ..core.policies import ALL_POLICIES, SMT, Policy, get_policy
from ..kernels.suite import get_fingerprint, get_trace, trace_identity
from ..obs.telemetry import TelemetryLedger
from ..pipeline.params import SimParams
from ..pipeline.stats import SimStats
from .cache import ResultCache, cache_key
from .faults import FaultPlan
from .journal import SweepJournal
from .runner import DEFAULT_RETRY, RetryPolicy, cell_label

if TYPE_CHECKING:
    # the simulator is imported where a cell simulates: a command whose
    # every cell is a store hit never loads it
    from ..pipeline.processor import Processor
    from ..pipeline.trace import TraceBundle

#: Policy-name stand-in for single-thread (ST) baseline runs in cache
#: keys and telemetry; the run itself uses op-level merging with one
#: thread, where every policy is equivalent.
_ST_POLICY = "ST"
_ST = replace(SMT, name=_ST_POLICY)


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs for the whole experiment matrix.

    The paper runs 200 M instructions with 5 M-cycle timeslices; the
    defaults here keep a full Figs. 13-16 regeneration to a few minutes
    of pure Python while preserving the multitasking structure
    (hundreds of context switches per run).
    """

    kernel_scale: float = 1.0
    target_instructions: int = 40_000
    timeslice: int = 10_000
    max_cycles: int = 5_000_000
    seed: int = 12345


DEFAULT_SCALE = ExperimentScale()
QUICK_SCALE = ExperimentScale(
    kernel_scale=0.3, target_instructions=6_000, timeslice=3_000
)


def _resolve_cfg(
    cfg: MachineConfig, memory: str | None, machine: str | None
) -> MachineConfig:
    """``cfg`` under a (memory preset, machine preset) coordinate
    (``None``: keep ``cfg``'s).  A machine scenario supplies the whole
    config, its own memory included; a memory preset overlays it."""
    if machine is not None:
        cfg = get_scenario(machine).machine
    if memory is not None:
        cfg = replace(cfg, memory=get_memory_config(memory))
    return cfg


def _workloads_table() -> dict[str, tuple[str, ...]]:
    # Lazy: harness.workloads transitively triggers repro.harness.
    # __init__, which imports back into this module.
    from ..harness.workloads import WORKLOADS

    return WORKLOADS


@dataclass(frozen=True, eq=False)
class Cell:
    """One matrix cell, resolved once from its spec.

    Frozen and picklable: a pool worker simulates the cell it receives
    without resolving anything from names.  Compared and hashed by
    identity, so one sweep's bookkeeping can key on it."""

    #: the spec it was resolved from: ``(policy, workload, n_threads)``
    #: plus the memory and machine coordinates a sweep appends
    spec: tuple
    policy: Policy
    #: the Fig. 13b workload name, or the member names joined by ``+``
    workload: str
    members: tuple[str, ...]
    n_threads: int
    #: memory- and machine-scenario coordinates (``None``: the
    #: session's own)
    memory: str | None
    machine: str | None
    cfg: MachineConfig
    params: SimParams
    kernel_scale: float
    #: ``policy/workload/nT[/memory][/machine]``: the journal, log and
    #: fault-matcher id
    label: str
    memo_key: tuple

    def bundles(self, store: ResultCache | None = None) -> list[TraceBundle]:
        """The members' trace bundles.  The compiler and the functional
        VM see only the machine shape, and the trace memo normalises
        the memory hierarchy out, so every memory preset riding on one
        machine shares one compile + trace per benchmark."""
        return [
            get_trace(name, self.kernel_scale, self.cfg, store=store)
            for name in self.members
        ]

    def simulate(
        self, store: ResultCache | None = None, hooks=(),
        attribute: bool = False,
    ) -> tuple[SimStats, Processor]:
        """Run the cell cycle by cycle; returns its stats and the
        processor (which reports the run-loop tier it took).  ``hooks``
        and ``attribute`` attach observers (``docs/observability.md``);
        they pin the reference loop and never change a counter."""
        from ..pipeline.processor import Processor

        proc = Processor(
            self.policy, self.bundles(store), self.n_threads, self.cfg,
            self.params, hooks=hooks, attribute=attribute,
        )
        return proc.run(), proc

    def telemetry(
        self, source: str, loop_used: str | None = None,
        wall_s: float = 0.0, spec_s: float = 0.0, **extra,
    ) -> dict:
        """The cell's telemetry-ledger record for one resolution."""
        return dict(
            policy=self.policy.name,
            workload=self.workload,
            n_threads=self.n_threads,
            memory=self.memory,
            machine=self.machine,
            source=source,
            loop_used=loop_used,
            wall_s=round(wall_s, 6),
            spec_s=round(spec_s, 6),
            **extra,
        )


class SimulationSession:
    """Owns config/scale/seed and executes the simulation matrix."""

    def __init__(
        self,
        scale: ExperimentScale = DEFAULT_SCALE,
        cfg: MachineConfig = PAPER_MACHINE,
        cache_dir: str | None = None,
        jobs: int = 1,
        telemetry: str | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | str | None = None,
    ):
        self.scale = scale
        self.cfg = cfg
        self.jobs = max(1, jobs)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        #: durable sweep journal under the cache dir — the resumable
        #: scheduler's record of cell outcomes (``docs/robustness.md``);
        #: only a cache-backed session can resume
        self.journal = (
            SweepJournal.for_cache_dir(cache_dir) if cache_dir else None
        )
        #: fault-tolerance knobs for sweeps (per-cell timeout, retry
        #: budget, backoff, failure tolerance)
        self.retry = DEFAULT_RETRY if retry is None else retry
        #: deterministic fault-injection plan (chaos testing); defaults
        #: to whatever the REPRO_FAULTS environment variable says,
        #: which is the empty plan in normal operation
        self.fault_plan = (
            fault_plan if isinstance(fault_plan, FaultPlan)
            else FaultPlan.parse(fault_plan) if fault_plan
            else FaultPlan.from_env()
        )
        #: cells that exhausted their retry budget across this
        #: session's sweeps (:class:`~repro.engine.runner.CellFailure`)
        self.failures: list = []
        self._memo: dict[tuple, SimStats] = {}
        #: Processor runs actually executed on behalf of this session
        #: (including pool workers); zero on a warm-cache rerun.
        self.simulations = 0
        #: in-process memo hits
        self.memo_hits = 0
        #: per-cell telemetry ledger (``docs/observability.md``):
        #: always accumulates in memory; ``telemetry=`` names a JSONL
        #: file every record is also appended to
        self.telemetry = TelemetryLedger(telemetry)

    # ----------------------------------------------------------- cells
    def _params(self, machine: str | None) -> SimParams:
        """Simulation parameters under one machine-scenario coordinate
        (``None``: the session's config): a scenario may scale the OS
        timeslice (``fast-switch``), everything else is the scale's."""
        s = self.scale
        return SimParams(
            target_instructions=s.target_instructions,
            timeslice=(
                s.timeslice if machine is None
                else get_scenario(machine).timeslice(s.timeslice)
            ),
            max_cycles=s.max_cycles,
            seed=s.seed,
        )

    def cell(
        self,
        policy: Policy | str,
        workload,
        n_threads: int,
        memory: str | None = None,
        machine: str | None = None,
        spec: tuple | None = None,
    ) -> Cell:
        """Resolve one matrix cell: ``workload`` is a Fig. 13b name or
        a sequence of benchmark names, ``memory``/``machine`` name
        scenario presets (``None``: the session's own).  ``spec`` is
        the sweep spec the cell stands for (default: the arguments)."""
        if spec is None:
            spec = (policy, workload, n_threads, memory, machine)
        if isinstance(policy, str):
            policy = get_policy(policy)
        if isinstance(workload, str):
            members = tuple(_workloads_table()[workload])
        else:
            members = tuple(workload)
            workload = "+".join(members)
        cfg = _resolve_cfg(self.cfg, memory, machine)
        params = self._params(machine)
        return Cell(
            spec=spec,
            policy=policy,
            workload=workload,
            members=members,
            n_threads=n_threads,
            memory=memory,
            machine=machine,
            cfg=cfg,
            params=params,
            kernel_scale=self.scale.kernel_scale,
            label=cell_label(
                (policy.name, workload, n_threads, memory, machine)
            ),
            # keyed by the full (frozen, hashable) machine config plus
            # the effective timeslice, not by preset names: a custom
            # config sharing a preset's name must not collide with that
            # preset, and a machine scenario may rescale the timeslice
            memo_key=(
                "cell", policy.name, members, n_threads, cfg,
                params.timeslice,
            ),
        )

    def _single_cell(self, bench: str, perfect_memory: bool) -> Cell:
        """One single-thread baseline run.  Its length comes from the
        trace identity, served like a fingerprint."""
        ident = trace_identity(
            bench, self.scale.kernel_scale, self.cfg, store=self.cache
        )
        # Matches the legacy ``run_single_thread`` helper exactly
        # (including its 50 M-cycle safety limit, not the matrix
        # scale's), so Fig. 13a numbers are unchanged by the engine.
        params = SimParams(
            target_instructions=ident.length,
            timeslice=0,
            perfect_memory=perfect_memory,
            renaming=False,
            seed=self.scale.seed,
        )
        spec = (_ST_POLICY, bench, 1)
        return Cell(
            spec=spec, policy=_ST, workload=bench, members=(bench,),
            n_threads=1, memory=None, machine=None, cfg=self.cfg,
            params=params, kernel_scale=self.scale.kernel_scale,
            label=cell_label(spec),
            memo_key=("single", bench, perfect_memory),
        )

    def _disk_key(self, cell: Cell) -> str | None:
        """The cell's store key (``None`` without a store).  The trace
        fingerprints come from the memo or the store's fingerprint
        index, so no bundle is built for them."""
        if self.cache is None:
            return None
        prints = tuple(
            get_fingerprint(
                name, cell.kernel_scale, cell.cfg, store=self.cache
            )
            for name in cell.members
        )
        return cache_key(
            cell.cfg, cell.params, cell.policy.name, cell.members,
            prints, cell.n_threads,
        )

    # ------------------------------------------------------- execution
    def _lookup(self, cell: Cell) -> tuple[SimStats | None, str | None,
                                           str | None]:
        """Memo, then store, never simulating: ``(stats, source, store
        key)`` with ``source`` ``"memo"``, ``"disk"`` or ``None`` on a
        miss.  The store key is derived only after a memo miss."""
        stats = self._memo.get(cell.memo_key)
        if stats is not None:
            self.memo_hits += 1
            return stats, "memo", None
        if self.cache is None:
            return None, None, None
        key = self._disk_key(cell)
        stats = self.cache.get(key)
        if stats is not None:
            self._memo[cell.memo_key] = stats
            return stats, "disk", key
        return None, None, key

    def _adopt(self, cell: Cell, stats: SimStats) -> str | None:
        """Store a computed result (local or a pool worker's) in the
        memo and the store, as if this session had simulated it;
        returns the store key.  The key is derived again because the
        cell's bundles are built by now, and a built bundle's identity
        replaces whatever the fingerprint index served."""
        self._memo[cell.memo_key] = stats
        key = self._disk_key(cell)
        if key is not None:
            self.cache.put(
                key,
                stats,
                meta={
                    "policy": cell.policy.name,
                    "members": list(cell.members),
                    "n_threads": cell.n_threads,
                    "memory": cell.cfg.memory.name,
                    "machine": cell.machine or "default",
                },
            )
        return key

    def _run_cell(self, cell: Cell, rebuild=None) -> tuple[SimStats, str,
                                                          str | None]:
        """Memo → store → simulate one resolved cell; lands one
        telemetry record and returns ``(stats, source, store key)``.
        ``rebuild`` re-resolves a cell whose parameters depend on its
        traces, once their bundles are built."""
        t0 = time.perf_counter()
        stats, source, key = self._lookup(cell)
        loop_used = None
        spec_s = 0.0
        if stats is None:
            if rebuild is not None:
                cell.bundles(self.cache)
                cell = rebuild()
            stats, proc = cell.simulate(self.cache)
            self.simulations += 1
            key = self._adopt(cell, stats)
            source, loop_used = "simulated", proc.loop_used
            spec_s = proc.spec_seconds
        self.telemetry.record(**cell.telemetry(
            source, loop_used, time.perf_counter() - t0, spec_s
        ))
        return stats, source, key

    def run(
        self,
        policy: Policy | str,
        workload,
        n_threads: int,
        memory: str | None = None,
        machine: str | None = None,
    ) -> SimStats:
        """One cell of the matrix: memo → disk cache → simulate.

        ``memory`` names a :data:`~repro.arch.config.MEMORY_PRESETS`
        scenario and ``machine`` a
        :data:`~repro.arch.scenarios.MACHINE_PRESETS` scenario to run
        the cell under (default: the session's own configuration —
        ``machine="paper"`` is bit-identical to the default).

        Every resolution — memo hit, disk hit, or simulation — lands
        one record in :attr:`telemetry`."""
        return self._run_cell(
            self.cell(policy, workload, n_threads, memory, machine)
        )[0]

    def run_single(self, bench: str, perfect_memory: bool = False) -> SimStats:
        """Single-thread baseline run of one benchmark (Fig. 13a's
        IPCr/IPCp columns): no multitasking, no renaming, run to the
        end of the trace once."""
        stats = self._memo.get(("single", bench, perfect_memory))
        if stats is not None:
            self.memo_hits += 1
            return stats
        # a simulating baseline is resolved again from its built
        # bundle, which replaced whatever the fingerprint index served
        return self._run_cell(
            self._single_cell(bench, perfect_memory),
            rebuild=lambda: self._single_cell(bench, perfect_memory),
        )[0]

    def sweep(
        self,
        policies=None,
        workloads=None,
        n_threads=(2, 4),
        memory=None,
        machine=None,
        resume: bool = False,
    ) -> dict[tuple, SimStats]:
        """Run a policy × workload × thread-count matrix, optionally on
        a process pool.  Returns ``{(policy, workload, nt): SimStats}``;
        cells already in the memo or disk cache are not re-simulated.

        ``memory`` adds a fourth sweep axis: a preset name (or sequence
        of names) from :data:`~repro.arch.config.MEMORY_PRESETS`.  When
        given, result keys become ``(policy, workload, nt, preset)``
        and each cell simulates under that memory scenario.

        ``machine`` adds a machine-scenario axis: a name (or sequence
        of names) resolvable by
        :func:`~repro.arch.scenarios.get_scenario`.  When given, result
        keys become ``(policy, workload, nt, memory, machine)`` (the
        memory coordinate is ``None`` unless the memory axis is also
        swept) and each cell simulates on that machine.

        The sweep runs under the session's :class:`RetryPolicy`: a
        cell that exhausts its retry budget is recorded in
        :attr:`failures` (and the sweep journal) instead of raising,
        up to ``retry.max_failures``.  ``resume=True`` first diffs the
        matrix against the journal + store and logs the resume plan;
        completed cells are never re-simulated either way
        (``docs/robustness.md``)."""
        from .runner import run_matrix

        return run_matrix(
            self, self._specs(policies, workloads, n_threads, memory, machine),
            self.jobs, resume=resume,
        )

    def prefetch(
        self,
        policies=None,
        workloads=None,
        n_threads=(2, 4),
        memory=None,
        machine=None,
    ) -> None:
        """Resolve the slice a harness function is about to read, so
        its serial loop finds every cell in the memo.  With ``jobs >
        1`` the slice's cells that are not memoised go through
        :func:`~repro.engine.runner.run_matrix` on the pool (arguments
        as :meth:`sweep`'s); with one job it returns at once and the
        loop resolves each cell itself."""
        if self.jobs <= 1:
            return
        from .runner import run_matrix

        specs = [
            s for s in self._specs(
                policies, workloads, n_threads, memory, machine
            )
            if self.cell(*s).memo_key not in self._memo
        ]
        if specs:
            run_matrix(self, specs, self.jobs)

    def _specs(self, policies, workloads, n_threads, memory, machine):
        """The sweep specs of a policy × workload × thread-count
        matrix, with the memory and machine axes :meth:`sweep`
        describes."""
        if policies is None:
            policies = [p.name for p in ALL_POLICIES]
        policies = [
            p.name if isinstance(p, Policy) else p for p in policies
        ]
        if workloads is None:
            workloads = list(_workloads_table())
        mem_axis = (
            (None,) if memory is None
            else (memory,) if isinstance(memory, str)
            else tuple(memory)
        )
        if machine is None:
            return [
                (p, w, nt) if m is None else (p, w, nt, m)
                for m in mem_axis
                for nt in n_threads
                for p in policies
                for w in workloads
            ]
        machines = (
            (machine,) if isinstance(machine, str) else tuple(machine)
        )
        return [
            (p, w, nt, m, mach)
            for mach in machines
            for m in mem_axis
            for nt in n_threads
            for p in policies
            for w in workloads
        ]

    # ----------------------------------------------------- conveniences
    def ipc(
        self,
        policy,
        workload,
        n_threads: int,
        memory: str | None = None,
        machine: str | None = None,
    ) -> float:
        return self.run(policy, workload, n_threads, memory, machine).ipc

    def speedup(self, policy, baseline, workload, n_threads: int) -> float:
        """Percent IPC speedup of ``policy`` over ``baseline``."""
        p = self.ipc(policy, workload, n_threads)
        b = self.ipc(baseline, workload, n_threads)
        return 100.0 * (p / b - 1.0)

    def average_ipc(
        self,
        policy,
        n_threads: int,
        memory: str | None = None,
        machine: str | None = None,
    ) -> float:
        """Mean IPC over all nine workloads (the paper's Fig. 16 bars;
        ``memory=`` / ``machine=`` average under a memory or machine
        scenario instead)."""
        vals = [
            self.ipc(policy, w, n_threads, memory, machine)
            for w in _workloads_table()
        ]
        return sum(vals) / len(vals)

    def cache_stats(self) -> dict[str, int]:
        """Memo, store and simulation counters.  The ``traces_*``
        counters are 0 without a cache dir: traces the functional VM
        recorded in this process, and trace identities the store's
        fingerprint index served."""
        c = self.cache
        return {
            "memo_entries": len(self._memo),
            "memo_hits": self.memo_hits,
            "disk_hits": c.hits if c else 0,
            "disk_misses": c.misses if c else 0,
            "disk_stores": c.stores if c else 0,
            "disk_put_errors": c.put_errors if c else 0,
            "quarantined": c.quarantined if c else 0,
            "traces_recorded": c.traces_recorded if c else 0,
            "traces_indexed": c.index_hits if c else 0,
            "simulations": self.simulations,
            "failures": len(self.failures),
        }
