"""`SimulationSession` — the single execution path for all simulations.

A session owns the three things every run needs — machine config,
experiment scale, and seed — and layers three result stores under one
``run()`` call:

1. an in-process memo (same-object returns, so figure generators share
   runs within a process);
2. an optional content-hashed disk cache (:mod:`repro.engine.cache`),
   shared across processes and sessions;
3. the simulator itself (:class:`~repro.pipeline.processor.Processor`),
   the only place in the codebase that constructs one for experiments.

``sweep()`` executes a policy × workload × thread-count matrix —
optionally × memory-scenario (`memory=` presets from
:data:`repro.arch.config.MEMORY_PRESETS`) and × machine-scenario
(`machine=` presets from :data:`repro.arch.scenarios.MACHINE_PRESETS`)
— serially or on a process pool (:mod:`repro.engine.runner`); the same
seed gives bit-identical counters either way, because every cell is an
independent deterministic simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..arch.config import MachineConfig, PAPER_MACHINE, get_memory_config
from ..arch.scenarios import get_scenario
from ..core.policies import ALL_POLICIES, Policy, get_policy
from ..kernels.suite import get_trace
from ..obs.telemetry import TelemetryLedger
from ..pipeline.processor import Processor, RUN_LOOPS, SimParams
from ..pipeline.stats import SimStats
from ..pipeline.trace import TraceBundle
from .cache import ResultCache, cache_key
from .faults import FaultPlan
from .journal import SweepJournal
from .runner import DEFAULT_RETRY, RetryPolicy

#: Policy-name stand-in for single-thread (ST) baseline runs in cache
#: keys; the run itself uses op-level merging with one thread, where
#: every policy is equivalent.
_ST_POLICY = "ST"


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


def _workloads_table() -> dict[str, tuple[str, ...]]:
    # Lazy: harness.workloads transitively triggers repro.harness.
    # __init__, which imports back into this module.
    from ..harness.workloads import WORKLOADS

    return WORKLOADS


class SimulationSession:
    """Owns config/scale/seed and executes the simulation matrix."""

    def __init__(
        self,
        scale: ExperimentScale = DEFAULT_SCALE,
        cfg: MachineConfig = PAPER_MACHINE,
        cache_dir: str | None = None,
        jobs: int = 1,
        hooks=None,
        memory: str | None = None,
        machine: str | None = None,
        reference: bool = False,
        run_loop: str = "auto",
        telemetry: str | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | str | None = None,
        batch: bool = False,
    ):
        if machine is not None:
            # a machine scenario supplies the whole config (its own
            # memory included); an explicit memory= still overlays it
            spec = get_scenario(machine)
            cfg = spec.machine
            scale = replace(scale, timeslice=spec.timeslice(scale.timeslice))
        if memory is not None:
            cfg = replace(cfg, memory=get_memory_config(memory))
        self.scale = scale
        self.cfg = cfg
        self.jobs = max(1, jobs)
        self.hooks = tuple(hooks) if hooks else ()
        #: force the per-cycle reference simulation loop instead of the
        #: event-driven fast path (``docs/performance.md``).  Results
        #: are bit-identical, so cached entries are shared either way.
        self.reference = reference
        #: run-loop tier handed to every Processor this session builds
        #: ("auto" = specialised codegen loop with ``_run_fast``
        #: fallback; see :data:`~repro.pipeline.processor.RUN_LOOPS`);
        #: ``reference=True`` still wins via ``force_reference``
        if run_loop not in RUN_LOOPS:
            raise ValueError(
                f"run_loop must be one of {RUN_LOOPS}, got {run_loop!r}"
            )
        self.run_loop = run_loop
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
        #: default for ``sweep(batch=...)``: group eligible cells by
        #: scenario shape and run each group in one lockstep
        #: numpy-vectorised lane (:mod:`repro.pipeline.batch`,
        #: ``docs/performance.md``); results stay bit-identical to
        #: scalar execution
        self.batch = batch
        #: cells that exhausted their retry budget across this
        #: session's sweeps (:class:`~repro.engine.runner.CellFailure`)
        self.failures: list = []
        #: session-owned worker pool, created lazily by sweeps and
        #: reused across them (workers pre-import numpy + the
        #: simulator); ``close()`` releases it
        self._pool = None
        self._pool_jobs = 0
        self._memo: dict[tuple, SimStats] = {}
        #: machine configs resolved per (machine preset, memory preset)
        #: sweep-axis coordinate, derived from the session config /
        #: scenario registry; cached so config identity is stable for
        #: the per-process trace memo
        self._preset_cfgs: dict[tuple, MachineConfig] = {}
        #: Processor runs actually executed on behalf of this session
        #: (including pool workers); zero on a warm-cache rerun.
        self.simulations = 0
        #: in-process memo hits (every ``lookup``/``run`` resolution
        #: served from ``_memo``)
        self.memo_hits = 0
        #: per-cell telemetry ledger (``docs/observability.md``):
        #: always accumulates in memory; ``telemetry=`` names a JSONL
        #: file every record is also appended to
        self.telemetry = TelemetryLedger(telemetry)

    # ------------------------------------------------------------ pool
    def _ensure_pool(self, jobs: int):
        """The session's worker pool, spawned on first use and reused
        by every subsequent sweep (a respawn per sweep would pay worker
        startup + numpy import for each one).  A pool sized differently
        from the request is replaced."""
        from concurrent.futures import ProcessPoolExecutor

        from .runner import _pool_warm_init

        if self._pool is not None and self._pool_jobs != jobs:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=jobs, initializer=_pool_warm_init
            )
            self._pool_jobs = jobs
        return self._pool

    def _discard_pool(self) -> None:
        """Forget the pool without joining it (the runner already
        terminated its workers — a broken pool cannot be reused)."""
        self._pool = None

    def close(self) -> None:
        """Release the session's worker pool, if one was ever
        spawned.  Safe to call repeatedly; the session stays usable
        (the next sweep spawns a fresh pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------ keys
    def params(self, machine: str | None = None) -> SimParams:
        """Simulation parameters for one machine-scenario coordinate
        (``None`` = the session's own scale): a scenario may scale the
        OS timeslice (``fast-switch``), everything else is the scale's."""
        s = self.scale
        timeslice = s.timeslice
        if machine is not None:
            timeslice = get_scenario(machine).timeslice(timeslice)
        return SimParams(
            target_instructions=s.target_instructions,
            timeslice=timeslice,
            max_cycles=s.max_cycles,
            seed=s.seed,
        )

    def workload_members(self, workload) -> tuple[str, ...]:
        """Normalise a workload spec: a Fig. 13b name or an explicit
        sequence of benchmark names."""
        if isinstance(workload, str):
            return tuple(_workloads_table()[workload])
        return tuple(workload)

    def machine_cfg(self, machine: str | None) -> MachineConfig:
        """Base machine config for one machine-scenario coordinate
        (``None`` = the session's own config).  This is the config
        traces are compiled against, so it is shared by every memory
        preset riding on the same machine."""
        if machine is None:
            return self.cfg
        key = (machine, None)
        cfg = self._preset_cfgs.get(key)
        if cfg is None:
            cfg = get_scenario(machine).machine
            self._preset_cfgs[key] = cfg
        return cfg

    def resolve_cfg(
        self, memory: str | None, machine: str | None = None
    ) -> MachineConfig:
        """Machine config for one (memory preset, machine preset)
        sweep-axis coordinate (``None`` = the session's own)."""
        base = self.machine_cfg(machine)
        if memory is None:
            return base
        key = (machine, memory)
        cfg = self._preset_cfgs.get(key)
        if cfg is None:
            cfg = replace(base, memory=get_memory_config(memory))
            self._preset_cfgs[key] = cfg
        return cfg

    def _bundles(
        self, members: tuple[str, ...], machine: str | None = None
    ) -> list[TraceBundle]:
        # Built against the cell's *machine* base config (the compiler
        # and functional VM see cluster count and issue shape): every
        # memory preset riding on one machine shares one compile +
        # trace per benchmark, because the memory hierarchy is
        # invisible to both.
        cfg = self.machine_cfg(machine)
        return [
            get_trace(name, self.scale.kernel_scale, cfg, store=self.cache)
            for name in members
        ]

    def _disk_key(
        self,
        policy_name: str,
        members: tuple[str, ...],
        n_threads: int,
        params: SimParams,
        cfg: MachineConfig | None = None,
        machine: str | None = None,
    ) -> str | None:
        if self.cache is None:
            return None
        prints = tuple(
            b.fingerprint() for b in self._bundles(members, machine)
        )
        return cache_key(
            self.cfg if cfg is None else cfg,
            params,
            policy_name,
            members,
            prints,
            n_threads,
        )

    def journal_key(self, spec: tuple) -> str | None:
        """Content-hashed identity of one sweep spec for the journal —
        the same key the disk cache uses, so a resumed sweep after a
        kernel/scale/scenario change correctly sees *different* cells.
        ``None`` for cache-less sessions (which cannot journal)."""
        if self.cache is None:
            return None
        memory = spec[3] if len(spec) > 3 else None
        machine = spec[4] if len(spec) > 4 else None
        policy, members, cfg, params, _ = self._cell(
            spec[0], spec[1], spec[2], memory, machine
        )
        return self._disk_key(
            policy.name, members, spec[2], params, cfg, machine
        )

    def _cell(
        self,
        policy: Policy | str,
        workload,
        n_threads: int,
        memory: str | None = None,
        machine: str | None = None,
    ) -> tuple[Policy, tuple[str, ...], MachineConfig, SimParams, tuple]:
        """Normalise one matrix-cell spec to
        (policy, members, machine config, sim params, memo key)."""
        if isinstance(policy, str):
            policy = get_policy(policy)
        members = self.workload_members(workload)
        cfg = self.resolve_cfg(memory, machine)
        params = self.params(machine)
        # keyed by the full (frozen, hashable) machine config plus the
        # effective timeslice, not by preset names: a custom config
        # sharing a preset's name must not collide with that preset in
        # the memo, and a machine scenario may rescale the timeslice
        key = (
            "cell", policy.name, members, n_threads, cfg,
            params.timeslice,
        )
        return policy, members, cfg, params, key

    # ------------------------------------------------------- execution
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
        t0 = time.perf_counter()
        stats, source = self.lookup_with_source(
            policy, workload, n_threads, memory, machine
        )
        loop_used = None
        spec_s = 0.0
        if stats is None:
            pol, members, cfg, params, _ = self._cell(
                policy, workload, n_threads, memory, machine
            )
            proc = Processor(
                pol,
                self._bundles(members, machine),
                n_threads,
                cfg,
                params,
                hooks=self.hooks,
                force_reference=self.reference,
                run_loop=self.run_loop,
            )
            stats = proc.run()
            self.simulations += 1
            self.adopt(pol, members, n_threads, stats, memory, machine)
            source = "simulated"
            loop_used = proc.loop_used
            spec_s = proc.spec_seconds
        self._record_cell(
            policy, workload, n_threads, memory, machine,
            source, loop_used, time.perf_counter() - t0, spec_s,
        )
        return stats

    def attribute(
        self,
        policy: Policy | str,
        workload,
        n_threads: int,
        memory: str | None = None,
        machine: str | None = None,
    ) -> SimStats:
        """Cycle-attribution run for one cell: the per-cycle reference
        loop with issue-slot accounting enabled
        (``docs/observability.md``).  All ordinary counters are
        bit-identical to :meth:`run`'s; the result additionally carries
        ``SimStats.attribution``.

        Attributed results live under their own memo key and never
        touch the disk cache — a populated ``attribution`` block in a
        shared cache entry would leak into non-attribution runs and
        break the run-loop tiers' bit-identity contract."""
        pol, members, cfg, params, base_key = self._cell(
            policy, workload, n_threads, memory, machine
        )
        key = ("attr", *base_key[1:])
        stats = self._memo.get(key)
        if stats is not None:
            self.memo_hits += 1
            return stats
        t0 = time.perf_counter()
        proc = Processor(
            pol,
            self._bundles(members, machine),
            n_threads,
            cfg,
            params,
            hooks=self.hooks,
            attribute=True,
        )
        stats = proc.run()
        self.simulations += 1
        self._memo[key] = stats
        self._record_cell(
            policy, workload, n_threads, memory, machine,
            "simulated", proc.loop_used, time.perf_counter() - t0,
            proc.spec_seconds,
        )
        return stats

    def _record_cell(
        self, policy, workload, n_threads, memory, machine,
        source, loop_used, wall_s, spec_s,
    ) -> None:
        self.telemetry.record(
            policy=policy if isinstance(policy, str) else policy.name,
            workload=(
                workload if isinstance(workload, str)
                else "+".join(workload)
            ),
            n_threads=n_threads,
            memory=memory,
            machine=machine,
            source=source,
            loop_used=loop_used,
            wall_s=round(wall_s, 6),
            spec_s=round(spec_s, 6),
        )

    def record_failure(self, spec: tuple, failure) -> None:
        """Land one exhausted cell in the telemetry ledger as a
        ``source="failed"`` record carrying the error category and
        attempt count (surfaced by the sweep digest and ``repro
        stats``)."""
        workload = spec[1]
        self.telemetry.record(
            policy=spec[0],
            workload=(
                workload if isinstance(workload, str)
                else "+".join(workload)
            ),
            n_threads=spec[2],
            memory=spec[3] if len(spec) > 3 else None,
            machine=spec[4] if len(spec) > 4 else None,
            source="failed",
            loop_used=None,
            wall_s=0.0,
            spec_s=0.0,
            error=failure.category,
            attempts=failure.attempts,
        )

    def prewarm_specialization(
        self,
        policy: Policy | str,
        workload,
        n_threads: int,
        memory: str | None = None,
        machine: str | None = None,
    ) -> tuple | None:
        """Generate + compile the specialised run loop for one cell in
        *this* process and return the picklable ``(key, source)``
        payload a pool worker installs with
        :func:`repro.pipeline.specialize.adopt_source` — workers then
        compile shipped source instead of re-deriving it (code objects
        do not pickle).  Returns ``None`` when the session's run-loop
        tier never specialises or generation failed (workers fall back
        exactly like the parent would)."""
        if self.run_loop in ("fast", "reference") or self.reference:
            return None
        from ..pipeline import specialize

        policy, members, cfg, params, _ = self._cell(
            policy, workload, n_threads, memory, machine
        )
        try:
            key, src = specialize.source_for(
                policy, cfg, params, n_threads, len(members)
            )
            if (
                specialize.get_specialized_loop(
                    policy, cfg, params, n_threads, len(members)
                )
                is None
            ):
                return None
        except Exception:
            if specialize.STRICT:
                raise
            return None
        return key, src

    def lookup(
        self,
        policy: Policy | str,
        workload,
        n_threads: int,
        memory: str | None = None,
        machine: str | None = None,
    ):
        """Memo/disk-cache probe that never simulates (``None`` on
        miss)."""
        return self.lookup_with_source(
            policy, workload, n_threads, memory, machine
        )[0]

    def lookup_with_source(
        self,
        policy: Policy | str,
        workload,
        n_threads: int,
        memory: str | None = None,
        machine: str | None = None,
    ) -> tuple[SimStats | None, str | None]:
        """Like :meth:`lookup`, but also reports where the result came
        from: ``"memo"``, ``"disk"``, or ``None`` on a miss — the
        provenance half of the telemetry ledger.

        A hooked session never reads the disk cache: a disk hit would
        return stats for a simulation whose events never fired in this
        process, desynchronising hook state from the results.  (Memo
        hits are fine — the in-process run that populated the memo
        already fired its events.)
        """
        policy, members, cfg, params, memo_key = self._cell(
            policy, workload, n_threads, memory, machine
        )
        stats = self._memo.get(memo_key)
        if stats is not None:
            self.memo_hits += 1
            return stats, "memo"
        if not self.hooks:
            disk_key = self._disk_key(
                policy.name, members, n_threads, params, cfg, machine
            )
            if disk_key is not None:
                stats = self.cache.get(disk_key)
                if stats is not None:
                    self._memo[memo_key] = stats
                    return stats, "disk"
        return None, None

    def adopt(
        self,
        policy: Policy | str,
        workload,
        n_threads: int,
        stats: SimStats,
        memory: str | None = None,
        machine: str | None = None,
    ) -> None:
        """Store a computed result (local or a pool worker's) in the
        memo and disk cache, as if this session had simulated it."""
        policy, members, cfg, params, memo_key = self._cell(
            policy, workload, n_threads, memory, machine
        )
        self._memo[memo_key] = stats
        disk_key = self._disk_key(
            policy.name, members, n_threads, params, cfg, machine
        )
        if disk_key is not None:
            self.cache.put(
                disk_key,
                stats,
                meta={
                    "policy": policy.name,
                    "members": list(members),
                    "n_threads": n_threads,
                    "memory": cfg.memory.name,
                    "machine": machine or "default",
                },
            )

    def run_single(self, bench: str, perfect_memory: bool = False) -> SimStats:
        """Single-thread baseline run of one benchmark (Fig. 13a's
        IPCr/IPCp columns): no multitasking, no renaming, run to the
        end of the trace once."""
        memo_key = ("single", bench, perfect_memory)
        stats = self._memo.get(memo_key)
        if stats is not None:
            self.memo_hits += 1
            return stats
        t0 = time.perf_counter()
        bundle = get_trace(
            bench, self.scale.kernel_scale, self.cfg, store=self.cache
        )
        # Matches the legacy ``run_single_thread`` helper exactly
        # (including its 50 M-cycle safety limit, not the matrix
        # scale's), so Fig. 13a numbers are unchanged by the engine.
        params = SimParams(
            target_instructions=bundle.length,
            timeslice=0,
            perfect_memory=perfect_memory,
            renaming=False,
            seed=self.scale.seed,
        )
        disk_key = None
        if self.cache is not None:
            disk_key = cache_key(
                self.cfg,
                params,
                _ST_POLICY,
                (bench,),
                (bundle.fingerprint(),),
                1,
            )
            if not self.hooks:  # see lookup(): no disk reads when hooked
                stats = self.cache.get(disk_key)
        source, loop_used, spec_s = "disk", None, 0.0
        if stats is None:
            from ..core.policies import SMT

            proc = Processor(
                SMT, [bundle], 1, self.cfg, params, hooks=self.hooks,
                force_reference=self.reference, run_loop=self.run_loop,
            )
            stats = proc.run()
            self.simulations += 1
            source, loop_used = "simulated", proc.loop_used
            spec_s = proc.spec_seconds
            if disk_key is not None:
                self.cache.put(
                    disk_key, stats, meta={"policy": _ST_POLICY, "bench": bench}
                )
        self._memo[memo_key] = stats
        self._record_cell(
            _ST_POLICY, bench, 1, None, None, source, loop_used,
            time.perf_counter() - t0, spec_s,
        )
        return stats

    def sweep(
        self,
        policies=None,
        workloads=None,
        n_threads=(2, 4),
        jobs: int | None = None,
        memory=None,
        machine=None,
        resume: bool = False,
        batch: bool | None = None,
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
        (``docs/robustness.md``).

        ``batch=True`` (default: the session's ``batch`` flag) groups
        eligible cells by scenario shape and runs each group in one
        lockstep numpy lane (:mod:`repro.pipeline.batch`); ineligible
        or fault-injected cells run on the scalar tiers, and every
        result is bit-identical to a scalar sweep."""
        from .runner import run_matrix

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
            specs = [
                (p, w, nt) if m is None else (p, w, nt, m)
                for m in mem_axis
                for nt in n_threads
                for p in policies
                for w in workloads
            ]
        else:
            machines = (
                (machine,) if isinstance(machine, str) else tuple(machine)
            )
            specs = [
                (p, w, nt, m, mach)
                for mach in machines
                for m in mem_axis
                for nt in n_threads
                for p in policies
                for w in workloads
            ]
        return run_matrix(
            self, specs, self.jobs if jobs is None else jobs,
            resume=resume,
            batch=self.batch if batch is None else batch,
        )

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
        counters are the trace store's (0 without a cache dir): bundles
        the functional VM recorded because the store had none, bundles
        loaded, and torn or mismatched bundles quarantined."""
        c = self.cache
        return {
            "memo_entries": len(self._memo),
            "memo_hits": self.memo_hits,
            "disk_hits": c.hits if c else 0,
            "disk_misses": c.misses if c else 0,
            "disk_stores": c.stores if c else 0,
            "disk_put_errors": c.put_errors if c else 0,
            "quarantined": c.quarantined if c else 0,
            "traces_recorded": c.trace_misses if c else 0,
            "traces_loaded": c.trace_hits if c else 0,
            "traces_quarantined": c.trace_quarantined if c else 0,
            "simulations": self.simulations,
            "failures": len(self.failures),
        }
