"""Cycle-accurate SMT clustered-VLIW timing simulator.

Replays functional traces under a multithreading/split-issue
:class:`~repro.core.policies.Policy`, modeling (paper §IV-§VI-A):

* per-cycle instruction merging via :class:`~repro.core.merging.MergeEngine`
  with round-robin thread priorities;
* cluster renaming per hardware thread slot;
* a shared memory hierarchy (:class:`~repro.memory.hierarchy.
  MemorySystem`) — paper default: single-level 64 KB 4-way I/D caches
  with a flat 20-cycle miss penalty; optionally a shared L2, data
  prefetcher and banked DRAM via ``MachineConfig.memory`` presets — or
  perfect memory (IPCp mode);
* taken-branch penalty (1 cycle; fall-through is the predicted path);
* per-thread stalls on cache misses ("execution is stalled until the
  architectural assumptions hold true") — blocking by default; with
  ``MemoryConfig.mshr`` set the L1s are non-blocking and the misses of
  one instruction overlap (stall for the slowest, not the sum);
* buffered-store memory-port contention at last-part commit (Fig. 11):
  a collision stalls the pipeline one cycle per colliding port;
* the multitasking environment of §VI-A: as many threads as hardware
  contexts run per timeslice; at expiry, running threads are replaced by
  threads picked at random from the workload; benchmarks that finish are
  respawned; the run ends when one benchmark has retired
  ``target_instructions`` dynamic VLIW instructions.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING

from ..arch.config import MachineConfig, PAPER_MACHINE
from ..core.merging import MergeEngine
from ..core.policies import Policy
from ..core.priority import make_priority
from ..core.renaming import renaming_vector
from ..core.splitstate import PendingInstruction
from ..memory.hierarchy import MemorySystem
from .params import SimParams as SimParams  # re-exported
from .specialize import get_specialized_loop
from .stats import ATTRIBUTION_CATEGORIES, BenchStats, SimStats

if TYPE_CHECKING:
    # a processor only replays bundles the caller built
    from .trace import TraceBundle

class _Bench:
    """Persistent state of one workload benchmark."""

    __slots__ = ("bundle", "pos", "stats")

    def __init__(self, bundle: TraceBundle):
        self.bundle = bundle
        self.pos = 0
        self.stats = BenchStats(bundle.name)


class _Thread:
    """One hardware thread slot."""

    __slots__ = (
        "slot",
        "rotation",
        "bench",
        "table",
        "addr_cols",
        "taken",
        "idx",
        "pend",
        "stall_until",
        "fetch_at",
        "fetch_is_miss",
        "last_iline",
    )

    def __init__(self, slot: int, rotation: int):
        self.slot = slot
        self.rotation = rotation
        self.bench: _Bench | None = None
        self.table = None
        self.addr_cols = None
        self.taken = None
        self.idx = None
        self.pend: PendingInstruction | None = None
        self.stall_until = 0
        self.fetch_at = 0
        #: the current ``fetch_at`` wait is an icache-miss fill (set by
        #: the reference fetch path; attribution classifies the wait as
        #: a memory stall rather than a frontend bubble)
        self.fetch_is_miss = False
        self.last_iline = -1

    def assign(self, bench: _Bench | None) -> None:
        self.bench = bench
        self.pend = None
        self.last_iline = -1
        if bench is not None:
            self.table, self.addr_cols = bench.bundle.rotated(self.rotation)
            self.taken = bench.bundle.taken
            self.idx = bench.bundle.idx
        else:
            self.table = None


class Processor:
    """SMT clustered-VLIW processor simulator."""

    def __init__(
        self,
        policy: Policy,
        workload: list[TraceBundle],
        n_threads: int,
        cfg: MachineConfig = PAPER_MACHINE,
        params: SimParams | None = None,
        hooks=None,
        force_reference: bool = False,
        attribute: bool = False,
    ):
        if n_threads < 1:
            raise ValueError("need at least one hardware thread")
        self.cfg = cfg
        self.policy = policy
        # hoisted out of the per-cycle loop
        self._split = policy.split
        self._comm_split = policy.comm_split
        #: debugging/benchmark escape hatch: always take the per-cycle
        #: reference loop even without hooks (results are bit-identical
        #: either way, so this never affects cache identity)
        self.force_reference = force_reference
        #: tier ``run()`` took: "specialized" | "reference"
        self.loop_used: str | None = None
        #: cycle attribution (``docs/observability.md``): account every
        #: issue-slot × cycle into the exhaustive category set of
        #: :data:`~repro.pipeline.stats.ATTRIBUTION_CATEGORIES`.
        #: Forces the reference loop (per-cycle classification needs the
        #: exact machine state) and flushes into ``stats.attribution``;
        #: all other counters stay bit-identical to the specialised
        #: tier.
        self.attribute = attribute
        self._attr = (
            dict.fromkeys(ATTRIBUTION_CATEGORIES, 0) if attribute else None
        )
        #: set by the issue pass when a thread offered work the merge
        #: engine refused (or only partially accepted) this cycle
        self._attr_refused = False
        #: inside the post-context-switch warm-up window (no operation
        #: issued since the last switch)
        self._post_switch = False
        #: wall-clock seconds spent resolving the specialised run loop
        #: (codegen + compile, or memo probe) for this processor —
        #: telemetry only, never part of the simulated result
        self.spec_seconds = 0.0
        self.params = params or SimParams()
        self.n_threads = n_threads
        # observers (duck-typed; see repro.engine.hooks.SimHook).  An
        # empty tuple keeps the per-cycle dispatch guard falsy and free.
        self._hooks = tuple(hooks) if hooks else ()
        self.engine = MergeEngine(cfg, policy.merge)
        self.priority = make_priority(self.params.priority, n_threads)
        self.rng = random.Random(self.params.seed)
        self.mem = MemorySystem(cfg, self.params.perfect_memory)
        #: MSHR-modeled non-blocking L1s: the misses of one instruction
        #: overlap (stall for the slowest, not the sum)
        self._nonblocking = (
            cfg.memory.mshr > 0 and not self.params.perfect_memory
        )
        self.icache = self.mem.l1i
        self.dcache = self.mem.l1d
        self.iline_shift = cfg.icache.line_bytes.bit_length() - 1
        rot = (
            renaming_vector(n_threads, cfg.n_clusters)
            if self.params.renaming
            else [0] * n_threads
        )
        self.threads = [_Thread(t, rot[t]) for t in range(n_threads)]
        self.benches = [_Bench(b) for b in workload]
        self.stats = SimStats(issue_width=cfg.issue_width)
        for b in self.benches:
            self.stats.per_bench[b.stats.name] = b.stats
        self._target = self.params.target_instructions
        self._target_hit = False
        #: diagnostic: cycles the specialised loop jumped over in bulk
        #: (not part of SimStats — identical results must hash identically
        #: whichever loop produced them)
        self.ff_skipped_cycles = 0
        self._schedule_initial()

    # ------------------------------------------------------------------
    def _schedule_initial(self) -> None:
        picks = self.rng.sample(
            range(len(self.benches)),
            min(self.n_threads, len(self.benches)),
        )
        for t, th in enumerate(self.threads):
            th.assign(self.benches[picks[t]] if t < len(picks) else None)

    def _context_switch(self, cycle: int = 0) -> None:
        """Replace running threads with randomly picked ones (§VI-A)."""
        picks = self.rng.sample(
            range(len(self.benches)),
            min(self.n_threads, len(self.benches)),
        )
        for t, th in enumerate(self.threads):
            th.assign(self.benches[picks[t]] if t < len(picks) else None)
        self.stats.context_switches += 1
        if self._hooks:
            for h in self._hooks:
                h.on_context_switch(cycle)

    # ------------------------------------------------------------------
    def _fetch(self, th: _Thread, cycle: int) -> bool:
        """Bring the next instruction into ``th.pend``.  Returns True if
        an instruction is ready to be offered to the merge engine."""
        bench = th.bench
        i = th.idx[bench.pos]
        line = th.table.pc[i] >> self.iline_shift
        if line != th.last_iline:
            th.last_iline = line
            self.stats.icache_accesses += 1
            lat = self.mem.iaccess(th.table.pc[i], cycle)
            if lat is not None:
                self.stats.icache_misses += 1
                th.fetch_at = cycle + lat
                th.fetch_is_miss = True
                if self._hooks:
                    for h in self._hooks:
                        h.on_stall(cycle, th.slot, "icache", lat)
                return False
        th.fetch_is_miss = False
        th.pend = PendingInstruction(
            th.table, i, self._split, self._comm_split
        )
        return True

    def _retire(self, th: _Thread, cycle: int) -> None:
        """Current instruction fully issued: advance the thread."""
        bench = th.bench
        pend = th.pend
        if pend.was_split:
            self.stats.split_instructions += 1
        taken = th.taken[bench.pos]
        th.fetch_at = cycle + 1 + (
            self.cfg.taken_branch_penalty if taken else 0
        )
        bench.pos += 1
        bench.stats.instructions += 1
        self.stats.instructions += 1
        if bench.stats.instructions >= self._target:
            self._target_hit = True
        if self._hooks:
            for h in self._hooks:
                h.on_retire(
                    cycle, th.slot, bench.stats.name, pend.was_split, taken
                )
        th.pend = None
        if bench.pos >= bench.bundle.length:
            # benchmark finished: respawn it (§VI-A)
            bench.pos = 0
            bench.stats.respawns += 1
            th.last_iline = -1
        if taken:
            th.last_iline = -1  # refetch target line

    def _dcache_probe(
        self, th: _Thread, mem_mask: int, cycle: int
    ) -> None:
        """Probe the memory system for the memory ops just issued.

        Blocking caches (``mshr == 0``, the paper model): misses are
        serialised — each later miss starts after the accumulated
        penalty (single memory port, stall-on-miss) and the thread
        stalls for the sum.

        Non-blocking caches (``mshr > 0``): every miss issues at
        ``cycle`` into its own MSHR and the fills overlap — the thread
        stalls only until the slowest one completes."""
        cols = th.addr_cols
        pos = th.bench.pos
        store_mask = th.table.store_cmask[th.pend.static_index]
        nonblocking = self._nonblocking
        penalty = 0
        m = mem_mask
        c = 0
        while m:
            if m & 1:
                addr = cols[c][pos]
                if addr >= 0:
                    self.stats.dcache_accesses += 1
                    # the DRAM bank model must see each miss's real
                    # start cycle: ``cycle`` when misses overlap,
                    # after the accumulated penalty when they serialise
                    lat = self.mem.daccess(
                        addr,
                        bool((store_mask >> c) & 1),
                        cycle if nonblocking else cycle + penalty,
                    )
                    if lat is not None:
                        self.stats.dcache_misses += 1
                        if nonblocking:
                            if lat > penalty:
                                penalty = lat
                        else:
                            penalty += lat
            m >>= 1
            c += 1
        if penalty:
            th.stall_until = max(th.stall_until, cycle + 1 + penalty)
            if self._hooks:
                for h in self._hooks:
                    h.on_stall(cycle, th.slot, "dcache", penalty)

    # ---------------------------------------------------- pipeline stages
    def _merge_stage(self, th: _Thread, pend) -> tuple[int, int]:
        """Offer ``pend`` to the merge engine under the policy's split
        level.  Returns ``(n_ops_issued, mem_cluster_mask)``."""
        engine = self.engine
        split = self._split
        if split == "none":
            if engine.try_whole(pend):
                return pend.ops_total, th.table.mem_cmask[pend.static_index]
            return 0, 0
        if split == "cluster":
            issued_mask, n = engine.try_bundles(pend)
            return n, th.table.mem_cmask[pend.static_index] & issued_mask
        # op-level split
        n, _cmask, mem = engine.try_ops(pend)
        return n, mem

    def _commit_thread(self, th: _Thread, pend, mem: int, cycle: int) -> int:
        """Post-issue bookkeeping for one thread: retire a finished
        instruction or buffer its non-final-part stores.  Returns the
        extra stall cycles caused by buffered-store memory-port
        conflicts at last-part commit (Fig. 11)."""
        if pend.done:
            stall = 0
            if pend.buffered_store_mask:
                # last-part commit: buffered stores need the memory
                # ports *now* (Fig. 11)
                engine = self.engine
                conflicts = pend.buffered_store_mask & engine.mem_used_mask
                engine.mem_used_mask |= pend.buffered_store_mask
                stall = conflicts.bit_count()
            self._retire(th, cycle)
            return stall
        sm = th.table.store_cmask[pend.static_index] & mem
        if sm:
            pend.buffer_stores(sm)
        return 0

    def _issue_cycle(self, cycle: int, switching: bool) -> tuple[int, int, int]:
        """One full fetch+merge+commit pass over all hardware threads in
        priority order.  Returns ``(ops_issued, threads_contributing,
        stall_extra)`` for the cycle-accounting stage."""
        threads = self.threads
        ops_this_cycle = 0
        threads_contributing = 0
        stall_extra = 0

        self.engine.begin_cycle()
        for t in self.priority.order(cycle):
            th = threads[t]
            if th.bench is None or cycle < th.stall_until:
                continue
            if th.pend is None:
                if cycle < th.fetch_at or switching:
                    continue
                if not self._fetch(th, cycle):
                    continue
            pend = th.pend
            if pend.ops_total == 0:
                # empty instruction (compiler latency-padding NOP
                # cycle): consumes this thread's issue cycle
                self._retire(th, cycle)
                continue
            n, mem = self._merge_stage(th, pend)
            if n:
                ops_this_cycle += n
                threads_contributing += 1
                th.bench.stats.operations += n
                if mem:
                    self._dcache_probe(th, mem, cycle)
                stall_extra += self._commit_thread(th, pend, mem, cycle)
            if self._attr is not None and (n == 0 or th.pend is not None):
                # the merge engine refused this thread's offer outright
                # (n == 0) or accepted only part of it (the pending
                # instruction survives the commit stage): the cycle's
                # leftover slots are merge/coherence-limited
                self._attr_refused = True
        return ops_this_cycle, threads_contributing, stall_extra

    def _account_cycle(
        self,
        cycle: int,
        ops_this_cycle: int,
        threads_contributing: int,
        stall_extra: int,
    ) -> int:
        """Fold one issue cycle into the waste/IPC counters and advance
        the clock (buffered-store conflicts stall the whole pipeline).
        Returns the next cycle number."""
        stats = self.stats
        stats.operations += ops_this_cycle
        if ops_this_cycle == 0:
            stats.vertical_waste += 1
        else:
            stats.packet_threads[threads_contributing] = (
                stats.packet_threads.get(threads_contributing, 0) + 1
            )
        if self._hooks:
            for h in self._hooks:
                h.on_cycle(cycle, ops_this_cycle, threads_contributing)
        cycle += 1
        if stall_extra:
            cycle += stall_extra
            stats.stall_cycles += stall_extra
            stats.vertical_waste += stall_extra
        return cycle

    # ------------------------------------------------------------------
    def run(self) -> SimStats:
        """Simulate until a benchmark hits the instruction target (or
        ``params.max_cycles`` run out).  Returns the statistics object.

        Two-tier dispatch, both tiers bit-identical:

        1. **specialized** — a scenario-monomorphic loop generated by
           :mod:`repro.pipeline.specialize` (constants inlined, dead
           branches deleted, idle spans skipped by
           :meth:`_fast_forward`) and statically verified before it
           runs; the default.
        2. **reference** — :meth:`_run_reference`, the per-cycle
           oracle; forced by hooks (``on_cycle`` must fire every
           cycle), by cycle attribution (``attribute=True``, which
           classifies every cycle) and by ``force_reference``.

        The tier taken is recorded in :attr:`loop_used`.
        """
        if self._hooks or self.force_reference or self.attribute:
            self.loop_used = "reference"
            return self._run_reference()
        t0 = time.perf_counter()
        loop = get_specialized_loop(
            self.policy,
            self.cfg,
            self.params,
            self.n_threads,
            len(self.benches),
        )
        self.spec_seconds = time.perf_counter() - t0
        self.loop_used = "specialized"
        return loop(self)

    def _run_reference(self) -> SimStats:
        """The exact per-cycle loop: one :meth:`_issue_cycle` +
        :meth:`_account_cycle` pass per simulated cycle, hook events
        included.  This is the semantic definition of the simulator and
        the test oracle for the specialised loop."""
        params = self.params
        stats = self.stats
        threads = self.threads
        attr = self._attr
        width = self.cfg.issue_width
        timeslice = params.timeslice
        next_switch = timeslice
        switching = False
        multi = len(self.benches) > 1 and timeslice > 0
        if self._hooks:
            for h in self._hooks:
                h.on_run_start(self)

        cycle = 0
        end_cycle = params.max_cycles

        while cycle < end_cycle:
            if attr is not None:
                # classification inputs are the state the issue pass is
                # about to see: the drain flag, the warm-up flag, and
                # whether any thread sits in a memory stall *entering*
                # this cycle (a stall picked up during the cycle blocks
                # the next cycle, not this one)
                self._attr_refused = False
                draining = switching
                mem_stalled = False
                for th in threads:
                    if th.bench is not None and (
                        cycle < th.stall_until
                        or (
                            th.pend is None
                            and th.fetch_is_miss
                            and cycle < th.fetch_at
                        )
                    ):
                        mem_stalled = True
                        break
            ops, contributing, stall_extra = self._issue_cycle(
                cycle, switching
            )
            cycle = self._account_cycle(cycle, ops, contributing, stall_extra)

            if attr is not None:
                # exhaustive accounting: each simulated cycle yields
                # exactly ``width`` slots — ``ops`` useful ones plus one
                # waste category for the remainder (waterfall order:
                # drain > post-switch warm-up > merge-refusal > memory
                # stall > empty); whole store-port conflict stall
                # cycles are coherence limits
                attr["useful"] += ops
                unused = width - ops
                if unused:
                    if draining:
                        attr["switch_drain"] += unused
                    elif self._post_switch:
                        attr["post_switch"] += unused
                    elif self._attr_refused:
                        attr["merge_limited"] += unused
                    elif mem_stalled:
                        attr["mem_stall"] += unused
                    else:
                        attr["empty"] += unused
                if stall_extra:
                    attr["merge_limited"] += stall_extra * width
                if ops:
                    self._post_switch = False

            # ---- multitasking scheduler ----
            if multi and cycle >= next_switch:
                if not switching:
                    switching = True  # drain split instructions first
                if all(th.pend is None for th in threads):
                    self._context_switch(cycle)
                    next_switch = cycle + timeslice
                    switching = False
                    self._post_switch = True

            if self._target_hit:
                break

        stats.cycles = cycle
        stats.memory = self.mem.stats_dict()
        if attr is not None:
            stats.attribution = {
                "slots": width,
                "cycles": stats.cycles,
                "loop_used": "reference",
                "categories": dict(attr),
            }
        if self._hooks:
            for h in self._hooks:
                h.on_run_end(stats)
        return stats

    def _fast_forward(
        self,
        cycle: int,
        end_cycle: int,
        switching: bool,
        next_switch: int,
        multi: bool,
        timeslice: int,
    ) -> tuple[int, bool, int]:
        """Jump the clock over cycles in which no thread can act.

        A thread can act at cycle ``c`` iff it has a benchmark,
        ``c >= stall_until`` and (an instruction is pending, or it may
        fetch: ``c >= fetch_at`` and the scheduler is not draining).
        While no thread can act, a reference iteration is a pure no-op
        apart from ``vertical_waste += 1; cycle += 1`` and the
        scheduler check — so the whole span folds into one bulk update.
        Skips are clamped to the next timeslice expiry so the drain /
        context-switch transition fires at exactly the reference cycle
        (the RNG advances only there).  Returns the updated
        ``(cycle, switching, next_switch)``.
        """
        threads = self.threads
        stats = self.stats
        while cycle < end_cycle:
            wake = end_cycle
            for th in threads:
                if th.bench is None:
                    continue
                w = th.stall_until
                if th.pend is None:
                    if switching:
                        # cannot fetch until the switch completes; the
                        # switch itself is driven by the draining
                        # threads, whose wakes are accounted below
                        continue
                    fa = th.fetch_at
                    if fa > w:
                        w = fa
                if w <= cycle:
                    return cycle, switching, next_switch
                if w < wake:
                    wake = w
            if multi and not switching and next_switch < wake:
                wake = next_switch
            stats.vertical_waste += wake - cycle
            self.ff_skipped_cycles += wake - cycle
            cycle = wake
            if multi and cycle >= next_switch:
                switching = True
                if all(th.pend is None for th in threads):
                    self._context_switch(cycle)
                    next_switch = cycle + timeslice
                    switching = False
                # new benches may wake at different times (or the drain
                # continues): recompute on the next pass
        return cycle, switching, next_switch


def run_single_thread(
    bundle: TraceBundle,
    cfg: MachineConfig = PAPER_MACHINE,
    perfect_memory: bool = False,
    target_instructions: int | None = None,
) -> SimStats:
    """Run one benchmark alone (the paper's Fig. 13a IPCr/IPCp columns)."""
    from ..core.policies import SMT

    params = SimParams(
        target_instructions=(
            target_instructions
            if target_instructions is not None
            else bundle.length
        ),
        timeslice=0,  # no multitasking
        perfect_memory=perfect_memory,
        renaming=False,
    )
    proc = Processor(SMT, [bundle], 1, cfg, params)
    return proc.run()
