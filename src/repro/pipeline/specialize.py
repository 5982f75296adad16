"""Shape-specialised run-loop code generation.

The simulator has two run-loop tiers: the loop generated here, which
runs every cell without hooks or attribution, and the per-cycle
reference oracle (:meth:`Processor._run_reference`).  The oracle
re-evaluates per cycle facts that are fixed once a scenario is
resolved: the split level, the merge level, the memory class (flat vs
hierarchical, blocking vs MSHR, perfect), whether multitasking is on
and the priority rotation.  This module generates the *source* of a
monomorphic run loop for one :class:`LoopShape`, the structural
projection of a resolved ``(policy, machine, memory, n_threads)``
cell:

* structurally-dead branches are deleted at generation time — a
  single-benchmark run carries no scheduler block, a flat-memory run
  probes the L1 sets directly instead of the hierarchy walker, a
  perfect-memory run counts its probes and never stalls, an AS policy
  carries no ICC-atomicity branch, a no-split policy carries no
  buffered-store/commit machinery at all;
* the per-thread priority rotation is precomputed into tuples of
  *thread objects*, so the inner loop never indexes ``threads[t]``;
* the :class:`~repro.core.splitstate.PendingInstruction` state machine
  is flattened into a plain list (``[i, ops_remaining, was_split,
  buffered_store_mask, extra]`` — ``extra`` is the pending cluster
  mask under cluster split and the pending ``StaticTable.ops_use``
  pairs under op split; a bare static index suffices for no-split
  policies), eliminating one object construction per fetched
  instruction.

The scenario's *numbers* (instruction target, cycle limit, timeslice,
taken-branch and L1 miss penalties, L1 set masks and line shifts,
packed issue capacity and SWAR guard mask) are not in the source: the
loop's setup block binds each of them once, from the same objects the
reference loop reads (``proc._target``, ``proc.params``,
``proc.engine``, ``proc.cfg``, the L1 caches and ``proc.mem``).  The
generator never receives them, so the two tiers agree on them by
construction, and cells that differ only in numbers share one loop.

Four fast paths exist only here, not in the oracle:

* **bulk idle skip** — a cycle that issues nothing calls
  :meth:`Processor._fast_forward`, which jumps the clock over the span
  in which no thread can act (clamped to timeslice expiries) in
  O(n_threads) instead of one iteration per cycle;
* **whole issue at fetch** — a split policy first tests whether the
  whole fetched instruction fits the packet (``cmask & e_used`` under
  cluster merge, one SWAR test against ``bundle_sum``/``packed``
  under op merge) and, if so, accounts, probes and retires it in place
  without creating a pending list;
* **unrolled per-cluster scans** — bundle merge and op counting test
  literal cluster bits (``if pm & 4:`` … ``b_packed[2]``) instead of a
  ``while m:`` bit scan;
* **inlined L1 hit path** — for flat, non-perfect memory the I- and
  D-cache probes pop and reinsert the line in its set directly and
  count hits in locals (flushed into ``l1i.hits``/``l1d.hits`` before
  ``stats_dict()``); ``Cache.access`` runs only on a miss.

It also keeps less per-cycle bookkeeping than the oracle:

* **run totals at flush** — the loop keeps no run-level operation or
  instruction count: a processor runs once, from cycle 0, so the flush
  sets ``stats.operations`` and ``stats.instructions`` to the sums of
  the benchmarks' ``BenchStats``, which every issue and retire already
  updates (``tests/test_processor.py`` pins these identities on the
  oracle for every quick cell);
* **no per-cycle op count** — every issuing path counts its thread in
  ``threads_contributing`` exactly when it issues at least one op, so
  a cycle issued nothing iff that count is 0;
* **one unpack per fetch** — the fetch path loads ``pc``, the op
  count and the cluster, memory and store masks with one subscript of
  ``StaticTable.fetch`` and one tuple unpack; the retry and pending
  paths load the fields they need one by one.

They, like the rest of the loop, are gated by the bit-identity tests,
not by a line-for-line correspondence with the oracle:
``tests/test_specialize.py`` checks every generated loop against
``_run_reference`` over the full policy × machine × memory × thread
matrix, L1 set contents included, and ``tests/test_fast_forward.py``
pins the idle-skip boundaries.

The generated function is statically verified
(:mod:`repro.analysis.loopcheck`: closed free-name set, provable loop
exits, every unrolled per-cluster arm naming its own cluster), then
``compile()``d/``exec``d once and memoised by :func:`loop_key`, the
cell's shape.  A generation that fails, or that ``loopcheck`` rejects
(:class:`~repro.analysis.loopcheck.LoopVerificationError`, raised
before any ``exec()``), raises out of :meth:`Processor.run`: every
structurally valid shape generates and verifies clean, so a failure
here is a generator bug.  A serial sweep records it as a failed cell;
a pooled sweep raises before its pool forks.

Process-pool workers get their loops by fork: before the pool forks,
the parent generates and verifies every pending cell's loop, once per
distinct shape, with :func:`verified_source` (compiling nothing: the
parent runs no loop).  Each worker inherits the verified text, so it
only compiles, and never runs ``loopcheck`` (see
``repro.engine.runner``).
"""

from __future__ import annotations

import textwrap
from typing import NamedTuple

from ..arch.config import MachineConfig
from ..arch.scenarios import machine_fingerprint
from ..core.policies import Policy
from ..core.priority import make_priority

#: name of the generated function inside its module namespace
LOOP_NAME = "__specialized_loop"

#: loop source that passed ``loopcheck``, by loop key
_sources: dict[tuple, str] = {}
_loops: dict[tuple, object] = {}
_stats = {"hits": 0, "misses": 0}


def cache_info() -> dict:
    """Memo counters (for tests and diagnostics)."""
    return dict(_stats, compiled=len(_loops), sources=len(_sources))


def clear_cache() -> None:
    _sources.clear()
    _loops.clear()
    _stats.update(hits=0, misses=0)


class LoopShape(NamedTuple):
    """What a generated loop's source depends on: the policy's
    structure, the cluster count the per-cluster scans unroll over,
    the memory class (``flat`` inline-L1, ``perfect``, ``hier``
    blocking or ``mshr`` non-blocking), the thread count and priority
    the rotation tuples are built from, and whether a scheduler block
    runs.  Every number of the scenario is read from ``proc`` when the
    loop starts, so cells that differ only in numbers share a loop."""

    merge: str
    split: str
    comm_split: bool
    n_clusters: int
    memory: str
    n_threads: int
    multitasking: bool
    priority: str


def loop_key(
    policy: Policy,
    cfg: MachineConfig,
    params,
    n_threads: int,
    n_benches: int,
) -> LoopShape:
    """Memo key: the cell's :class:`LoopShape`, everything the
    generator receives."""
    if params.perfect_memory:
        memory = "perfect"
    elif cfg.memory.is_flat:
        memory = "flat"
    else:
        memory = "mshr" if cfg.memory.mshr > 0 else "hier"
    return LoopShape(
        policy.merge,
        policy.split,
        policy.comm_split,
        cfg.n_clusters,
        memory,
        n_threads,
        n_benches > 1 and params.timeslice > 0,
        params.priority,
    )


def _cell_name(policy: Policy, cfg: MachineConfig, n_threads: int) -> str:
    return (
        f"{policy.merge}-merge/{policy.split}-split"
        f" nt={n_threads} machine={machine_fingerprint(cfg)[:12]}"
    )


def verified_source(
    policy: Policy,
    cfg: MachineConfig,
    params,
    n_threads: int,
    n_benches: int,
) -> str:
    """The source of one cell's loop once it passed
    :func:`repro.analysis.loopcheck.check_source` (a finding raises
    :class:`~repro.analysis.loopcheck.LoopVerificationError`).
    Generates and verifies each shape once and compiles nothing: a pool
    parent calls it for every pending cell before it forks the workers
    that run the loop."""
    key = loop_key(policy, cfg, params, n_threads, n_benches)
    src = _sources.get(key)
    if src is None:
        src = generate_loop_source(key)
        # imported late: analysis.loopcheck imports this module
        from ..analysis import loopcheck

        findings = loopcheck.check_source(
            key, src,
            label=f"<specialized {_cell_name(policy, cfg, n_threads)}>",
        )
        if findings:
            raise loopcheck.LoopVerificationError(findings)
        _sources[key] = src
    return src


def get_specialized_loop(
    policy: Policy,
    cfg: MachineConfig,
    params,
    n_threads: int,
    n_benches: int,
):
    """Compiled monomorphic loop for one cell, memoised by
    :func:`loop_key`.

    Every fresh generation is verified by
    :func:`repro.analysis.loopcheck.check_source` *before* ``exec()``:
    a loop with an unexpected free name, an unprovable exit edge or a
    per-cluster arm that names the wrong cluster raises
    :class:`~repro.analysis.loopcheck.LoopVerificationError` and is
    never executed.
    """
    key = loop_key(policy, cfg, params, n_threads, n_benches)
    fn = _loops.get(key)
    if fn is not None:
        _stats["hits"] += 1
        return fn
    _stats["misses"] += 1
    src = verified_source(policy, cfg, params, n_threads, n_benches)
    label = (
        f"<specialized {policy.merge}-merge/{policy.split}-split"
        f" nt={n_threads}>"
    )
    ns: dict = {}
    exec(compile(src, label, "exec"), ns)
    fn = _loops[key] = ns[LOOP_NAME]
    return fn


# ---------------------------------------------------------------- codegen
def _block(text: str, indent: int) -> str:
    """Dedent a template fragment and re-indent it to ``indent``."""
    body = textwrap.dedent(text).strip("\n")
    pad = " " * indent
    return "\n".join(
        pad + ln if ln.strip() else "" for ln in body.splitlines()
    )


def _dd(text: str) -> str:
    """Dedent a template fragment to column zero."""
    return textwrap.dedent(text).strip("\n")


def generate_loop_source(shape: LoopShape) -> str:
    """Emit the source of the monomorphic run loop for one shape."""
    split = shape.split
    if split not in ("none", "cluster", "op"):
        raise ValueError(f"unknown split level {split!r}")
    if shape.merge not in ("op", "cluster"):
        raise ValueError(f"unknown merge level {shape.merge!r}")
    if shape.memory not in ("flat", "perfect", "hier", "mshr"):
        raise ValueError(f"unknown memory class {shape.memory!r}")
    op_merge = shape.merge == "op"
    comm_split = shape.comm_split
    perfect = shape.memory == "perfect"
    inline_l1 = shape.memory == "flat"
    cluster_bits = [(c, 1 << c) for c in range(shape.n_clusters)]
    nonblocking = shape.memory == "mshr"
    multi = shape.multitasking
    orders = make_priority(shape.priority, shape.n_threads).orders

    # Retire bookkeeping, assuming ``bstats`` is already in a local
    # (the issue path loads it once for the operations counter and the
    # retire shares it).  Callers that retire without issuing prepend
    # the load; callers with live pending state prepend the clear.  A
    # taken branch refetches its target line, and so does a respawn.
    retire_tail = _dd("""
        pos = bench.pos
        if th.taken[pos]:
            th.fetch_at = cycle + taken_delay
            th.last_iline = -1
        else:
            th.fetch_at = cycle + 1
        bench.pos = pos = pos + 1
        bstats.instructions += 1
        if bstats.instructions >= target:
            target_hit = True
        if pos >= bench.bundle.length:
            bench.pos = 0
            bstats.respawns += 1
            th.last_iline = -1
    """)
    retire_full = "bstats = bench.stats\n" + retire_tail
    commit_retire = "th.pend = None\n" + retire_tail

    if inline_l1:
        # the L1 hit path is inlined (about 97% of probes hit): pop the
        # line from its set and reinsert it as MRU, exactly as
        # ``Cache.access`` does; only a miss calls ``access``, which
        # then finds the line absent and fills/evicts as usual
        ifetch = """
            ways = l1i_sets[line & iset_mask]
            d = ways.pop(line, None)
            if d is None:
                l1i_access(pc)
                icache_misses += 1
                th.fetch_at = cycle + imiss
                continue
            ways[line] = d
            l1i_hits += 1
        """
    elif perfect:
        # a perfect cache only counts the probe: it never misses
        ifetch = "l1i_access(pc)"
    else:
        ifetch = """
            lat = iaccess(pc, cycle)
            if lat is not None:
                icache_misses += 1
                th.fetch_at = cycle + lat
                continue
        """

    # The data probe is unrolled over clusters: each cluster gets a
    # literal mask test, so the generic bit-scan loop (shift + counter
    # per cluster) disappears.  ``Cache.access`` only ever uses
    # ``is_write`` for truthiness, so the flat and perfect paths pass
    # the raw mask bit and skip the ``bool()`` call.
    probe_blocks = []
    for c, bit in cluster_bits:
        if inline_l1:
            miss = f"""
            dline = addr >> dline_shift
            ways = l1d_sets[dline & dset_mask]
            d = ways.pop(dline, None)
            if d is None:
                l1d_access(addr, store_mask & {bit})
                dcache_misses += 1
                penalty += dmiss
            else:
                ways[dline] = d or store_mask & {bit}
                l1d_hits += 1
            """
        elif perfect:
            miss = f"l1d_access(addr, store_mask & {bit})"
        elif nonblocking:
            # MSHRs: misses all issue at ``cycle`` and overlap; the
            # thread stalls for the slowest
            miss = f"""
            lat = daccess(addr, bool(store_mask & {bit}), cycle)
            if lat is not None:
                dcache_misses += 1
                if lat > penalty:
                    penalty = lat
            """
        else:
            # blocking caches: misses serialise — each later miss
            # starts after the accumulated penalty
            miss = f"""
            lat = daccess(addr, bool(store_mask & {bit}), cycle + penalty)
            if lat is not None:
                dcache_misses += 1
                penalty += lat
            """
        probe_blocks.append(
            _dd(f"""
            if mem & {bit}:
                addr = cols[{c}][pos]
                if addr >= 0:
                    dcache_accesses += 1
{_block(miss, 20)}
            """)
        )
    # ``dprobe_fetched`` follows the fetch path, whose row unpack
    # already bound ``store_mask``; ``dprobe`` loads it
    head = ["cols = th.addr_cols", "pos = bench.pos"]
    if perfect:
        # a perfect cache never misses: its probes charge no stall
        dprobe_fetched = "\n".join(head + probe_blocks)
    else:
        dprobe_fetched = "\n".join([
            *head,
            "penalty = 0",
            *probe_blocks,
            _dd("""
            if penalty:
                su = cycle + 1 + penalty
                if su > th.stall_until:
                    th.stall_until = su
            """),
        ])
    dprobe = "store_mask = table.store_cmask[i]\n" + dprobe_fetched
    fetch_row = "pc, n, cm, mem, store_mask = table.fetch[i]"

    fetch_guard = (
        "if switching or cycle < th.fetch_at:"
        if multi
        else "if cycle < th.fetch_at:"
    )

    # ---- per-thread issue pass (three structural variants) ------------
    if split == "none":

        def merge_whole(fail: str, fetched: bool) -> str:
            """Whole-instruction merge; ``fail`` runs on a conflict.
            ``fetched``: the fetch row's ``cm`` is bound."""
            if op_merge:
                return _dd(f"""
                left = (e_remaining | guards) - table.packed[i]
                if left & guards != guards:
{_block(fail, 20)}
                e_remaining = left ^ guards
                """)
            return ("" if fetched else "cm = table.cmask[i]\n") + _dd(f"""
            if cm & e_used:
{_block(fail, 16)}
            e_used |= cm
            """)

        def issue_retire(fetched: bool) -> str:
            """Issue and retire the whole instruction; off the fetch
            path it was parked in ``th.pend``."""
            load = "" if fetched else (
                "mem = table.mem_cmask[i]\nth.pend = None\n"
            )
            return _dd(f"""
            threads_contributing += 1
            bstats = bench.stats
            bstats.operations += n
            """) + "\n" + load + _dd(f"""
            if mem:
{_block(dprobe_fetched if fetched else dprobe, 16)}
            """) + "\n" + retire_tail

        park_pend = "th.pend = i\ncontinue"

        # No-split: an instruction merges whole or not at all, so it
        # never buffers stores, never splits, and retires the cycle it
        # issues; a bare static index is the whole pending state.  The
        # fetch and retry paths are separate copies so the common case
        # (fetch, issue, retire in one cycle) never touches ``th.pend``
        # at all — the store only happens on a merge conflict, and the
        # retry path knows ``nops >= 1`` (empty instructions retire at
        # fetch and conflicts only arise inside the ``if n:`` arm).
        thread_body = f"""
        bench = th.bench
        if bench is None or cycle < th.stall_until:
            continue
        table = th.table
        i = th.pend
        if i is None:
            {fetch_guard}
                continue
            i = th.idx[bench.pos]
            {fetch_row}
            line = pc >> iline_shift
            if line != th.last_iline:
                th.last_iline = line
                icache_accesses += 1
{_block(ifetch, 16)}
            if n:
{_block(merge_whole(park_pend, True), 16)}
{_block(issue_retire(True), 16)}
            else:
{_block(retire_full, 16)}
        else:
            n = table.nops[i]
{_block(merge_whole("continue", False), 12)}
{_block(issue_retire(False), 12)}
        """
    else:
        # split policies share one pending-list layout:
        #   [static_index, ops_remaining, was_split, buffered_stores,
        #    extra]   (extra: pending cluster mask | pending-ops tuple
        #    or list of (usage, mem bit) pairs)
        whole_usage = "table.packed[i]"

        def swar_take(usage: str, then: str) -> str:
            """Charge ``usage`` against ``e_remaining`` if it fits."""
            return _dd(f"""
            left = (e_remaining | guards) - {usage}
            if left & guards == guards:
                e_remaining = left ^ guards
{_block(then, 16)}
            """)

        if split == "cluster":
            make_pend = "pend = th.pend = [i, n, False, 0, cm]"
            if op_merge:
                # every bundle fits iff their sum does (the SWAR test
                # is field-wise and the lanes cannot overflow)
                whole_usage = (
                    "table.bundle_sum[i]"
                    if comm_split
                    else "(table.packed[i] if table.icc[i]"
                    " else table.bundle_sum[i])"
                )
                arms = []
                for c, bit in cluster_bits:
                    take = swar_take(
                        f"b_packed[{c}]", f"avail |= {bit}\nn += b_nops[{c}]"
                    )
                    arms.append(f"if pm & {bit}:\n{_block(take, 4)}")
                scan = "\n".join(arms)
                merge_part = f"""
                pm = pend[4]
                b_packed = table.bundle_packed[i]
                b_nops = table.bundle_nops[i]
                avail = 0
                n = 0
{_block(scan, 16)}
                if not avail:
                    continue
                mem = table.mem_cmask[i] & avail
                e_mem_used |= mem
                rem = pend[1] - n
                pend[1] = rem
                pm &= ~avail
                pend[4] = pm
                if pm:
                    pend[2] = True
                """
            else:
                # a part that takes every pending cluster retires the
                # instruction: its op count is the remaining count
                scan = "\n".join(
                    f"if avail & {bit}:\n    n += b_nops[{c}]"
                    for c, bit in cluster_bits
                )
                merge_part = f"""
                pm = pend[4]
                avail = pm & ~e_used
                if not avail:
                    continue
                e_used |= avail
                mem = table.mem_cmask[i] & avail
                e_mem_used |= mem
                if avail == pm:
                    n = pend[1]
                    rem = 0
                else:
                    b_nops = table.bundle_nops[i]
                    n = 0
{_block(scan, 20)}
                    rem = pend[1] - n
                    pend[1] = rem
                    pend[4] = pm & ~avail
                    pend[2] = True
                """
        else:  # op-level split (always op-level merge)
            make_pend = "pend = th.pend = [i, n, False, 0, table.ops_use[i]]"
            merge_part = """
            rem0 = pend[1]
            still = []
            n = 0
            mem = 0
            for use in pend[4]:
                left = (e_remaining | guards) - use[0]
                if left & guards == guards:
                    e_remaining = left ^ guards
                    mem |= use[1]
                    n += 1
                else:
                    still.append(use)
            pend[4] = still
            if not n:
                continue
            e_mem_used |= mem
            rem = rem0 - n
            pend[1] = rem
            if rem0 > 1:
                pend[2] = True
            """

        if comm_split:
            merge = merge_part
        else:
            # NS: instructions with inter-cluster communication issue
            # atomically.  An atomic issue always empties the pending
            # state, so the instruction retires this cycle and the
            # per-part bookkeeping writes are dead.
            if op_merge:
                atomic_check = """
                left = (e_remaining | guards) - table.packed[i]
                if left & guards != guards:
                    continue
                e_remaining = left ^ guards
                """
            else:
                atomic_check = """
                if pend[4] & e_used:
                    continue
                e_used |= pend[4]
                """
            merge = f"""
            if table.icc[i]:
{_block(atomic_check, 16)}
                n = pend[1]
                mem = table.mem_cmask[i]
                e_mem_used |= mem
                rem = 0
            else:
{_block(merge_part, 16)}
            """

        # Whole issue at fetch: when the entire instruction fits this
        # cycle it is accounted, probed and retired in place — no
        # pending list, nothing buffered, no commit stall.  This is
        # exactly what the pending path below would do for it.
        # Operation-level split marks any multi-op instruction split
        # once its first op issues, even when all of them issue
        # together (pinned by tests/test_policies_renaming.py::
        # test_op_split_whole_issue_in_one_cycle_is_not_split), so the
        # whole path counts it too.
        whole_tail = _dd(f"""
        threads_contributing += 1
        bstats = bench.stats
        bstats.operations += n
        if mem:
            e_mem_used |= mem
{_block(dprobe_fetched, 12)}
        """) + "\n" + retire_tail + "\ncontinue"
        if split == "op":
            counted = "n > 1" if comm_split else "n > 1 and not table.icc[i]"
            whole_tail = (
                f"if {counted}:\n    split_instructions += 1\n" + whole_tail
            )
        if op_merge:
            whole_issue = swar_take(whole_usage, whole_tail)
        else:
            whole_issue = _dd(f"""
            if not cm & e_used:
                e_used |= cm
{_block(whole_tail, 16)}
            """)

        thread_body = f"""
        bench = th.bench
        if bench is None or cycle < th.stall_until:
            continue
        table = th.table
        pend = th.pend
        if pend is None:
            {fetch_guard}
                continue
            i = th.idx[bench.pos]
            {fetch_row}
            line = pc >> iline_shift
            if line != th.last_iline:
                th.last_iline = line
                icache_accesses += 1
{_block(ifetch, 16)}
            if not n:
{_block(retire_full, 16)}
                continue
{_block(whole_issue, 12)}
            {make_pend}
        else:
            i = pend[0]
{_block(merge, 8)}
        threads_contributing += 1
        bstats = bench.stats
        bstats.operations += n
        if mem:
{_block(dprobe, 12)}
        if rem:
            if mem:
                sm = store_mask & mem
                if sm:
                    pend[3] |= sm
        else:
            bsm = pend[3]
            if bsm:
                stall_extra += (bsm & e_mem_used).bit_count()
                e_mem_used |= bsm
            if pend[2]:
                split_instructions += 1
{_block(commit_retire, 12)}
        """

    # ---- per-cycle framing --------------------------------------------
    resets = []
    if op_merge:
        resets.append("e_remaining = capacity")
    if split == "none":
        if not op_merge:
            resets.append("e_used = 0")
    else:
        if not op_merge:
            resets.append("e_used = 0")
        resets.append("e_mem_used = 0")
        resets.append("stall_extra = 0")
    cycle_resets = "\n".join(" " * 8 + r for r in resets)

    setup = [
        "stats = proc.stats",
        "threads = proc.threads",
        "mem_sys = proc.mem",
        "packet_threads = stats.packet_threads",
        "pt_get = packet_threads.get",
        "fast_forward = proc._fast_forward",
        # the scenario's numbers, bound once from the objects the
        # reference loop reads them from
        "target = proc._target",
        "taken_delay = 1 + proc.cfg.taken_branch_penalty",
        "iline_shift = proc.iline_shift",
    ]
    if op_merge:
        setup += [
            "capacity = proc.engine.capacity",
            "guards = proc.engine.guards",
        ]
    if multi:
        setup.append("timeslice = proc.params.timeslice")
    if inline_l1:
        setup += [
            "l1i = mem_sys.l1i",
            "l1d = mem_sys.l1d",
            "l1i_sets = l1i.sets",
            "l1d_sets = l1d.sets",
            "l1i_access = l1i.access",
            "l1d_access = l1d.access",
            "iset_mask = l1i.set_mask",
            "dline_shift = l1d.line_shift",
            "dset_mask = l1d.set_mask",
            "imiss = mem_sys._i_miss_penalty",
            "dmiss = mem_sys._d_miss_penalty",
            "l1i_hits = 0",
            "l1d_hits = 0",
        ]
    elif perfect:
        setup += [
            "l1i_access = mem_sys.l1i.access",
            "l1d_access = mem_sys.l1d.access",
        ]
    else:
        setup += ["iaccess = mem_sys.iaccess", "daccess = mem_sys.daccess"]
    if len(orders) == 1:
        objs = ", ".join(f"threads[{t}]" for t in orders[0])
        setup.append(f"thread_order = ({objs},)")
        order_expr = "thread_order"
    else:
        tabs = ",\n        ".join(
            "(" + ", ".join(f"threads[{t}]" for t in o) + ",)"
            for o in orders
        )
        setup.append(f"order_tabs = (\n        {tabs},\n    )")
        n = len(orders)
        sel = f"cycle & {n - 1}" if n & (n - 1) == 0 else f"cycle % {n}"
        order_expr = f"order_tabs[{sel}]"
    setup_src = "\n".join(" " * 4 + s for s in setup)

    if multi:
        scheduler = """
        if cycle >= next_switch:
            if not switching:
                switching = True
            for th in threads:
                if th.pend is not None:
                    break
            else:
                proc._context_switch(cycle)
                next_switch = cycle + timeslice
                switching = False
        """
        sched_src = _block(scheduler, 8)
        switch_init = (
            "    switching = False\n    next_switch = timeslice\n"
        )
        ff_call = (
            "cycle, switching, next_switch = fast_forward(\n"
            "                cycle, end_cycle, switching, next_switch, "
            "True, timeslice\n"
            "            )"
        )
    else:
        sched_src = ""
        switch_init = ""
        ff_call = (
            "cycle = fast_forward(\n"
            "                cycle, end_cycle, False, 0, False, 0\n"
            "            )[0]"
        )

    # The run totals are the benchmarks' sums (a processor runs once,
    # from cycle 0), so the loop keeps no run-level copy of them.
    flush = [
        "operations = 0",
        "instructions = 0",
        "for bench in proc.benches:",
        "    bstats = bench.stats",
        "    operations += bstats.operations",
        "    instructions += bstats.instructions",
        "stats.operations = operations",
        "stats.instructions = instructions",
        "stats.vertical_waste += vertical_waste",
        "stats.icache_accesses += icache_accesses",
        "stats.icache_misses += icache_misses",
        "stats.dcache_accesses += dcache_accesses",
        "stats.dcache_misses += dcache_misses",
    ]
    if split != "none":
        flush += [
            "stats.stall_cycles += stall_cycles",
            "stats.split_instructions += split_instructions",
        ]
    if inline_l1:
        flush += ["l1i.hits += l1i_hits", "l1d.hits += l1d_hits"]
    flush += [
        "stats.cycles = cycle",
        "stats.memory = mem_sys.stats_dict()",
        "return stats",
    ]
    flush_src = "\n".join(" " * 4 + f for f in flush)

    split_locals = (
        "    stall_cycles = 0\n    split_instructions = 0\n"
        if split != "none"
        else ""
    )
    stall_account = (
        ""
        if split == "none"
        else _block(
            """
        if stall_extra:
            cycle += stall_extra
            stall_cycles += stall_extra
            vertical_waste += stall_extra
        """,
            8,
        )
    )

    # A cycle with no contributing thread issued nothing: every issuing
    # path counts its thread exactly when it issues at least one op.
    header = (
        f"# generated by repro.pipeline.specialize for "
        f"{shape.merge}-merge/{split}-split"
        f"{'' if comm_split else ' (NS atomic ICC)'},"
        f" {shape.n_clusters} clusters, nt={shape.n_threads}, "
        f"{shape.memory} memory"
        f"{', multitasking' if multi else ''}\n"
    )

    return f"""{header}
def {LOOP_NAME}(proc):
{setup_src}
    target_hit = False
    vertical_waste = 0
{split_locals}    icache_accesses = 0
    icache_misses = 0
    dcache_accesses = 0
    dcache_misses = 0
{switch_init}    cycle = 0
    end_cycle = proc.params.max_cycles
    while cycle < end_cycle:
        threads_contributing = 0
{cycle_resets}
        for th in {order_expr}:
{_block(thread_body, 12)}
        if not threads_contributing:
            vertical_waste += 1
        else:
            packet_threads[threads_contributing] = (
                pt_get(threads_contributing, 0) + 1
            )
        cycle += 1
{stall_account}
{sched_src}
        if target_hit:
            break
        if not threads_contributing and cycle < end_cycle:
            {ff_call}
{flush_src}
"""
