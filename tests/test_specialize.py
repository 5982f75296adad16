"""Bit-identity and dispatch behaviour of the specialised codegen loop.

``repro.pipeline.specialize`` generates a monomorphic run loop per
loop shape (policy structure, cluster count, memory class, thread
count, multitasking, priority); ``Processor.run``
dispatches to it, or to the per-cycle ``_run_reference`` oracle when
hooks, attribution or ``force_reference`` ask for it.  The generated
loop must be *bit-identical* (every ``SimStats`` counter,
memory/MSHR/writeback included) to the per-cycle reference loop across
the full policy × machine × memory × nt matrix, the memo must hit on
cells of one shape, hooks and ``force_reference`` must land on the
reference tier, and a loop that fails verification must stop a pooled
sweep before any worker simulates.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arch.config import CacheConfig, get_memory_config
from repro.arch.scenarios import MACHINE_PRESETS
from repro.compiler.pipeline import compile_kernel
from repro.core.policies import ALL_POLICIES, BY_NAME
from repro.engine import (
    CycleRecorder,
    ExperimentScale,
    QUICK_SCALE,
    SimulationSession,
)
from repro.pipeline import specialize
from repro.pipeline.processor import Processor, SimParams
from repro.pipeline.trace import record_trace

from _kernels import make_axpy, make_wide

MACHINES = ("paper", "narrow", "wide")
MEMORIES = ("paper", "l2", "l2+mshr", "slow-dram")

_trace_memo: dict = {}


def traces_for(machine: str):
    """Tiny kernels compiled against one machine scenario's config
    (cluster count / issue shape are compiler-visible, so traces are
    per-machine; memory presets share them)."""
    traces = _trace_memo.get(machine)
    if traces is None:
        cfg = MACHINE_PRESETS[machine].machine
        traces = [
            record_trace(compile_kernel(make_axpy(), cfg=cfg).program, cfg),
            record_trace(compile_kernel(make_wide(), cfg=cfg).program, cfg),
        ]
        _trace_memo[machine] = traces
    return traces


def run_tiers(policy, traces, nt, cfg, params):
    """(specialised stats, reference stats, specialised proc)."""
    sp = Processor(policy, traces, nt, cfg, params)
    rp = Processor(policy, traces, nt, cfg, params, force_reference=True)
    return sp.run(), rp.run(), sp


# ---------------------------------------------------------------- matrix
@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize(
    "policy", [p.name for p in ALL_POLICIES], ids=lambda p: p.replace(" ", "-")
)
def test_bit_identity_full_matrix(policy, machine):
    """Every policy × machine × memory preset × thread count: the
    specialised loop must actually be taken and produce identical
    stats to the reference loop."""
    base = MACHINE_PRESETS[machine].machine
    traces = traces_for(machine)
    for memory in MEMORIES:
        cfg = replace(base, memory=get_memory_config(memory))
        for nt in (1, 2, 4):
            params = SimParams(
                target_instructions=1_000, timeslice=400, seed=11
            )
            spec, ref, proc = run_tiers(
                BY_NAME[policy], traces, nt, cfg, params
            )
            assert proc.loop_used == "specialized", (machine, memory, nt)
            assert spec.to_dict() == ref.to_dict(), (machine, memory, nt)


def test_bit_identity_perfect_memory_and_fixed_priority():
    traces = traces_for("paper")
    cfg = MACHINE_PRESETS["paper"].machine
    for params in (
        SimParams(target_instructions=1_000, timeslice=300, seed=5,
                  perfect_memory=True),
        SimParams(target_instructions=1_000, timeslice=250, seed=7,
                  priority="fixed"),
        SimParams(target_instructions=1_000, timeslice=0, seed=6),
    ):
        for policy in ("SMT", "CCSI AS", "COSI NS", "OOSI AS"):
            spec, ref, proc = run_tiers(
                BY_NAME[policy], traces, 4, cfg, params
            )
            assert proc.loop_used == "specialized"
            assert spec.to_dict() == ref.to_dict(), (policy, params)


# ------------------------------------------------------------------ memo
@pytest.fixture
def fresh_cache():
    specialize.clear_cache()
    yield
    specialize.clear_cache()


def test_memo_hit_miss_by_fingerprint(fresh_cache):
    """Two field-for-field equal configs share one compiled loop (the
    key is the cell's shape, not the config object); a different
    scenario shape compiles a second one."""
    traces = traces_for("paper")
    cfg_a = MACHINE_PRESETS["paper"].machine
    cfg_b = replace(cfg_a)  # equal content, distinct object
    params = SimParams(target_instructions=500, timeslice=200, seed=1)

    Processor(BY_NAME["SMT"], traces, 2, cfg_a, params).run()
    info = specialize.cache_info()
    assert (info["misses"], info["compiled"]) == (1, 1)

    Processor(BY_NAME["SMT"], traces, 2, cfg_b, params).run()
    info = specialize.cache_info()
    assert (info["hits"], info["compiled"]) == (1, 1)

    # different thread count -> different monomorphic loop
    Processor(BY_NAME["SMT"], traces, 4, cfg_a, params).run()
    info = specialize.cache_info()
    assert (info["misses"], info["compiled"]) == (2, 2)


def test_cells_of_one_shape_share_a_loop(fresh_cache):
    """The generated loop reads every scenario number from ``proc``:
    two cells of one shape that differ in all of them (instruction
    target, timeslice, cycle limit, I/D miss penalty, taken-branch
    penalty, L1 set count and line size, FU capacity) share one
    compiled loop, and each stays bit-identical to the reference."""
    traces = traces_for("paper")
    base = MACHINE_PRESETS["paper"].machine
    other = replace(
        base,
        cluster=replace(base.cluster, issue_width=5, n_alu=5, n_mul=3,
                        n_mem=2),
        icache=CacheConfig(size_bytes=8 * 1024, assoc=2, line_bytes=64,
                           miss_penalty=7),
        dcache=CacheConfig(size_bytes=4 * 1024, assoc=2, line_bytes=16,
                           miss_penalty=13),
        taken_branch_penalty=2,
    )
    # the first cell stops at its cycle limit, the second at its
    # instruction target: each would run on under the other's numbers
    cells = [
        (base, SimParams(target_instructions=10**6, timeslice=400,
                         max_cycles=1_200, seed=3)),
        (other, SimParams(target_instructions=600, timeslice=250,
                          max_cycles=50_000, seed=3)),
    ]
    policy = BY_NAME["COSI NS"]
    shapes = {
        specialize.loop_key(policy, cfg, params, 2, len(traces))
        for cfg, params in cells
    }
    assert len(shapes) == 1
    for cfg, params in cells:
        spec, ref, proc = run_tiers(policy, traces, 2, cfg, params)
        assert proc.loop_used == "specialized"
        assert spec.to_dict() == ref.to_dict(), cfg
    info = specialize.cache_info()
    assert info["compiled"] == 1
    assert (info["misses"], info["hits"]) == (1, 1)


def test_single_thread_figure_compiles_two_loops(fresh_cache):
    """Fig. 13a's 24 single-thread cells (12 kernels, real and perfect
    memory) differ in their instruction targets but have two shapes,
    so they compile two loops."""
    from repro.harness.figures import fig13a

    rows = fig13a(SimulationSession(_TINY))
    assert len(rows) == 12
    info = specialize.cache_info()
    assert info["compiled"] == 2
    assert (info["misses"], info["hits"]) == (2, 22)


# -------------------------------------------------------- tier dispatch
def test_hooks_and_force_reference_take_reference_loop():
    traces = traces_for("paper")
    cfg = MACHINE_PRESETS["paper"].machine
    params = SimParams(target_instructions=500, timeslice=200, seed=3)

    hooked = Processor(BY_NAME["SMT"], traces, 2, cfg, params,
                       hooks=[CycleRecorder(limit=10**9)])
    hooked.run()
    assert hooked.loop_used == "reference"

    forced = Processor(BY_NAME["SMT"], traces, 2, cfg, params,
                       force_reference=True)
    forced.run()
    assert forced.loop_used == "reference"


# ------------------------------------------------------ engine plumbing
def _count_checks(monkeypatch) -> list:
    from repro.analysis import loopcheck

    calls = []
    real = loopcheck.check_source

    def counted(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(loopcheck, "check_source", counted)
    return calls


_TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_200, timeslice=700
)


def test_pooled_parent_verifies_but_compiles_no_loop(
    fresh_cache, monkeypatch
):
    """A ``--jobs 2`` parent runs no loop: it generates and verifies
    each distinct loop key once before its workers fork, and compiles
    none."""
    calls = _count_checks(monkeypatch)
    policies = ["SMT", "CSMT", "CCSI AS"]
    workloads = ["llll", "hhhh"]
    threads = (2, 4)
    session = SimulationSession(_TINY, jobs=2)
    results = session.sweep(
        policies=policies, workloads=workloads, n_threads=threads
    )
    assert len(results) == session.simulations == 12
    keys = {
        specialize.loop_key(
            c.policy, c.cfg, c.params, c.n_threads, len(c.members)
        )
        for c in (
            session.cell(p, w, nt)
            for p in policies for w in workloads for nt in threads
        )
    }
    assert len(keys) == 6
    info = specialize.cache_info()
    assert info["compiled"] == 0
    assert info["sources"] == len(keys)
    assert len(calls) == len(keys)


def test_rejected_generation_aborts_pooled_sweep(fresh_cache, monkeypatch):
    """A loop the pool parent rejects raises before the pool forks:
    no worker simulates a cell and nothing is compiled."""
    from repro.analysis import LoopVerificationError

    real = specialize.generate_loop_source
    monkeypatch.setattr(
        specialize, "generate_loop_source",
        lambda *a, **k: real(*a, **k) + "    while True:\n        pass\n",
    )
    session = SimulationSession(_TINY, jobs=2)
    with pytest.raises(LoopVerificationError) as exc:
        session.sweep(
            policies=["CCSI AS"], workloads=["llll", "hhhh"], n_threads=(2,)
        )
    assert "loopcheck-unbounded" in {f.rule for f in exc.value.findings}
    assert session.simulations == 0
    assert specialize.cache_info()["compiled"] == 0


# ------------------------------------------------- inlined L1 hit path
def _cache_state(cache):
    """Every set's lines in LRU order with their dirty truthiness, plus
    the counters ``stats_dict`` reports."""
    sets = [[(line, bool(d)) for line, d in s.items()] for s in cache.sets]
    return sets, cache.hits, cache.misses, cache.writebacks


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` with a call counter; returns the counter."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture(scope="module")
def quick_session():
    return SimulationSession(QUICK_SCALE)


def _quick_cells():
    from repro.harness.workloads import WORKLOADS

    return [
        (p.name, w, nt)
        for p in ALL_POLICIES
        for w in sorted(WORKLOADS)
        for nt in (2, 4)
    ]


def _quick_processor(session, policy, workload, nt, **kw):
    cell = session.cell(policy, workload, nt)
    return Processor(
        cell.policy, cell.bundles(), nt, cell.cfg, cell.params, **kw,
    )


def _counters(stats):
    """Every integer counter the tier comparison covers, by name:
    ``SimStats``'s own, the ``packet_threads`` total and the
    ``BenchStats`` counters summed over benchmarks."""
    out = {k: v for k, v in stats.to_dict().items() if isinstance(v, int)}
    out["packet_threads"] = sum(stats.packet_threads.values())
    for name in ("instructions", "operations", "respawns"):
        out[f"bench.{name}"] = sum(
            getattr(b, name) for b in stats.per_bench.values()
        )
    return out


def test_inlined_l1_leaves_fast_path_cache_state(quick_session, monkeypatch):
    """Every flat quick cell: the generated loop's inlined hit path and
    the reference loop's ``Cache.access`` calls leave the same L1 sets
    (keys, LRU order, dirty truthiness) and the same hit/miss/writeback
    counts; ``Cache.access`` itself runs only on the misses.

    The comparison sees every counter: per policy each one is nonzero
    in some cell, except ``stall_cycles`` and ``split_instructions`` of
    a no-split policy, which are zero in every cell."""
    from repro.memory.cache import Cache

    counters: dict[str, list[dict[str, int]]] = {}
    for policy, workload, nt in _quick_cells():
        spec = _quick_processor(quick_session, policy, workload, nt)
        calls = _count_calls(monkeypatch, Cache, "access")
        s = spec.run()
        monkeypatch.undo()  # the reference loop below runs uncounted
        assert spec.loop_used == "specialized"
        assert calls[0] == s.icache_misses + s.dcache_misses
        ref = _quick_processor(
            quick_session, policy, workload, nt, force_reference=True
        )
        r = ref.run()
        cell = (policy, workload, nt)
        assert s.to_dict() == r.to_dict(), cell
        assert _cache_state(spec.mem.l1i) == _cache_state(ref.mem.l1i), cell
        assert _cache_state(spec.mem.l1d) == _cache_state(ref.mem.l1d), cell
        counters.setdefault(policy, []).append(_counters(s))

    for policy, rows in counters.items():
        idle = (
            {"stall_cycles", "split_instructions"}
            if BY_NAME[policy].split == "none"
            else set()
        )
        assert all(r[k] == 0 for r in rows for k in idle), policy
        moved = {k for r in rows for k, v in r.items() if v > 0}
        assert set(rows[0]) - moved == idle, policy


@pytest.mark.parametrize("policy", ["SMT", "COSI AS", "OOSI NS"])
def test_perfect_and_l2_memory_keep_their_calls(policy, monkeypatch):
    """Only flat, non-perfect memory inlines the probe: perfect memory
    still calls ``PerfectCache.access`` per probe and ``l2`` still goes
    through ``MemorySystem.iaccess``/``daccess``."""
    from repro.memory.cache import PerfectCache
    from repro.memory.hierarchy import MemorySystem

    traces = traces_for("paper")
    base = MACHINE_PRESETS["paper"].machine
    perfect = SimParams(
        target_instructions=1_000, timeslice=300, seed=5, perfect_memory=True
    )
    calls = _count_calls(monkeypatch, PerfectCache, "access")
    proc = Processor(BY_NAME[policy], traces, 4, base, perfect)
    s = proc.run()
    assert proc.loop_used == "specialized"
    assert calls[0] == s.icache_accesses + s.dcache_accesses > 0

    l2 = replace(base, memory=get_memory_config("l2"))
    params = SimParams(target_instructions=1_000, timeslice=300, seed=5)
    icalls = _count_calls(monkeypatch, MemorySystem, "iaccess")
    dcalls = _count_calls(monkeypatch, MemorySystem, "daccess")
    proc = Processor(BY_NAME[policy], traces, 4, l2, params)
    s = proc.run()
    assert proc.loop_used == "specialized"
    assert icalls[0] == s.icache_accesses > 0
    assert dcalls[0] == s.dcache_accesses > 0
