"""Timing simulator behaviour (repro.pipeline.processor)."""

import pytest

from repro.arch.config import (
    PAPER_MACHINE,
    CacheConfig,
    ClusterConfig,
    MachineConfig,
)
from repro.core.policies import ALL_POLICIES, CCSI_AS, CSMT, OOSI_AS, SMT
from repro.pipeline.processor import Processor, SimParams, run_single_thread
from repro.pipeline.trace import record_trace
from repro.compiler.pipeline import compile_kernel

from _kernels import make_axpy, make_wide


def params(**kw):
    base = dict(
        target_instructions=10_000,
        timeslice=2_000,
        seed=7,
    )
    base.update(kw)
    return SimParams(**base)


def test_single_thread_ipc_positive(axpy_trace):
    s = run_single_thread(axpy_trace)
    assert 0 < s.ipc <= PAPER_MACHINE.issue_width
    assert s.instructions > 0


def test_perfect_memory_at_least_as_fast(axpy_trace, wide_trace):
    for tr in (axpy_trace, wide_trace):
        real = run_single_thread(tr).ipc
        perfect = run_single_thread(tr, perfect_memory=True).ipc
        assert perfect >= real


def test_ipc_bounded_by_issue_width(tiny_traces):
    for pol in ALL_POLICIES:
        proc = Processor(pol, tiny_traces, 2, PAPER_MACHINE,
                         params(target_instructions=10**9,
                                max_cycles=5_000))
        s = proc.run()
        assert s.ipc <= PAPER_MACHINE.issue_width


def test_determinism_same_seed(tiny_traces):
    runs = []
    for _ in range(2):
        proc = Processor(OOSI_AS, tiny_traces, 2, PAPER_MACHINE,
                         params(target_instructions=10**9,
                                max_cycles=20_000))
        runs.append(proc.run())
    assert runs[0].operations == runs[1].operations
    assert runs[0].cycles == runs[1].cycles
    assert runs[0].split_instructions == runs[1].split_instructions


def test_ops_conserved_across_policies(tiny_traces):
    """Every policy retires the same ops for the same retired
    instructions (merging affects cycles, never the work done)."""
    for pol in ALL_POLICIES:
        proc = Processor(pol, tiny_traces, 2, PAPER_MACHINE,
                         params(target_instructions=2_000, timeslice=0))
        s = proc.run()
        for name, bench in s.per_bench.items():
            tr = [t for t in tiny_traces if t.name == name][0]
            # ops accumulated == sum of ops of retired dynamic instrs
            # (within one possibly-in-flight instruction)
            assert bench.operations >= sum(
                tr.static.nops[tr.idx[k]] for k in range(
                    min(bench.instructions, tr.length))
            ) - 20


def test_run_stops_at_instruction_target(tiny_traces):
    proc = Processor(SMT, tiny_traces, 2, PAPER_MACHINE,
                     params(target_instructions=500))
    s = proc.run()
    assert max(b.instructions for b in s.per_bench.values()) >= 500


def test_timeslice_context_switches(tiny_traces):
    proc = Processor(SMT, tiny_traces + tiny_traces[:1], 2, PAPER_MACHINE,
                     params(target_instructions=50_000, timeslice=500))
    # NOTE: duplicate names would collide in per_bench; use 2 distinct
    proc = Processor(SMT, tiny_traces, 1, PAPER_MACHINE,
                     params(target_instructions=10**9, timeslice=500,
                            max_cycles=50_000))
    s = proc.run()
    assert s.context_switches > 0


def test_respawn_on_trace_end(axpy_trace):
    proc = Processor(SMT, [axpy_trace], 1, PAPER_MACHINE,
                     params(target_instructions=axpy_trace.length * 3))
    s = proc.run()
    bench = s.per_bench[axpy_trace.name]
    assert bench.respawns >= 2


def test_vertical_plus_active_cycles(axpy_trace):
    s = run_single_thread(axpy_trace)
    active = sum(s.packet_threads.values())
    assert active + s.vertical_waste == s.cycles


def test_reference_run_totals_are_benchmark_sums(quick_session):
    """Every quick cell, on the reference loop: the run's operation and
    instruction totals equal the sums of its benchmarks' counters, and
    each cycle is either vertical waste or counted once in
    ``packet_threads``.  The generated loop's flush derives those run
    counters from these identities."""
    from repro.harness.workloads import WORKLOAD_ORDER

    for policy in ALL_POLICIES:
        for workload in WORKLOAD_ORDER:
            for nt in (2, 4):
                cell = quick_session.cell(policy.name, workload, nt)
                proc = Processor(
                    cell.policy, cell.bundles(), nt, cell.cfg, cell.params,
                    force_reference=True,
                )
                s = proc.run()
                benches = [b.stats for b in proc.benches]
                label = (policy.name, workload, nt)
                assert s.operations == sum(
                    b.operations for b in benches
                ), label
                assert s.instructions == sum(
                    b.instructions for b in benches
                ), label
                assert (
                    s.vertical_waste + sum(s.packet_threads.values())
                    == s.cycles
                ), label


def test_horizontal_waste_nonnegative(axpy_trace):
    s = run_single_thread(axpy_trace)
    assert s.horizontal_waste >= 0


def test_cache_miss_penalty_slows_down(axpy_trace):
    fast_cfg = MachineConfig(
        icache=CacheConfig(miss_penalty=0),
        dcache=CacheConfig(miss_penalty=0),
    )
    slow_cfg = MachineConfig(
        icache=CacheConfig(miss_penalty=50),
        dcache=CacheConfig(miss_penalty=50),
    )
    fast = run_single_thread(axpy_trace, cfg=fast_cfg).cycles
    slow = run_single_thread(axpy_trace, cfg=slow_cfg).cycles
    assert slow >= fast


def test_taken_branch_penalty_costs_cycles(axpy_trace):
    no_pen = MachineConfig(taken_branch_penalty=0)
    pen = MachineConfig(taken_branch_penalty=3)
    fast = run_single_thread(axpy_trace, cfg=no_pen,
                             perfect_memory=True).cycles
    slow = run_single_thread(axpy_trace, cfg=pen,
                             perfect_memory=True).cycles
    # axpy takes a backward branch every iteration
    assert slow > fast


def test_multithreading_beats_single_thread_throughput(tiny_traces):
    """2-thread SMT must finish the combined work in fewer cycles than
    the two programs run back to back."""
    solo = sum(
        run_single_thread(tr, perfect_memory=True).cycles
        for tr in tiny_traces
    )
    proc = Processor(SMT, tiny_traces, 2, PAPER_MACHINE,
                     params(target_instructions=10**9, timeslice=0,
                            perfect_memory=True, max_cycles=solo * 2))
    s = proc.run()
    # run until both traces completed once: compare ops/cycle instead
    solo_ipc = sum(
        run_single_thread(tr, perfect_memory=True).operations
        for tr in tiny_traces
    ) / solo
    assert s.ipc > solo_ipc * 0.95


def test_split_instructions_counted_only_for_split_policies(tiny_traces):
    limited = params(target_instructions=10**9, max_cycles=5_000)
    p_no = Processor(CSMT, tiny_traces, 2, PAPER_MACHINE, limited)
    s_no = p_no.run()
    assert s_no.split_instructions == 0
    p_sp = Processor(CCSI_AS, tiny_traces, 2, PAPER_MACHINE, limited)
    s_sp = p_sp.run()
    assert s_sp.split_instructions >= 0  # may be zero on tiny runs


def test_empty_workload_rejected():
    with pytest.raises((IndexError, ValueError)):
        Processor(SMT, [], 0, PAPER_MACHINE, params())


def test_renaming_disabled_gives_rotation_zero(tiny_traces):
    proc = Processor(SMT, tiny_traces, 2, PAPER_MACHINE,
                     params(renaming=False))
    assert all(th.rotation == 0 for th in proc.threads)


def test_renaming_enabled_rotates(tiny_traces):
    proc = Processor(SMT, tiny_traces, 2, PAPER_MACHINE, params())
    assert [th.rotation for th in proc.threads] == [0, 1]


def test_memory_port_contention_stalls():
    """A store split away from its last part must collide with another
    thread's memory op on the same cluster port (paper Fig. 11)."""
    # store-heavy kernel: every instruction hits cluster memory ports
    def make_store_kernel(name):
        from repro.compiler.builder import KernelBuilder
        b = KernelBuilder(name)
        base = b.data_words([0] * 64, "buf")
        v = b.const(7)
        with b.counted_loop(200) as i:
            off = b.shl(b.and_(i, 15), 2)
            b.stw_ix(v, base, off, region="buf")
            x = b.ldw_ix(base, off, region="buf")
            b.stw_ix(b.add(x, 1), base, off, region="buf")
        return compile_kernel(b).program

    trs = [record_trace(make_store_kernel(f"st{k}"), PAPER_MACHINE)
           for k in range(2)]
    proc = Processor(OOSI_AS, trs, 2, PAPER_MACHINE,
                     params(target_instructions=10**9, timeslice=0,
                            max_cycles=20_000))
    s = proc.run()
    assert s.stall_cycles >= 0  # counted; may be zero if no collision
