"""Bit-identity of the specialised loop's bulk idle-cycle skip.

``Processor.run`` dispatches to the generated specialised loop unless
hooks, attribution or ``force_reference`` ask for the per-cycle
``_run_reference`` loop, the semantic definition of the simulator.
The generated loop is the only caller of ``Processor._fast_forward``,
which jumps the clock over spans in which no thread can act.  Every
test here runs the default (generated) tier against the reference
loop and asserts *identical* ``SimStats`` (compared through
``to_dict()``, i.e. every counter the disk cache hashes), across
policies, memory presets, thread counts, and the scheduler/limit
corner cases the skip logic must respect: timeslice expiries and
``max_cycles`` limits landing mid-skip, DRAM bank-busy windows
straddling a skipped span, and engaged MSHRs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arch.config import (
    MEMORY_PRESETS,
    PAPER_MACHINE,
    DramConfig,
    MemoryConfig,
    get_memory_config,
)
from repro.core.policies import ALL_POLICIES, BY_NAME
from repro.engine import CycleRecorder
from repro.pipeline.processor import Processor, SimParams


def run_pair(policy, traces, n_threads, cfg, params):
    """Run the same cell through both tiers; returns (spec, ref, proc)
    where ``proc`` is the processor that ran the generated loop."""
    spec_proc = Processor(policy, traces, n_threads, cfg, params)
    ref_proc = Processor(
        policy, traces, n_threads, cfg, params, force_reference=True
    )
    spec = spec_proc.run()
    assert spec_proc.loop_used == "specialized"
    return spec, ref_proc.run(), spec_proc


def preset_cfg(preset: str):
    return replace(PAPER_MACHINE, memory=get_memory_config(preset))


# ---------------------------------------------------------------- matrix
@pytest.mark.parametrize("preset", sorted(MEMORY_PRESETS))
@pytest.mark.parametrize(
    "policy", [p.name for p in ALL_POLICIES], ids=lambda p: p.replace(" ", "-")
)
def test_bit_identity_policy_preset_matrix(tiny_traces, policy, preset):
    """Every policy x memory preset x thread count: identical stats."""
    cfg = preset_cfg(preset)
    for nt in (1, 2, 4):
        params = SimParams(
            target_instructions=1_500, timeslice=400, seed=11
        )
        spec, ref, _ = run_pair(
            BY_NAME[policy], tiny_traces, nt, cfg, params
        )
        assert spec.to_dict() == ref.to_dict(), (policy, preset, nt)


@pytest.mark.parametrize("preset", sorted(MEMORY_PRESETS))
def test_bit_identity_real_kernels(preset):
    """Spot-check with real compiled kernels (multi-bench workload,
    context switches, both merge levels) on every memory preset."""
    from repro.kernels.suite import get_trace

    traces = [get_trace("mcf", 0.05), get_trace("idct", 0.05)]
    cfg = preset_cfg(preset)
    params = SimParams(target_instructions=2_000, timeslice=500, seed=7)
    for policy in ("CCSI AS", "OOSI NS"):
        spec, ref, _ = run_pair(
            BY_NAME[policy], traces, 2, cfg, params
        )
        assert spec.to_dict() == ref.to_dict(), (policy, preset)


# ------------------------------------------------------------ skip logic
def test_fast_forward_engages_on_memory_stalls(tiny_traces):
    """The skip path must actually fire on a stall-heavy scenario —
    otherwise the identity tests above prove nothing about it."""
    cfg = preset_cfg("slow-dram")
    params = SimParams(target_instructions=2_000, timeslice=0, seed=3)
    proc = Processor(BY_NAME["SMT"], tiny_traces[:1], 1, cfg, params)
    stats = proc.run()
    assert proc.loop_used == "specialized"
    assert proc.ff_skipped_cycles > 0
    assert stats.vertical_waste >= proc.ff_skipped_cycles


def test_timeslice_boundary_crossed_mid_skip(tiny_traces):
    """A timeslice much shorter than a DRAM stall forces skips that
    land across ``next_switch`` boundaries; the context-switch RNG must
    still advance at exactly the reference cycles."""
    cfg = preset_cfg("slow-dram")
    params = SimParams(target_instructions=4_000, timeslice=50, seed=5)
    spec, ref, proc = run_pair(
        BY_NAME["CCSI AS"], tiny_traces, 2, cfg, params
    )
    assert proc.ff_skipped_cycles > 0
    assert spec.context_switches > 0
    assert spec.to_dict() == ref.to_dict()


def test_max_cycles_boundary_lands_mid_stall(tiny_traces):
    """``max_cycles`` limits that expire inside a skipped span must
    clamp the bulk waste accounting to the exact same cycle count, and
    limits landing around 250-cycle timeslice expiries must stop both
    loops on the same counters."""
    cfg = preset_cfg("slow-dram")
    for limit in (37, 61, 100, 1_000):
        params = SimParams(
            target_instructions=10**9, timeslice=0, max_cycles=limit,
            seed=2,
        )
        spec, ref, _ = run_pair(
            BY_NAME["SMT"], tiny_traces[:1], 1, cfg, params
        )
        assert spec.to_dict() == ref.to_dict(), limit
    for policy in ("SMT", "COSI AS"):
        for limit in (300, 400, 700):
            params = SimParams(
                target_instructions=10**9, timeslice=250,
                max_cycles=limit, seed=4,
            )
            spec, ref, _ = run_pair(
                BY_NAME[policy], tiny_traces, 2, PAPER_MACHINE, params
            )
            assert spec.to_dict() == ref.to_dict(), (policy, limit)


def test_bank_busy_window_straddles_skipped_span(tiny_traces):
    """A bank-busy reservation far longer than the stall that created
    it must survive bulk skips: the generated loop jumps over the span,
    but a post-skip miss to the same bank has to wait the exact residual
    the reference loop charges."""
    cfg = replace(
        PAPER_MACHINE,
        memory=MemoryConfig(
            name="t-straddle",
            dram=DramConfig(latency=40, n_banks=1, bank_busy=300),
        ),
    )
    for seed, timeslice in ((1, 0), (2, 130), (3, 700)):
        params = SimParams(
            target_instructions=2_500, timeslice=timeslice, seed=seed
        )
        spec, ref, proc = run_pair(
            BY_NAME["SMT"], tiny_traces, 2, cfg, params
        )
        assert proc.ff_skipped_cycles > 0, (seed, timeslice)
        assert spec.memory["dram"]["bank_conflicts"] > 0, (seed, timeslice)
        assert spec.to_dict() == ref.to_dict(), (seed, timeslice)


def test_slow_dram_timeslice_expiry_lands_mid_skip(tiny_traces):
    """slow-dram preset with timeslices shorter than a DRAM stall: the
    drain/context-switch transition fires inside spans the generated
    loop skips, while bank-busy windows carry across them."""
    cfg = preset_cfg("slow-dram")
    for seed in (21, 22):
        for ts in (61, 97):
            params = SimParams(
                target_instructions=3_000, timeslice=ts, seed=seed
            )
            spec, ref, proc = run_pair(
                BY_NAME["CCSI AS"], tiny_traces, 4, cfg, params
            )
            assert proc.ff_skipped_cycles > 0, (seed, ts)
            assert spec.context_switches > 0, (seed, ts)
            assert spec.to_dict() == ref.to_dict(), (seed, ts)


def test_bit_identity_with_engaged_mshrs():
    """Identity on the mshr presets proves nothing unless the MSHR
    machinery actually fires — pin merges > 0 during the run."""
    from repro.kernels.suite import get_trace

    traces = [get_trace("mcf", 0.05), get_trace("idct", 0.05)]
    for preset in ("mshr", "l2+mshr"):
        cfg = preset_cfg(preset)
        params = SimParams(
            target_instructions=2_000, timeslice=500, seed=7
        )
        spec, ref, _ = run_pair(BY_NAME["CCSI AS"], traces, 2, cfg, params)
        assert spec.memory["mshr"]["merges"] > 0, preset
        assert spec.to_dict() == ref.to_dict(), preset


# -------------------------------------------------------- hook fallback
def test_hooks_fall_back_to_reference_loop(tiny_traces):
    """A hooked run must fire ``on_cycle`` for *every* issue cycle
    (the generated loop skips idle spans, so it must not be taken) and
    still produce the same stats as the hook-less generated loop."""
    rec = CycleRecorder(limit=10**9)
    params = SimParams(target_instructions=1_200, timeslice=300, seed=3)
    hooked = Processor(
        BY_NAME["SMT"], tiny_traces, 2, PAPER_MACHINE, params,
        hooks=[rec],
    )
    s = hooked.run()
    # one on_cycle event per issue iteration: total cycles = issue
    # iterations + buffered-store stall cycles
    assert len(rec.samples) == s.cycles - s.stall_cycles
    assert hooked.ff_skipped_cycles == 0

    spec = Processor(
        BY_NAME["SMT"], tiny_traces, 2, PAPER_MACHINE, params
    ).run()
    assert spec.to_dict() == s.to_dict()


def test_force_reference_flag(tiny_traces):
    params = SimParams(target_instructions=800, timeslice=200, seed=9)
    proc = Processor(
        BY_NAME["SMT"], tiny_traces, 2, PAPER_MACHINE, params,
        force_reference=True,
    )
    proc.run()
    assert proc.ff_skipped_cycles == 0
