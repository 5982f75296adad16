"""Cross-policy timing invariants on small deterministic workloads.

These pin the qualitative relationships the paper's evaluation rests on.
All runs share seeds and traces, differing only in policy.
"""

import pytest

from repro.arch.config import PAPER_MACHINE
from repro.core.policies import (
    CCSI_AS,
    CCSI_NS,
    COSI_AS,
    CSMT,
    OOSI_AS,
    SMT,
)
from repro.kernels import get_trace
from repro.pipeline.processor import Processor, SimParams

SCALE = 0.12


@pytest.fixture(scope="module")
def mixed_traces():
    # an llhh-style mix: maximum contrast between wide and narrow threads
    return [get_trace(n, scale=SCALE)
            for n in ("mcf", "blowfish", "x264", "idct")]


def run(policy, traces, n_threads=4, seed=3):
    proc = Processor(
        policy, traces, n_threads, PAPER_MACHINE,
        SimParams(target_instructions=2_500, timeslice=1_200, seed=seed),
    )
    return proc.run()


def test_split_never_issues_different_work(mixed_traces):
    """Same target, same scheduler seed: every policy retires the same
    instruction mix (timing differs, work does not)."""
    base = run(CSMT, mixed_traces)
    for pol in (CCSI_AS, SMT, OOSI_AS):
        s = run(pol, mixed_traces)
        assert set(s.per_bench) == set(base.per_bench)
        for name in s.per_bench:
            assert s.per_bench[name].instructions > 0


def test_ccsi_at_least_csmt(mixed_traces):
    """Split-issue adds merge opportunities and removes none: CCSI's IPC
    must not fall measurably below CSMT's."""
    csmt = run(CSMT, mixed_traces).ipc
    ccsi = run(CCSI_AS, mixed_traces).ipc
    assert ccsi >= csmt * 0.98


def test_oosi_at_least_smt(mixed_traces):
    smt = run(SMT, mixed_traces).ipc
    oosi = run(OOSI_AS, mixed_traces).ipc
    assert oosi >= smt * 0.98


def test_as_at_least_ns(mixed_traces):
    """Allowing ICC instructions to split can only add opportunities."""
    ns = run(CCSI_NS, mixed_traces).ipc
    as_ = run(CCSI_AS, mixed_traces).ipc
    assert as_ >= ns * 0.98


def test_smt_at_least_csmt(mixed_traces):
    """Operation-level merging subsumes cluster-level merging (paper
    Fig. 1: whatever CSMT merges, SMT merges)."""
    csmt = run(CSMT, mixed_traces).ipc
    smt = run(SMT, mixed_traces).ipc
    assert smt >= csmt * 0.99


def test_split_policies_actually_split(mixed_traces):
    assert run(CCSI_AS, mixed_traces).split_instructions > 0
    assert run(OOSI_AS, mixed_traces).split_instructions > 0
    assert run(CSMT, mixed_traces).split_instructions == 0


def test_merged_packets_increase_with_split(mixed_traces):
    csmt = run(CSMT, mixed_traces).merged_cycle_frac
    ccsi = run(CCSI_AS, mixed_traces).merged_cycle_frac
    assert ccsi >= csmt


def test_more_threads_more_throughput(mixed_traces):
    two = run(SMT, mixed_traces, n_threads=2).ipc
    four = run(SMT, mixed_traces, n_threads=4).ipc
    assert four >= two * 0.95


def test_seed_changes_schedule_not_validity(mixed_traces):
    a = run(CCSI_AS, mixed_traces, seed=3)
    b = run(CCSI_AS, mixed_traces, seed=17)
    assert a.cycles != b.cycles or a.operations != b.operations
    for s in (a, b):
        assert 0 < s.ipc <= PAPER_MACHINE.issue_width


def test_cosi_between_smt_and_oosi(mixed_traces):
    """COSI (cluster split on op-merge) sits between no-split SMT and
    full OOSI — within noise."""
    smt = run(SMT, mixed_traces).ipc
    cosi = run(COSI_AS, mixed_traces).ipc
    oosi = run(OOSI_AS, mixed_traces).ipc
    assert cosi >= smt * 0.97
    assert oosi >= cosi * 0.97


# ------------------------------------------------------- design ablations
#: an llmh-style mix, the workload the design ablations run on
ABLATION_MIX = ("mcf", "cjpeg", "x264", "colorspace")


def _ablation_run(policy, names=ABLATION_MIX, **kw):
    params = dict(target_instructions=3_000, timeslice=1_500, seed=99)
    params.update(kw)
    traces = [get_trace(n, scale=0.15) for n in names]
    return Processor(policy, traces, 4, params=SimParams(**params)).run()


def test_renaming_does_not_hurt_a_mixed_workload():
    """Cluster renaming de-biases the compiler's favourite clusters
    across threads (paper §IV uses it everywhere)."""
    on = _ablation_run(CCSI_AS, renaming=True).ipc
    off = _ablation_run(CCSI_AS, renaming=False).ipc
    assert on >= off * 0.97


def test_round_robin_priority_is_fairer_than_fixed():
    """Fixed merge priority trades fairness for raw IPC: the slowest
    thread progresses at least half as well under round-robin."""
    rr = _ablation_run(CCSI_AS, priority="round-robin")
    fx = _ablation_run(CCSI_AS, priority="fixed")
    rr_min = min(b.instructions for b in rr.per_bench.values())
    fx_min = min(b.instructions for b in fx.per_bench.values())
    assert rr_min >= fx_min * 0.5


def test_ns_as_gap_grows_with_ilp():
    """High-ILP code uses inter-cluster copies more, so splitting them
    (AS) buys more there (paper §VI-B)."""
    def gap(names):
        ipc = {p.name: _ablation_run(p, names).ipc
               for p in (CSMT, CCSI_NS, CCSI_AS)}
        return 100 * (ipc["CCSI AS"] - ipc["CCSI NS"]) / ipc["CSMT"]

    low = gap(("mcf", "bzip2", "blowfish", "gsmencode"))    # llll
    high = gap(("x264", "idct", "imgpipe", "colorspace"))   # hhhh
    assert high >= low - 1.0
