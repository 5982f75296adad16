"""Experiment harness: workloads, session memoisation, figure structure
and the paper's figure shapes at quick scale."""

import os

import pytest

from repro.arch.config import MEMORY_PRESETS
from repro.arch.scenarios import MACHINE_PRESETS
from repro.engine import ExperimentScale, SimulationSession
from repro.harness.figures import (
    FIG16_POLICIES,
    FIG_MACHINE_PRESETS,
    FIG_MEM_PRESETS,
    fig13a,
    fig14,
    fig15,
    fig16,
    fig_axis,
    sensitivity,
)
from repro.harness.workloads import (
    WORKLOAD_ORDER,
    WORKLOADS,
    validate_workloads,
)
from repro.kernels import SUITE

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_500, timeslice=800
)


@pytest.fixture(scope="module")
def runner():
    return SimulationSession(TINY)


def test_nine_workloads_in_paper_order():
    assert WORKLOAD_ORDER == [
        "llll", "lmmh", "mmmm", "llmm", "llmh", "llhh", "lmhh", "mmhh",
        "hhhh",
    ]


def test_workload_members_exist():
    for members in WORKLOADS.values():
        for m in members:
            assert m in SUITE


def test_workload_names_match_classes():
    validate_workloads()  # raises on mismatch


def test_validate_workloads_rejects_unknown_benchmark(monkeypatch):
    from repro.harness import workloads

    monkeypatch.setitem(
        workloads.WORKLOADS, "llll", ("mcf", "bzip2", "blowfish", "nope")
    )
    with pytest.raises(ValueError, match="unknown benchmark 'nope'"):
        validate_workloads()


def test_validate_workloads_rejects_class_mismatch(monkeypatch):
    from repro.harness import workloads

    # idct is a high-ILP kernel: it cannot sit in an all-low mix
    monkeypatch.setitem(
        workloads.WORKLOADS, "llll", ("mcf", "bzip2", "blowfish", "idct")
    )
    with pytest.raises(ValueError, match="do not match its name"):
        validate_workloads()


def test_paper_fig13b_rows():
    assert WORKLOADS["llll"] == ("mcf", "bzip2", "blowfish", "gsmencode")
    assert WORKLOADS["hhhh"] == ("x264", "idct", "imgpipe", "colorspace")
    assert WORKLOADS["mmhh"] == ("djpeg", "g721decode", "idct", "colorspace")


def test_runner_memoises(runner):
    a = runner.run("SMT", "llll", 2)
    b = runner.run("SMT", "llll", 2)
    assert a is b


def test_runner_accepts_policy_objects(runner):
    from repro.core.policies import SMT

    assert runner.run(SMT, "llll", 2) is runner.run("SMT", "llll", 2)


def test_speedup_definition(runner):
    s = runner.speedup("SMT", "SMT", "llll", 2)
    assert s == pytest.approx(0.0)


def test_average_ipc_positive(runner):
    assert runner.average_ipc("SMT", 2) > 0


def test_fig14_structure(runner):
    rows = fig14(runner)
    assert len(rows) == 2 * (len(WORKLOAD_ORDER) + 1)
    for r in rows:
        assert set(r) == {"threads", "workload", "NS", "AS"}
    avg_rows = [r for r in rows if r["workload"] == "avg"]
    assert len(avg_rows) == 2


def test_fig15_structure(runner):
    rows = fig15(runner)
    assert len(rows) == 2 * (len(WORKLOAD_ORDER) + 1)
    for r in rows:
        assert {"COSI NS", "COSI AS", "OOSI NS", "OOSI AS"} <= set(r)


def test_fig16_structure(runner):
    rows = fig16(runner)
    assert len(rows) == 2 * len(FIG16_POLICIES)
    for r in rows:
        assert r["ipc"] > 0


def test_smt_beats_csmt_on_average(runner):
    """Operation-level merging dominates cluster-level merging (paper
    Fig. 16: SMT > CSMT at both thread counts)."""
    for nt in (2, 4):
        assert runner.average_ipc("SMT", nt) > runner.average_ipc(
            "CSMT", nt
        ) * 0.99


def test_four_threads_beat_two(runner):
    for pol in ("CSMT", "SMT"):
        assert runner.average_ipc(pol, 4) > runner.average_ipc(pol, 2) * 0.95


# ------------------------------------------- scenario axes, --jobs fan-out
def test_figure_lists_cover_the_registries():
    """``fig mem`` / ``fig machine`` draw one column per preset: a new
    preset must be placed in the figure's column order."""
    assert sorted(FIG_MEM_PRESETS) == sorted(MEMORY_PRESETS)
    assert sorted(FIG_MACHINE_PRESETS) == sorted(MACHINE_PRESETS)


def _fan_out(session):
    return (
        fig14(session),
        fig_axis(session, "machine", ["paper", "narrow"], n_threads=(2,)),
        [
            (v, s.to_dict()) for v, s in sensitivity(
                session, "CCSI AS", "llhh", 2, "memory", ["paper", "l2"]
            )
        ],
    )


def test_harness_functions_fan_out_their_cells():
    """Under ``jobs=2`` every harness function sends the cells it reads
    to the pool itself: each cell is simulated once, in a worker, and
    the rows equal a serial session's."""
    serial = _fan_out(SimulationSession(TINY))
    pooled = SimulationSession(TINY, jobs=2)
    assert _fan_out(pooled) == serial
    records = pooled.telemetry.records
    simulated = [r for r in records if r["source"] == "simulated"]
    assert simulated
    assert all(r["worker"] != os.getpid() for r in simulated)
    # no memo key simulated twice (fig14's 2T paper cells are the
    # machine figure's "paper" column)
    assert pooled.simulations == len(simulated)
    assert pooled.simulations == pooled.cache_stats()["memo_entries"]
    # a memo-warm slice sends nothing to the pool
    n = len(records)
    pooled.prefetch(["CSMT", "CCSI NS", "CCSI AS"])
    assert len(pooled.telemetry.records) == n


def test_one_job_prefetch_does_nothing():
    session = SimulationSession(TINY)
    session.prefetch()
    assert session.telemetry.records == []
    assert session.simulations == 0
    assert session.cache_stats()["memo_entries"] == 0


# --------------------------------------------- paper shapes, quick scale
def test_fig13a_ipcp_ordered_by_ilp_class(quick_session):
    """Fig. 13a: mean perfect-memory IPC rises with the ILP class."""
    by_class: dict[str, list[float]] = {}
    for r in fig13a(quick_session):
        by_class.setdefault(r["ilp"], []).append(r["ipcp"])
    mean = {c: sum(v) / len(v) for c, v in by_class.items()}
    assert mean["l"] < mean["m"] < mean["h"]


def test_fig14_ccsi_as_speeds_up_csmt_on_average(quick_session):
    for r in fig14(quick_session):
        if r["workload"] == "avg":
            assert r["AS"] > -0.5


def test_fig15_oosi_as_is_the_best_split_on_average(quick_session):
    for r in fig15(quick_session):
        if r["workload"] == "avg":
            assert r["OOSI AS"] >= r["COSI AS"] - 1.0


def test_fig16_split_narrows_the_op_merge_gap(quick_session):
    """Fig. 16: op-level merging beats cluster-level merging, and
    split-issue narrows the gap."""
    ipc = {(r["threads"], r["policy"]): r["ipc"]
           for r in fig16(quick_session)}
    for nt in (2, 4):
        assert ipc[nt, "SMT"] > ipc[nt, "CSMT"] * 0.98
        gap_before = ipc[nt, "SMT"] / ipc[nt, "CSMT"]
        gap_after = ipc[nt, "SMT"] / ipc[nt, "CCSI AS"]
        assert gap_after <= gap_before + 0.02
