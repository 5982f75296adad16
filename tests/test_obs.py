"""The repro.obs observability layer: cycle attribution, trace export,
and engine telemetry.

The load-bearing guarantee is the attribution identity: an attribution
run (reference loop + slot accounting) must (a) account every
issue-slot × cycle exactly once — ``sum(categories) == cycles *
issue_width`` with ``useful == operations`` — and (b) leave every
ordinary counter bit-identical to the specialised and fast tiers,
across the same policy × machine × memory × nt matrix that gates those
tiers.  Everything else (trace JSON shape, telemetry provenance, CLI
plumbing) is the reporting surface on top.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.arch.config import get_memory_config
from repro.arch.scenarios import MACHINE_PRESETS
from repro.compiler.pipeline import compile_kernel
from repro.core.policies import ALL_POLICIES, BY_NAME
from repro.engine import ExperimentScale, SimulationSession
from repro.obs import (
    TraceExporter,
    attribution_bar,
    attribution_fractions,
    check_attribution,
    load_jsonl,
    render_summary,
    render_why,
    summarize,
    validate_trace_document,
    why_rows,
)
from repro.pipeline.processor import Processor, SimParams
from repro.pipeline.stats import ATTRIBUTION_CATEGORIES, SimStats
from repro.pipeline.trace import record_trace

from _kernels import make_axpy, make_wide

MACHINES = ("paper", "narrow", "wide")
MEMORIES = ("paper", "l2", "l2+mshr", "slow-dram")

#: tiny scale for session-level tests (traces memoised per process)
TINY = ExperimentScale(
    kernel_scale=0.3, target_instructions=1_500, timeslice=700
)

_trace_memo: dict = {}


def traces_for(machine: str):
    traces = _trace_memo.get(machine)
    if traces is None:
        cfg = MACHINE_PRESETS[machine].machine
        traces = [
            record_trace(compile_kernel(make_axpy(), cfg=cfg).program, cfg),
            record_trace(compile_kernel(make_wide(), cfg=cfg).program, cfg),
        ]
        _trace_memo[machine] = traces
    return traces


# ------------------------------------------------- attribution identity
@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize(
    "policy", [p.name for p in ALL_POLICIES], ids=lambda p: p.replace(" ", "-")
)
def test_attribution_invariant_and_identity_matrix(policy, machine):
    """Every cell of the tier bit-identity matrix: the attributed
    reference run balances exactly and matches the specialised tier on
    every ordinary counter."""
    base = MACHINE_PRESETS[machine].machine
    traces = traces_for(machine)
    for memory in MEMORIES:
        cfg = replace(base, memory=get_memory_config(memory))
        for nt in (1, 2, 4):
            params = SimParams(
                target_instructions=1_000, timeslice=400, seed=11
            )
            ap = Processor(
                BY_NAME[policy], traces, nt, cfg, params, attribute=True
            )
            attributed = ap.run()
            assert ap.loop_used == "reference", (machine, memory, nt)
            a = check_attribution(attributed)  # raises on imbalance
            assert a["slots"] == cfg.issue_width
            assert a["cycles"] == attributed.cycles
            assert a["loop_used"] == "reference"

            sp = Processor(BY_NAME[policy], traces, nt, cfg, params)
            plain = sp.run()
            da, dp = attributed.to_dict(), plain.to_dict()
            assert da.pop("attribution") and dp.pop("attribution") == {}
            assert da == dp, (machine, memory, nt)


def test_attribution_empty_on_plain_runs():
    traces = traces_for("paper")
    cfg = MACHINE_PRESETS["paper"].machine
    params = SimParams(target_instructions=1_000, timeslice=400, seed=11)
    s = Processor(BY_NAME["SMT"], traces, 2, cfg, params).run()
    assert s.attribution == {}
    assert s.attribution_balance() == 0
    # and the serialized form round-trips the empty block
    assert SimStats.from_dict(s.to_dict()).attribution == {}
    with pytest.raises(ValueError):
        check_attribution(s)


def test_attribution_fractions_and_bar():
    traces = traces_for("paper")
    cfg = MACHINE_PRESETS["paper"].machine
    params = SimParams(target_instructions=1_000, timeslice=400, seed=11)
    p = Processor(BY_NAME["CCSI AS"], traces, 4, cfg, params,
                  attribute=True)
    f = attribution_fractions(p.run())
    assert set(f) == set(ATTRIBUTION_CATEGORIES)
    assert abs(sum(f.values()) - 1.0) < 1e-9
    bar = attribution_bar(f, width=40)
    assert len(bar) == 40


def test_session_attribute_memoised_and_cache_isolated(tmp_path):
    """An attribution run simulates the session's cell itself: its
    counters equal a plain run's, and nothing lands in the memo or the
    store (a populated attribution block in a shared entry would leak
    into plain runs)."""
    session = SimulationSession(TINY, cache_dir=str(tmp_path / "c"))
    row, = why_rows(session, ["SMT"], "llll", 2)
    attributed, proc = session.cell("SMT", "llll", 2).simulate(
        session.cache, attribute=True
    )
    assert proc.loop_used == "reference"
    check_attribution(attributed)
    assert session.simulations == 0
    assert session.cache.stores == 0  # nothing persisted
    assert session.cache_stats()["memo_entries"] == 0
    plain = session.run("SMT", "llll", 2)
    assert plain.attribution == {}
    assert session.simulations == 1
    assert session.cache.stores == 1
    # counters agree between the attributed and plain result
    da, dp = attributed.to_dict(), plain.to_dict()
    da.pop("attribution"), dp.pop("attribution")
    assert da == dp
    assert (row["ipc"], row["cycles"]) == (plain.ipc, plain.cycles)


def test_why_rows_and_render():
    session = SimulationSession(TINY)
    rows = why_rows(session, ["SMT", "CCSI AS"], "llll", 2)
    assert [r["policy"] for r in rows] == ["SMT", "CCSI AS"]
    for r in rows:
        assert r["loop_used"] == "reference"
        assert abs(sum(r["fractions"].values()) - 1.0) < 1e-9
    text = render_why(rows)
    assert "attribution invariant: OK" in text
    assert "SMT" in text and "CCSI AS" in text


# ------------------------------------------------------- trace export
def test_trace_exporter_document_shape():
    exporter = TraceExporter(counter_every=50)
    cell = SimulationSession(TINY).cell("CCSI AS", "llll", 2)
    stats = cell.simulate(hooks=[exporter])[0]
    doc = exporter.to_document()
    json.loads(json.dumps(doc))  # serializable as-is
    n = validate_trace_document(doc)
    assert n == len(doc["traceEvents"]) - sum(
        1 for e in doc["traceEvents"] if e["ph"] == "M"
    )
    # per-thread metadata tracks
    thread_names = [
        e for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert len(thread_names) == 2
    # retire events stay on declared tracks, and switch instants match
    retires = [e for e in doc["traceEvents"] if e.get("cat") == "retire"]
    assert retires and all(e["tid"] in (0, 1) for e in retires)
    switches = [e for e in doc["traceEvents"] if e.get("cat") == "sched"]
    assert len(switches) == stats.context_switches
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters, "counter_every should emit counter samples"
    assert doc["otherData"]["cycles"] == stats.cycles
    assert doc["otherData"]["truncated"] is False


def test_trace_exporter_cap_and_write(tmp_path):
    exporter = TraceExporter(limit=25)
    SimulationSession(TINY).cell("SMT", "llll", 2).simulate(
        hooks=[exporter]
    )
    assert exporter.truncated
    non_meta = [e for e in exporter.events if e["ph"] != "M"]
    assert len(non_meta) == 25
    out = exporter.write(tmp_path / "t.json")
    doc = json.loads(out.read_text())
    assert doc["otherData"]["truncated"] is True
    validate_trace_document(doc)


def test_traced_run_bit_identical():
    cell = SimulationSession(TINY).cell("CCSI AS", "llll", 2)
    hs = cell.simulate(hooks=[TraceExporter()])[0]
    ps = SimulationSession(TINY).run("CCSI AS", "llll", 2)
    assert hs.to_dict() == ps.to_dict()


# --------------------------------------------------------- telemetry
def test_telemetry_sources_and_jsonl(tmp_path):
    cache = str(tmp_path / "cache")
    jsonl = tmp_path / "tel.jsonl"
    cold = SimulationSession(TINY, cache_dir=cache,
                             telemetry=str(jsonl))
    cold.run("SMT", "llll", 2)
    cold.run("SMT", "llll", 2)  # memo hit
    warm = SimulationSession(TINY, cache_dir=cache,
                             telemetry=str(jsonl))
    warm.run("SMT", "llll", 2)  # disk hit

    assert [r["source"] for r in cold.telemetry.records] == [
        "simulated", "memo",
    ]
    assert [r["source"] for r in warm.telemetry.records] == ["disk"]
    sim = cold.telemetry.records[0]
    assert sim["wall_s"] > 0
    assert cold.memo_hits == 1 and warm.memo_hits == 0

    # the JSONL file accumulated all three records across sessions
    records = load_jsonl(jsonl)
    assert [r["source"] for r in records] == ["simulated", "memo", "disk"]
    s = summarize(records)
    assert s["cells"] == 3
    assert s["sources"] == {
        "memo": 1, "disk": 1, "simulated": 1, "failed": 0,
    }
    assert s["wall_p50_s"] == sim["wall_s"]


def test_telemetry_parallel_workers():
    """Pooled cells come home with the worker's telemetry record; the
    parent ledger ends up covering every cell with worker PIDs."""
    import os

    session = SimulationSession(TINY, jobs=2)
    results = session.sweep(
        policies=["SMT", "CSMT"], workloads=["llll"], n_threads=(2,)
    )
    assert len(results) == 2
    records = session.telemetry.records
    assert len(records) == 2
    assert all(r["source"] == "simulated" for r in records)
    workers = {r["worker"] for r in records}
    assert os.getpid() not in workers, "cells should run in the pool"


def test_digest_reports_pool_busy_only_for_pooled_sweeps():
    """A pooled sweep's digest line names how busy its workers were
    (cell wall over jobs × the pool phase's wall); a serial one does
    not."""
    kw = dict(policies=["SMT", "CSMT"], workloads=["llll"],
              n_threads=(2,))
    pooled = SimulationSession(TINY, jobs=2)
    pooled.sweep(**kw)
    (jobs, wall, busy), = pooled.telemetry.pool_phases
    assert jobs == 2 and wall > 0
    assert busy == pytest.approx(
        sum(r["wall_s"] for r in pooled.telemetry.records)
    )
    summary = pooled.telemetry.summary()
    assert summary["pool_busy"] == pytest.approx(busy / (2 * wall))
    assert 0 < summary["pool_busy"] <= 1
    # the first forked worker may take both cells before the second
    # starts, so the digest names the PIDs that really simulated
    pids = {
        r["worker"] for r in pooled.telemetry.records
        if r["source"] == "simulated"
    }
    assert len(pids) in (1, 2)
    assert summary["workers"] == len(pids)
    head = render_summary(summary).splitlines()[0]
    assert head.endswith(
        f"({len(pids)} worker{'s' if len(pids) != 1 else ''}, "
        f"pool busy {100 * summary['pool_busy']:.0f}%)"
    )

    serial = SimulationSession(TINY)
    serial.sweep(**kw)
    summary = serial.telemetry.summary()
    assert summary["pool_busy"] is None
    assert "pool busy" not in render_summary(summary)


def test_digest_counts_only_simulating_workers(tmp_path):
    """A pooled sweep over a partly filled store: the parent resolves
    the disk hits under its own PID, and the digest counts only the
    PIDs that simulated, so it names at most the pool's 2 workers."""
    import os

    cache = str(tmp_path / "c")
    kw = dict(workloads=["llll"], n_threads=(2,))
    SimulationSession(TINY, cache_dir=cache).sweep(policies=["SMT"], **kw)
    pooled = SimulationSession(TINY, jobs=2, cache_dir=cache)
    pooled.sweep(policies=["SMT", "CSMT", "CCSI AS", "OOSI AS"], **kw)
    records = pooled.telemetry.records
    assert [r["worker"] for r in records if r["source"] == "disk"] == [
        os.getpid()
    ]
    pids = {r["worker"] for r in records if r["source"] == "simulated"}
    assert os.getpid() not in pids
    summary = pooled.telemetry.summary()
    assert summary["sources"]["simulated"] == 3
    assert summary["workers"] == len(pids) <= 2
    head = render_summary(summary).splitlines()[0]
    assert f"({len(pids)} worker" in head


def test_cache_stats_counters(tmp_path):
    session = SimulationSession(TINY, cache_dir=str(tmp_path / "c"))
    session.run("SMT", "llll", 2)
    info = session.cache_stats()
    assert info["simulations"] == 1
    assert info["disk_stores"] == 1
    assert info["memo_hits"] == 0
    session.run("SMT", "llll", 2)
    assert session.cache_stats()["memo_hits"] == 1


# -------------------------------------------------------------- CLI
def test_cli_why_smoke(capsys):
    from repro.cli import main

    rc = main(["--quick", "why", "--policies", "SMT", "--workload",
               "llll", "--threads", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "attribution invariant: OK" in out
    assert "reference loop" in out


def test_cli_trace_smoke(tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "trace.json"
    rc = main(["--quick", "trace", "--policy", "SMT", "--workload",
               "llll", "--threads", "2", "--out", str(out_path),
               "--limit", "500"])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    validate_trace_document(doc)


def test_cli_trace_leaves_the_store_untouched(tmp_path, capsys):
    """`repro trace` simulates its cell in-process and has no use for
    the result store: given ``--cache-dir`` it exits 2 before it reads
    or writes the store or the fingerprint index."""
    from repro.cli import main

    cache = str(tmp_path / "c")
    with pytest.raises(SystemExit) as exc:
        main(["--quick", "--cache-dir", cache, "trace", "--policy",
              "SMT", "--workload", "llll", "--threads", "2", "--out",
              str(tmp_path / "trace.json"), "--limit", "500"])
    assert exc.value.code == 2
    assert "--cache-dir has no effect" in capsys.readouterr().err
    assert not (tmp_path / "trace.json").exists()
    assert main(["--cache-dir", cache, "cache", "verify"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("0 ok, ") and "; index: 0 ok, " in out


def test_cli_stats_smoke(tmp_path, capsys):
    from repro.cli import main

    jsonl = tmp_path / "tel.jsonl"
    rc = main(["--quick", "--telemetry", str(jsonl), "run",
               "--policy", "SMT", "--workload", "llll",
               "--threads", "2"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["stats", str(jsonl)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out and "simulated" in out
    # and an empty/missing file is a clean error, not a traceback
    assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2


def test_cli_fig_why_smoke(capsys):
    from repro.cli import main

    rc = main(["--quick", "fig", "why", "--workload", "llll",
               "--threads", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fig. why" in out and "|" in out


def test_cli_verbose_quiet_flags(capsys, tmp_path):
    from repro.cli import main

    # --quiet drops the sweep diagnostics from stderr
    rc = main(["--quick", "-q", "sweep", "--policies", "SMT",
               "--workloads", "llll", "--threads", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "simulated" not in captured.err
    # default keeps them (scripts grep these)
    rc = main(["--quick", "sweep", "--policies", "SMT",
               "--workloads", "llll", "--threads", "2"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "simulated" in err and "from disk cache" in err
    assert "telemetry:" in err
    # verbose tags records with the worker PID
    rc = main(["--quick", "-v", "sweep", "--policies", "SMT",
               "--workloads", "llll", "--threads", "2"])
    assert rc == 0
    assert "[w" in capsys.readouterr().err


def test_cli_profile_out(tmp_path, capsys):
    from repro.cli import main

    pstats_path = tmp_path / "prof.pstats"
    rc = main(["--quick", "profile", "--workload", "llll", "--threads",
               "2", "--top", "3", "--out", str(pstats_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "loop" in out  # profiled engine tier in the header
    import pstats

    pstats.Stats(str(pstats_path))  # loads as a valid profile

    txt_path = tmp_path / "prof.txt"
    rc = main(["--quick", "profile", "--workload", "llll", "--threads",
               "2", "--top", "3", "--out", str(txt_path)])
    assert rc == 0
    text = txt_path.read_text()
    assert "loop" in text and "cumulative" in text
