"""Fault-tolerant sweep engine under injected chaos
(repro.engine.runner + repro.engine.faults): crashes retry, hangs time
out, exhausted cells become recorded failures, resumed sweeps
re-simulate exactly the lost cells — and every surviving result stays
bit-identical to the fault-free run."""

import pytest

from repro.engine import (
    ExperimentScale,
    SimulationSession,
    SweepAborted,
)
from repro.engine.runner import RetryPolicy

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_500, timeslice=800
)

POLICIES = ["CSMT", "SMT"]
WORKLOADS = ["llll"]
THREADS = (2,)

#: fast-failing knobs so chaos tests don't sit in backoff sleeps
FAST = dict(backoff_s=0.01)


def tiny_sweep(session, **kw):
    return session.sweep(
        policies=POLICIES, workloads=WORKLOADS, n_threads=THREADS, **kw
    )


def counters(results):
    return {
        k: (s.cycles, s.operations, s.instructions)
        for k, s in results.items()
    }


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial ground truth for the tiny matrix."""
    return counters(tiny_sweep(SimulationSession(TINY)))


# -------------------------------------------------------------- crashes
def test_transient_worker_crash_is_retried(baseline):
    """A worker that dies once takes the pool down with it; the pool
    respawns and the retried cell lands bit-identically."""
    s = SimulationSession(
        TINY, jobs=2,
        retry=RetryPolicy(**FAST),
        fault_plan="crash@CSMT/llll/2#1",
    )
    results = tiny_sweep(s)
    assert s.failures == []
    assert counters(results) == baseline


def test_transient_crash_serial(baseline):
    """In-process, an injected crash raises InjectedCrash instead of
    killing the test process; the retry succeeds."""
    s = SimulationSession(
        TINY, jobs=1,
        retry=RetryPolicy(retries=1, **FAST),
        fault_plan="crash@CSMT/llll/2#1",
    )
    results = tiny_sweep(s)
    assert s.failures == []
    assert counters(results) == baseline


def test_persistent_crash_becomes_recorded_failure(baseline):
    """A cell that crashes on every attempt exhausts its budget and is
    recorded — the innocent cell still completes bit-identically."""
    s = SimulationSession(
        TINY, jobs=2,
        retry=RetryPolicy(retries=0, pool_death_limit=1, **FAST),
        fault_plan="crash@CSMT/llll/2#*",
    )
    results = tiny_sweep(s)
    assert len(s.failures) == 1
    f = s.failures[0]
    assert f.cell == "CSMT/llll/2"
    assert f.category == "crash"
    assert f.attempts >= 1
    assert ("CSMT", "llll", 2) not in results
    got = counters(results)
    assert got == {
        k: v for k, v in baseline.items() if k != ("CSMT", "llll", 2)
    }


def test_crash_refunds_cells_queued_behind_running_ones(monkeypatch):
    """Without a cell timeout the pool keeps one queued cell per worker,
    so 4 cells ride 2 workers.  A crash charges the 2 running ones (the
    oldest, since dispatch is FIFO); the 2 queued behind them are
    refunded and keep attempt 1."""
    from repro.engine import runner

    adopted = {}
    real = runner._MatrixRun.adopt

    def spy(self, cell, stats, attempt, telemetry):
        adopted[cell.spec] = attempt
        return real(self, cell, stats, attempt, telemetry)

    monkeypatch.setattr(runner._MatrixRun, "adopt", spy)
    s = SimulationSession(
        TINY, jobs=2,
        retry=RetryPolicy(**FAST),
        fault_plan="crash@SMT/llll/2#1",
    )
    s.sweep(policies=["SMT", "CSMT"], workloads=["llll", "hhhh"],
            n_threads=THREADS)
    assert s.failures == []
    assert adopted == {
        ("SMT", "llll", 2): 2,   # crashed
        ("SMT", "hhhh", 2): 2,   # running beside it
        ("CSMT", "llll", 2): 1,  # queued: refunded
        ("CSMT", "hhhh", 2): 1,
    }


def test_failure_lands_in_telemetry(tmp_path):
    s = SimulationSession(
        TINY, jobs=1,
        retry=RetryPolicy(retries=0, **FAST),
        fault_plan="crash@CSMT/llll/2#*",
    )
    tiny_sweep(s)
    failed = [
        r for r in s.telemetry.records if r.get("source") == "failed"
    ]
    assert len(failed) == 1
    assert failed[0]["error"] == "crash"
    assert failed[0]["attempts"] == 1
    assert s.cache_stats()["failures"] == 1
    summary = s.telemetry.summary()
    assert summary["sources"]["failed"] == 1
    assert summary["failure_categories"] == {"crash": 1}


def test_strict_mode_aborts(baseline):
    s = SimulationSession(
        TINY, jobs=1,
        retry=RetryPolicy(retries=0, max_failures=0, **FAST),
        fault_plan="crash@CSMT/llll/2#*",
    )
    with pytest.raises(SweepAborted) as exc:
        tiny_sweep(s)
    assert len(exc.value.failures) == 1
    assert exc.value.failures[0].cell == "CSMT/llll/2"


# --------------------------------------------------------------- hangs
def test_hung_worker_times_out(monkeypatch, baseline):
    """A hung cell trips its per-cell deadline: the pool is killed, the
    cell is failed as a timeout, bystanders are refunded and finish."""
    monkeypatch.setenv("REPRO_FAULTS_HANG_S", "10")
    s = SimulationSession(
        TINY, jobs=2,
        retry=RetryPolicy(
            cell_timeout=1.0, retries=0, pool_death_limit=2, **FAST
        ),
        fault_plan="hang@CSMT/llll/2#*",
    )
    results = tiny_sweep(s)
    assert [f.category for f in s.failures] == ["timeout"]
    assert s.failures[0].cell == "CSMT/llll/2"
    got = counters(results)
    assert got == {
        k: v for k, v in baseline.items() if k != ("CSMT", "llll", 2)
    }


# -------------------------------------------------------------- resume
def test_resume_resimulates_only_the_failed_cell(tmp_path, baseline):
    crashy = SimulationSession(
        TINY, jobs=2, cache_dir=tmp_path / "c",
        retry=RetryPolicy(retries=0, pool_death_limit=1, **FAST),
        fault_plan="crash@CSMT/llll/2#*",
    )
    tiny_sweep(crashy)
    assert len(crashy.failures) == 1
    # the journal remembers the failure
    outcomes = crashy.journal.load()
    statuses = sorted(r["status"] for r in outcomes.values())
    assert statuses == ["done", "failed"]

    healed = SimulationSession(TINY, cache_dir=tmp_path / "c")
    results = tiny_sweep(healed, resume=True)
    assert healed.failures == []
    assert healed.simulations == 1  # only the lost cell
    assert counters(results) == baseline
    # and the journal now says done everywhere
    assert all(
        r["status"] == "done" for r in healed.journal.load().values()
    )


def test_corrupt_store_entry_heals_on_rerun(tmp_path, baseline):
    """An entry torn mid-write is quarantined on the warm rerun and
    exactly that one cell re-simulates, bit-identically."""
    torn = SimulationSession(
        TINY, cache_dir=tmp_path / "c",
        retry=RetryPolicy(**FAST),
        fault_plan="corrupt@SMT/llll/2#*",
    )
    tiny_sweep(torn)
    assert torn.failures == []  # corruption is a store event, not a
    # cell failure: results came back fine

    warm = SimulationSession(TINY, cache_dir=tmp_path / "c")
    results = tiny_sweep(warm)
    assert warm.cache.quarantined == 1
    assert warm.simulations == 1  # only the torn cell
    assert counters(results) == baseline


def test_enospc_store_still_returns_results(tmp_path, baseline):
    """A store that cannot persist one cell degrades to a slower rerun,
    never a failed sweep."""
    s = SimulationSession(
        TINY, cache_dir=tmp_path / "c",
        retry=RetryPolicy(**FAST),
        fault_plan="enospc@CSMT/llll/2#*",
    )
    results = tiny_sweep(s)
    assert s.failures == []
    assert s.cache.put_errors == 1
    assert counters(results) == baseline

    # the unpersisted cell re-simulates on the next session; the
    # persisted one comes from disk
    rerun = SimulationSession(TINY, cache_dir=tmp_path / "c")
    tiny_sweep(rerun)
    assert rerun.simulations == 1
    assert rerun.cache.hits == 1


# ------------------------------------------------------- bit identity
def test_chaos_matrix_stays_bit_identical(tmp_path, baseline):
    """The full gauntlet: serial-with-crash, parallel-with-crash, and a
    resumed run all converge to the fault-free counters."""
    serial = SimulationSession(
        TINY, jobs=1,
        retry=RetryPolicy(retries=2, **FAST),
        fault_plan="crash@CSMT/llll/2#1;crash@SMT/llll/2#2",
    )
    assert counters(tiny_sweep(serial)) == baseline

    parallel = SimulationSession(
        TINY, jobs=2, cache_dir=tmp_path / "c",
        retry=RetryPolicy(retries=2, **FAST),
        fault_plan="crash@SMT/llll/2#1",
    )
    assert counters(tiny_sweep(parallel)) == baseline

    resumed = SimulationSession(TINY, cache_dir=tmp_path / "c")
    assert counters(tiny_sweep(resumed, resume=True)) == baseline
    assert resumed.simulations == 0  # everything from the store
