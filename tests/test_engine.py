"""The engine layer: session memoisation, disk cache, parallel sweeps,
hooks, and stats serialization (repro.engine)."""


import pytest

from repro.arch.config import CacheConfig, MachineConfig, PAPER_MACHINE
from repro.engine import (
    CycleRecorder,
    ExperimentScale,
    ResultCache,
    RetireLog,
    SimulationSession,
)
from repro.engine.cache import cache_key
from repro.pipeline.processor import Processor, SimParams, run_single_thread
from repro.pipeline.stats import SimStats

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_500, timeslice=800
)
SMALLER = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_000, timeslice=800
)


@pytest.fixture(scope="module")
def session():
    return SimulationSession(TINY)


# --------------------------------------------------------------- session
def test_session_memoises(session):
    a = session.run("SMT", "llll", 2)
    b = session.run("SMT", "llll", 2)
    assert a is b
    assert session.simulations >= 1


def test_session_accepts_member_tuple(session):
    by_name = session.run("SMT", "llll", 2)
    by_members = session.run(
        "SMT", ("mcf", "bzip2", "blowfish", "gsmencode"), 2
    )
    assert by_members is by_name


def test_run_single_matches_legacy_helper(session):
    """The session's ST baseline must reproduce run_single_thread
    bit-for-bit (Fig. 13a continuity across the engine refactor)."""
    from repro.kernels.suite import get_trace

    tr = get_trace("mcf", TINY.kernel_scale, session.cfg)
    legacy = run_single_thread(tr, session.cfg)
    via_engine = session.run_single("mcf")
    assert via_engine.cycles == legacy.cycles
    assert via_engine.operations == legacy.operations


# ------------------------------------------------------------ disk cache
def test_cache_miss_then_hit(tmp_path):
    s1 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    r1 = s1.run("SMT", "llll", 2)
    assert s1.simulations == 1
    assert s1.cache.misses == 1 and s1.cache.hits == 0

    s2 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    r2 = s2.run("SMT", "llll", 2)
    assert s2.simulations == 0
    assert s2.cache.hits == 1
    assert (r2.cycles, r2.operations, r2.instructions) == (
        r1.cycles, r1.operations, r1.instructions,
    )
    assert r2.packet_threads == r1.packet_threads
    assert {n: b.instructions for n, b in r2.per_bench.items()} == {
        n: b.instructions for n, b in r1.per_bench.items()
    }


def test_cache_invalidated_by_machine_config(tmp_path):
    s1 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    s1.run("SMT", "llll", 2)

    slow_mem = MachineConfig(dcache=CacheConfig(miss_penalty=50))
    s2 = SimulationSession(TINY, cfg=slow_mem, cache_dir=tmp_path / "c")
    s2.run("SMT", "llll", 2)
    assert s2.simulations == 1  # different machine ⇒ no reuse


def test_cache_invalidated_by_scale_change(tmp_path):
    s1 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    s1.run("SMT", "llll", 2)

    s2 = SimulationSession(SMALLER, cache_dir=tmp_path / "c")
    s2.run("SMT", "llll", 2)
    assert s2.simulations == 1  # different params ⇒ no reuse


def test_cache_key_sensitivity():
    params = SimParams()
    base = cache_key(PAPER_MACHINE, params, "SMT", ("a",), ("f1",), 2)
    assert cache_key(PAPER_MACHINE, params, "SMT", ("a",), ("f1",), 2) == base
    assert cache_key(PAPER_MACHINE, params, "CSMT", ("a",), ("f1",), 2) != base
    assert cache_key(PAPER_MACHINE, params, "SMT", ("a",), ("f2",), 2) != base
    assert cache_key(PAPER_MACHINE, params, "SMT", ("a",), ("f1",), 4) != base


def test_result_cache_survives_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = "ab" + "0" * 62
    cache.put(key, SimStats(cycles=10, operations=20))
    path = cache._path(key)
    path.write_text("{ not json")
    assert cache.get(key) is None
    # valid JSON, right version, but a malformed payload: also a miss
    path.write_text('{"version": 1, "stats": {"cycles": 3}}')
    assert cache.get(key) is None


# ---------------------------------------------------------- parallelism
def test_sweep_parallel_matches_serial(tmp_path):
    """Same seed ⇒ bit-identical counters, serial vs --jobs 2."""
    policies = ["CSMT", "SMT", "CCSI AS"]
    workloads = ["llll", "hhhh"]

    serial = SimulationSession(TINY)
    rs = serial.sweep(policies=policies, workloads=workloads, n_threads=(2,))

    parallel = SimulationSession(TINY, jobs=2)
    rp = parallel.sweep(policies=policies, workloads=workloads, n_threads=(2,))

    assert set(rs) == set(rp)
    for k in rs:
        assert rs[k].ipc == rp[k].ipc, k
        assert rs[k].cycles == rp[k].cycles, k
        assert rs[k].operations == rp[k].operations, k
        assert rs[k].split_instructions == rp[k].split_instructions, k
        assert rs[k].context_switches == rp[k].context_switches, k


def test_warm_sweep_runs_zero_simulations(tmp_path):
    policies = ["CSMT", "SMT"]
    workloads = ["llll"]
    s1 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    s1.sweep(policies=policies, workloads=workloads, n_threads=(2,))
    assert s1.simulations == 2

    s2 = SimulationSession(TINY, cache_dir=tmp_path / "c", jobs=2)
    out = s2.sweep(policies=policies, workloads=workloads, n_threads=(2,))
    assert s2.simulations == 0
    assert len(out) == 2


def test_pool_respawned_for_new_kernels(tmp_path, monkeypatch):
    """Each sweep forks pools of its own, and its simulation workers
    get trace bundles and verified loops only by fork: in every pooled
    sweep, a second one over new kernels included, each kernel is
    recorded once and never by a process that simulates, each loop is
    verified in the parent, a worker's inherited trace memo already
    holds every member of its cell, and no child outlives its sweep."""
    import multiprocessing
    import os

    from repro.analysis import loopcheck
    from repro.engine.session import Cell
    from repro.kernels import suite
    from repro.pipeline import specialize

    log = tmp_path / "calls"

    def logged(event, real, detail=lambda *a: "-"):
        def wrapper(*a, **k):
            with open(log, "a") as f:
                f.write(f"{event} {os.getpid()} {detail(*a)}\n")
            return real(*a, **k)

        return wrapper

    def memoised(cell, *_):
        return all(
            suite._memo_key(n, cell.kernel_scale, cell.cfg)
            in suite._trace_cache
            for n in cell.members
        )

    # patched before any pool forks: a child that was not forked from
    # this process (another start method) would not log its calls
    monkeypatch.setattr(suite, "record_trace", logged(
        "record", suite.record_trace, lambda program, *_: program.name
    ))
    monkeypatch.setattr(
        loopcheck, "check_source", logged("check", loopcheck.check_source)
    )
    monkeypatch.setattr(
        Cell, "simulate", logged("simulate", Cell.simulate, memoised)
    )
    suite.clear_trace_cache()
    specialize.clear_cache()
    s = SimulationSession(TINY, jobs=2)
    parent = str(os.getpid())
    checked = set()
    for workload in ("llll", "mmmm"):
        log.write_text("")
        s.sweep(policies=["SMT", "CSMT"], workloads=[workload],
                n_threads=(2,))
        assert multiprocessing.active_children() == []
        calls: dict[str, list] = {}
        for line in log.read_text().splitlines():
            event, pid, detail = line.split()
            calls.setdefault(event, []).append((pid, detail))
        recorded = sorted(name for _, name in calls["record"])
        assert recorded == sorted(set(s.cell("SMT", workload, 2).members))
        simulating = {pid for pid, _ in calls["simulate"]}
        assert len(calls["simulate"]) == 2
        assert parent not in simulating
        assert not simulating & {pid for pid, _ in calls["record"]}
        # the second sweep's loop shapes are the first's, memoised
        checked |= {pid for pid, _ in calls.get("check", ())}
        assert {memo for _, memo in calls["simulate"]} == {"True"}
    assert checked == {parent}
    assert s.simulations == 4


def _trace_memo() -> dict:
    """A copy of the process trace memo, emptied for the next sweep."""
    from repro.kernels import suite

    memo = dict(suite._trace_cache)
    suite.clear_trace_cache()
    return memo


def test_recorded_bundles_equal_serial_ones():
    """A pooled sweep's bundles, unpickled from its recorders through
    the constructors, equal the ones a serial sweep records: every
    static-table field (derived ones included), the dynamic trace,
    the address columns and the fingerprint."""
    import dataclasses

    from repro.kernels import suite

    specs = dict(policies=["OOSI AS"], workloads=["llhh", "mmmm"],
                 n_threads=(2,))
    suite.clear_trace_cache()
    SimulationSession(TINY, jobs=2).sweep(**specs)
    pooled = _trace_memo()
    SimulationSession(TINY).sweep(**specs)
    serial = _trace_memo()
    assert pooled.keys() == serial.keys() and len(serial) == 8
    for key, want in serial.items():
        got = pooled[key]
        assert got is not want
        assert (got.name, got.fingerprint(), got.length, got.total_ops) == (
            want.name, want.fingerprint(), want.length, want.total_ops
        )
        assert got.idx == want.idx and got.taken == want.taken
        assert got.addr_cols == want.addr_cols
        for f in dataclasses.fields(want.static):
            assert getattr(got.static, f.name) == getattr(
                want.static, f.name
            ), f.name
        # the constructor interned the (usage, mem bit) pairs
        assert all(
            g is w
            for gs, ws in zip(got.static.ops_use, want.static.ops_use)
            for g, w in zip(gs, ws)
        )
        assert not hasattr(got, "program")


def test_killed_recorder_falls_back_to_parent(tmp_path, monkeypatch):
    """A recorder that dies mid-recording (``os._exit``) breaks only
    the recorders' pool: this process records the rest, and the
    sweep's results and fingerprints equal a serial sweep's, with no
    child process left behind."""
    import multiprocessing
    import os

    from repro.kernels import suite

    specs = dict(policies=["SMT", "CCSI AS"], workloads=["llhh"],
                 n_threads=(2, 4))
    parent = os.getpid()
    victim = SimulationSession(TINY).cell("SMT", "llhh", 2).members[1]
    real = suite.record_trace
    in_parent = []

    def dying(program, *a, **k):
        if os.getpid() != parent:
            if program.name == victim:
                os._exit(3)
        else:
            in_parent.append(program.name)
        return real(program, *a, **k)

    suite.clear_trace_cache()
    serial = SimulationSession(TINY, cache_dir=str(tmp_path / "serial"))
    want = serial.sweep(**specs)
    want_prints = {k: b.fingerprint() for k, b in _trace_memo().items()}

    monkeypatch.setattr(suite, "record_trace", dying)
    pooled = SimulationSession(
        TINY, cache_dir=str(tmp_path / "pooled"), jobs=2
    )
    got = pooled.sweep(**specs)
    assert multiprocessing.active_children() == []
    assert victim in in_parent
    assert {k: s.to_dict() for k, s in got.items()} == {
        k: s.to_dict() for k, s in want.items()
    }
    assert {
        k: b.fingerprint() for k, b in _trace_memo().items()
    } == want_prints
    info = pooled.cache_stats()
    assert info["traces_recorded"] == len(want_prints) == 4
    assert info["simulations"] == 4 and info["failures"] == 0


# ---------------------------------------------------------------- hooks
def test_hooks_observe_run(session):
    rec = CycleRecorder(limit=100)
    log = RetireLog()
    cell = SimulationSession(TINY).cell("SMT", "llll", 2)
    stats = cell.simulate(hooks=[rec, log])[0]
    assert len(rec.samples) == 100
    assert sum(log.by_bench.values()) == stats.instructions
    assert log.context_switches == stats.context_switches
    # hooks must not perturb the simulation itself
    baseline = session.run("SMT", "llll", 2)
    assert stats.cycles == baseline.cycles
    assert stats.operations == baseline.operations


def test_hooks_attach_to_processor_directly(tiny_traces):
    from repro.core.policies import SMT

    log = RetireLog()
    proc = Processor(
        SMT, tiny_traces, 2, PAPER_MACHINE,
        SimParams(target_instructions=500, timeslice=0, seed=7),
        hooks=[log],
    )
    s = proc.run()
    assert sum(log.by_bench.values()) == s.instructions
    assert set(log.by_slot) <= {0, 1}


# -------------------------------------------------------- serialization
def test_simstats_roundtrip(session):
    s = session.run("CCSI AS", "llhh", 4)
    d = s.to_dict()
    back = SimStats.from_dict(d)
    assert back.ipc == s.ipc
    assert back.packet_threads == s.packet_threads
    assert back.horizontal_waste == s.horizontal_waste
    assert {n: b.to_dict() for n, b in back.per_bench.items()} == {
        n: b.to_dict() for n, b in s.per_bench.items()
    }
    import json

    json.dumps(d)  # must be JSON-safe


def test_trace_fingerprint_stable_and_distinct(session):
    from repro.kernels.suite import get_trace

    a1 = get_trace("mcf", TINY.kernel_scale, session.cfg)
    assert a1.fingerprint() == a1.fingerprint()
    b = get_trace("bzip2", TINY.kernel_scale, session.cfg)
    assert a1.fingerprint() != b.fingerprint()
    bigger = get_trace("mcf", 0.12, session.cfg)
    assert a1.fingerprint() != bigger.fingerprint()
