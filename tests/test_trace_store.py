"""Content-addressed trace store (repro.engine.cache trace bundles +
repro.kernels.suite.get_trace): a process with a store loads trace
bundles instead of re-running the functional VM, result keys stay
byte-identical, and torn bundles are quarantined and re-recorded."""

import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.arch.config import PAPER_MACHINE, get_memory_config
from repro.arch.scenarios import get_scenario
from repro.engine import ExperimentScale, ResultCache, SimulationSession
from repro.engine.cache import TRACE_DIR, cache_key, trace_key
from repro.harness.claims import evaluate_claims
from repro.kernels import suite
from repro.pipeline.trace import record_trace
from repro.vm.machine import VMError

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_200, timeslice=700
)

POLICIES = ["SMT", "CCSI AS"]
WORKLOADS = ["llll", "llhh"]
THREADS = (2,)


def small_sweep(session):
    return session.sweep(
        policies=POLICIES, workloads=WORKLOADS, n_threads=THREADS
    )


def members():
    """The benchmarks ``small_sweep`` runs."""
    from repro.harness.workloads import WORKLOADS as TABLE

    return sorted({m for w in WORKLOADS for m in TABLE[w]})


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Every test starts like a new process: an empty trace memo (the
    suite-wide memo is restored afterwards)."""
    monkeypatch.setattr(suite, "_trace_cache", {})


@pytest.fixture
def recordings(monkeypatch):
    """Names of the programs the functional VM records from now on."""
    names: list[str] = []
    real = suite.record_trace

    def counting(program, cfg, max_instructions=5_000_000):
        names.append(program.name)
        return real(program, cfg, max_instructions)

    monkeypatch.setattr(suite, "record_trace", counting)
    return names


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A store a cold ``claims`` filled: every cell of the matrix and
    all twelve trace bundles, plus the claims it produced."""
    saved = suite._trace_cache
    suite._trace_cache = {}
    try:
        root = tmp_path_factory.mktemp("filled")
        session = SimulationSession(TINY, cache_dir=str(root))
        claims = evaluate_claims(session)
        assert session.cache_stats()["traces_recorded"] == 12
    finally:
        suite._trace_cache = saved
    return root, claims


def copy_store(filled, tmp_path):
    dst = tmp_path / "store"
    shutil.copytree(filled[0], dst)
    return str(dst)


# ------------------------------------------------------------ bundles
def test_round_trip_is_exact(tmp_path):
    program = suite.build_program("mcf", TINY.kernel_scale).program
    recorded = record_trace(program, PAPER_MACHINE)
    store = ResultCache(tmp_path / "c")
    key = trace_key(program, PAPER_MACHINE, 5_000_000)
    store.put_trace(key, recorded)
    loaded = store.get_trace(key, program, PAPER_MACHINE)
    assert loaded is not None and loaded is not recorded
    assert loaded.idx == recorded.idx
    assert loaded.taken == recorded.taken
    assert loaded.addr_rows == recorded.addr_rows
    assert loaded.static == recorded.static
    assert loaded.rotated(1) == recorded.rotated(1)
    assert loaded.fingerprint() == recorded.fingerprint()
    assert (store.trace_hits, store.trace_misses) == (1, 0)
    assert store.trace_count() == 1 and len(store) == 0


def test_store_layout(tmp_path):
    store = ResultCache(tmp_path / "c")
    SimulationSession(TINY, cache_dir=str(store.root)).run(
        "SMT", "llll", 2
    )
    bundles = sorted((store.root / TRACE_DIR).glob("*/*.npz"))
    assert len(bundles) == 4
    # results still count only result entries
    assert len(store) == 1 and store.trace_count() == 4


@pytest.mark.parametrize("foreign", [False, True])
def test_fingerprint_mismatch_is_quarantined(tmp_path, foreign):
    """A well-formed bundle whose arrays do not hash to its stored
    fingerprint — bit rot that keeps the container valid, or another
    program's trace under this key — is never served."""
    mcf = suite.build_program("mcf", TINY.kernel_scale).program
    store = ResultCache(tmp_path / "c")
    key = trace_key(mcf, PAPER_MACHINE, 5_000_000)
    if foreign:
        idct = suite.build_program("idct", TINY.kernel_scale).program
        store.put_trace(key, record_trace(idct, PAPER_MACHINE))
    else:
        bundle = record_trace(mcf, PAPER_MACHINE)
        idx, taken, addrs = bundle.arrays()
        rotten = addrs.copy()
        rotten[-1, 0] += 4
        path = store._trace_path(key)
        path.parent.mkdir(parents=True)
        np.savez(
            path, fingerprint=np.array(bundle.fingerprint()),
            idx=idx, taken=taken, addrs=rotten,
        )
    assert store.get_trace(key, mcf, PAPER_MACHINE) is None
    assert store.trace_quarantined == 1 and store.trace_misses == 1
    assert store.trace_quarantine_count() == 1
    assert store.quarantine_count() == 0  # result quarantine untouched


def test_memo_respects_max_instructions():
    """Regression: the memo ignored the cap, so a second call with a
    smaller one silently returned the first bundle."""
    full = suite.get_trace("mcf", TINY.kernel_scale)
    again = suite.get_trace("mcf", TINY.kernel_scale, max_instructions=10**7)
    assert again is not full
    assert again.fingerprint() == full.fingerprint()
    with pytest.raises(VMError):
        suite.get_trace("mcf", TINY.kernel_scale, max_instructions=10)


def test_memory_presets_share_one_entry(tmp_path, recordings):
    store = ResultCache(tmp_path / "c")
    l2 = replace(PAPER_MACHINE, memory=get_memory_config("l2"))
    suite.get_trace("mcf", TINY.kernel_scale, PAPER_MACHINE, store=store)
    suite._trace_cache.clear()
    suite.get_trace("mcf", TINY.kernel_scale, l2, store=store)
    assert recordings == ["mcf"]
    assert store.trace_count() == 1 and store.trace_hits == 1
    # another scale or machine shape is another program: a miss
    suite.get_trace("mcf", 0.05, PAPER_MACHINE, store=store)
    narrow = get_scenario("narrow").machine
    suite.get_trace("mcf", TINY.kernel_scale, narrow, store=store)
    assert recordings == ["mcf"] * 3
    assert store.trace_count() == 3


# ----------------------------------------------------------- sessions
def test_result_keys_identical_with_and_without_store(filled, tmp_path):
    session = SimulationSession(TINY, cache_dir=copy_store(filled, tmp_path))
    spec = ("CCSI AS", "llhh", 2)
    loaded_key = session.journal_key(spec)
    assert session.cache_stats()["traces_loaded"] == 4
    suite._trace_cache.clear()
    wl = session.workload_members("llhh")
    prints = tuple(
        suite.get_trace(n, TINY.kernel_scale).fingerprint() for n in wl
    )
    recorded_key = cache_key(
        session.cfg, session.params(), "CCSI AS", wl, prints, 2
    )
    assert loaded_key == recorded_key


def test_store_without_traces_still_hits(filled, tmp_path, recordings):
    """A store filled before it held trace bundles: every result entry
    is still a hit, and the traces are recorded into it once."""
    root = copy_store(filled, tmp_path)
    shutil.rmtree(f"{root}/{TRACE_DIR}")
    session = SimulationSession(TINY, cache_dir=root)
    assert evaluate_claims(session) == filled[1]
    info = session.cache_stats()
    assert info["simulations"] == 0 and info["disk_hits"] == 144
    assert sorted(recordings) == sorted(suite.BENCH_ORDER)
    assert ResultCache(root).trace_count() == 12


def test_warm_claims_records_nothing(filled, tmp_path, recordings):
    session = SimulationSession(TINY, cache_dir=copy_store(filled, tmp_path))
    assert evaluate_claims(session) == filled[1]
    info = session.cache_stats()
    assert recordings == []
    assert info["traces_loaded"] == 12 and info["traces_recorded"] == 0
    assert info["simulations"] == 0


def test_warm_sweep_records_nothing(filled, tmp_path, recordings):
    session = SimulationSession(TINY, cache_dir=copy_store(filled, tmp_path))
    small_sweep(session)
    assert recordings == []
    assert session.simulations == 0


def test_cold_pooled_sweep_records_each_once(tmp_path, monkeypatch):
    """Counted through a file, so pool workers would show up too."""
    log = tmp_path / "recorded.txt"
    real = suite.record_trace

    def logging_record(program, cfg, max_instructions=5_000_000):
        with open(log, "a") as f:
            f.write(program.name + "\n")
        return real(program, cfg, max_instructions)

    monkeypatch.setattr(suite, "record_trace", logging_record)
    session = SimulationSession(TINY, cache_dir=str(tmp_path / "c"), jobs=2)
    try:
        small_sweep(session)
    finally:
        session.close()
    assert sorted(log.read_text().split()) == members()
    assert session.simulations == len(POLICIES) * len(WORKLOADS)


# -------------------------------------------------------- robustness
def test_torn_bundle_is_quarantined_and_rerecorded(
    tmp_path, monkeypatch, recordings
):
    root = str(tmp_path / "c")
    monkeypatch.setenv("REPRO_FAULTS", "corrupt@trace/mcf")
    torn = small_sweep(SimulationSession(TINY, cache_dir=root))
    monkeypatch.delenv("REPRO_FAULTS")
    assert sorted(recordings) == members()
    suite._trace_cache.clear()
    recordings.clear()
    session = SimulationSession(TINY, cache_dir=root)
    healed = small_sweep(session)
    info = session.cache_stats()
    assert recordings == ["mcf"]
    assert info["traces_quarantined"] == 1
    assert info["traces_recorded"] == 1
    assert info["simulations"] == 0
    assert {k: s.to_dict() for k, s in healed.items()} == {
        k: s.to_dict() for k, s in torn.items()
    }
    store = ResultCache(root)
    assert store.trace_quarantine_count() == 1
    assert store.verify()["traces_corrupt"] == 0


def test_enospc_trace_write_degrades(tmp_path):
    from repro.engine import faults

    store = ResultCache(tmp_path / "c")
    faults.install("enospc@trace/*")
    try:
        bundle = suite.get_trace("mcf", TINY.kernel_scale, store=store)
    finally:
        faults.install(None)
    assert bundle.length > 0
    assert store.put_errors == 1 and store.trace_count() == 0


def test_maintenance_covers_traces(tmp_path):
    store = ResultCache(tmp_path / "c")
    SimulationSession(TINY, cache_dir=str(store.root)).run(
        "SMT", "llll", 2
    )
    bundles = sorted((store.root / TRACE_DIR).glob("*/*.npz"))
    bundles[0].write_bytes(bundles[0].read_bytes()[:100])  # torn
    report = store.verify()
    assert (report["traces_ok"], report["traces_corrupt"]) == (3, 1)
    assert report["ok"] == 1 and report["corrupt"] == 0
    assert store.trace_count() == 4  # verify is read-only
    report = store.repair()
    assert report["trace_quarantine"] == 1 and store.trace_count() == 3
    assert store.quarantine_count() == 0
    report = store.gc()
    assert report["dropped_trace_quarantine"] == 1
    assert store.trace_quarantine_count() == 0
    store.clear()
    assert store.trace_count() == 0 and len(store) == 0
    assert not (store.root / TRACE_DIR).exists()


def test_cli_sweep_reports_trace_counters(tmp_path, capsys):
    from repro.cli import main

    argv = ["--quick", "--cache-dir", str(tmp_path / "c"), "sweep",
            "--policies", "SMT", "--workloads", "llll", "--threads", "2"]
    assert main(argv) == 0
    assert "# traces: 4 recorded, 0 loaded" in capsys.readouterr().err
    suite._trace_cache.clear()
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert " 0 simulated" in err
    assert "# traces: 0 recorded, 4 loaded" in err
