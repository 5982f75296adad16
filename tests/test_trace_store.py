"""Trace recording against a result store (repro.kernels.suite.get_trace)
and the store's fingerprint index (repro.kernels.suite.get_fingerprint):
a warm process derives result keys from the index without compiling or
recording anything, a process that simulates records each trace once,
result keys stay byte-identical, bad index entries are never served,
and trace bundles older stores wrote are only ever cleaned up."""

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.arch.config import PAPER_MACHINE, get_memory_config
from repro.arch.scenarios import get_scenario
from repro.engine import ExperimentScale, ResultCache, SimulationSession
from repro.engine import cache as cache_mod
from repro.engine.cache import (
    INDEX_DIR,
    TRACE_DIR,
    QUARANTINE_DIR,
    cache_key,
    index_key,
)
from repro.harness.claims import evaluate_claims
from repro.kernels import suite
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
    """Every test starts like a new process: empty trace and
    fingerprint memos (the suite-wide memos are restored afterwards)."""
    monkeypatch.setattr(suite, "_trace_cache", {})
    monkeypatch.setattr(suite, "_identity_cache", {})


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


@pytest.fixture
def compiles(monkeypatch):
    """Names of the kernels compiled from now on."""
    names: list[str] = []
    real = suite.build_program

    def counting(name, *args, **kwargs):
        names.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(suite, "build_program", counting)
    return names


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A store a cold ``claims`` filled: every cell of the matrix and
    all twelve index entries, plus the claims it produced."""
    saved = suite._trace_cache, suite._identity_cache
    suite._trace_cache, suite._identity_cache = {}, {}
    try:
        root = tmp_path_factory.mktemp("filled")
        session = SimulationSession(TINY, cache_dir=str(root))
        claims = evaluate_claims(session)
        assert session.cache_stats()["traces_recorded"] == 12
    finally:
        suite._trace_cache, suite._identity_cache = saved
    return root, claims


def copy_store(filled, tmp_path, name="store"):
    dst = tmp_path / name
    shutil.copytree(filled[0], dst)
    return str(dst)


def results(sweep):
    return {k: s.to_dict() for k, s in sweep.items()}


def index_path(root, name="mcf"):
    """Where the fingerprint index keeps ``name``'s identity."""
    key = index_key(name, TINY.kernel_scale, PAPER_MACHINE, 5_000_000)
    return ResultCache(root)._index_path(key)


def write_entry(path, source, fingerprint, length):
    """A well-formed index entry (valid checksum) with these fields."""
    payload = {"source": source, "fingerprint": fingerprint, "length": length}
    path.write_text(json.dumps(
        {**payload, "checksum": cache_mod.payload_checksum(payload)}
    ))


# ------------------------------------------------------------- layout
def test_store_layout(tmp_path):
    """A run stores its result and one index entry per member trace,
    and no trace bundle."""
    store = ResultCache(tmp_path / "c")
    SimulationSession(TINY, cache_dir=str(store.root)).run(
        "SMT", "llll", 2
    )
    assert [p.name for p in (store.root / TRACE_DIR).iterdir()] == [
        INDEX_DIR
    ]
    assert not list(store.root.rglob("*.npz"))
    # results still count only result entries
    assert len(store) == 1 and store.index_count() == 4


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
    a = suite.get_trace("mcf", TINY.kernel_scale, PAPER_MACHINE, store=store)
    b = suite.get_trace("mcf", TINY.kernel_scale, l2, store=store)
    assert a is b and recordings == ["mcf"]
    assert store.traces_recorded == 1 and store.index_count() == 1
    suite.clear_trace_cache()
    ident = suite.trace_identity("mcf", TINY.kernel_scale, l2, store=store)
    assert ident == (a.fingerprint(), a.length) and store.index_hits == 1
    # another scale or machine shape is another program: a miss
    suite.get_trace("mcf", 0.05, PAPER_MACHINE, store=store)
    narrow = get_scenario("narrow").machine
    suite.get_trace("mcf", TINY.kernel_scale, narrow, store=store)
    assert recordings == ["mcf"] * 3
    assert store.index_count() == 3


# ----------------------------------------------------------- sessions
def test_result_keys_identical_with_and_without_store(filled, tmp_path):
    session = SimulationSession(TINY, cache_dir=copy_store(filled, tmp_path))
    cell = session.cell("CCSI AS", "llhh", 2)
    indexed_key = session._disk_key(cell)
    info = session.cache_stats()
    assert (info["traces_indexed"], info["traces_recorded"]) == (4, 0)
    suite.clear_trace_cache()
    prints = tuple(
        suite.get_trace(n, TINY.kernel_scale).fingerprint()
        for n in cell.members
    )
    recorded_key = cache_key(
        session.cfg, cell.params, "CCSI AS", cell.members, prints, 2
    )
    assert indexed_key == recorded_key


def test_store_without_traces_still_hits(
    filled, tmp_path, recordings, compiles
):
    """A store filled before it held the fingerprint index: every
    result entry is still a hit (keys are byte-identical), and the
    traces are recorded and indexed into it once; the next warm run
    compiles and records nothing."""
    root = copy_store(filled, tmp_path)
    shutil.rmtree(f"{root}/{TRACE_DIR}")
    session = SimulationSession(TINY, cache_dir=root)
    assert evaluate_claims(session) == filled[1]
    info = session.cache_stats()
    assert info["simulations"] == 0 and info["disk_hits"] == 144
    assert (info["traces_recorded"], info["traces_indexed"]) == (12, 0)
    assert sorted(recordings) == sorted(suite.BENCH_ORDER)
    assert ResultCache(root).index_count() == 12
    suite.clear_trace_cache()
    recordings.clear()
    compiles.clear()
    session = SimulationSession(TINY, cache_dir=root)
    assert evaluate_claims(session) == filled[1]
    info = session.cache_stats()
    assert (info["traces_recorded"], info["traces_indexed"]) == (0, 12)
    assert info["simulations"] == 0
    assert recordings == [] and compiles == []


def test_warm_claims_records_nothing(
    filled, tmp_path, recordings, compiles
):
    """A warm run takes every trace identity from the index: nothing is
    recorded or compiled."""
    session = SimulationSession(TINY, cache_dir=copy_store(filled, tmp_path))
    assert evaluate_claims(session) == filled[1]
    info = session.cache_stats()
    assert recordings == [] and compiles == []
    assert info["traces_indexed"] == 12
    assert info["traces_recorded"] == 0
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
    small_sweep(session)
    assert sorted(log.read_text().split()) == members()
    assert session.simulations == len(POLICIES) * len(WORKLOADS)


# -------------------------------------------------------- robustness
def test_enospc_trace_write_degrades(tmp_path):
    """A trace's index entry that cannot be written (fault target
    ``index/<bench>``) costs a put error, not the trace."""
    from repro.engine import faults

    store = ResultCache(tmp_path / "c")
    faults.install("enospc@index/*")
    try:
        bundle = suite.get_trace("mcf", TINY.kernel_scale, store=store)
    finally:
        faults.install(None)
    assert bundle.length > 0 and store.traces_recorded == 1
    assert store.put_errors == 1 and store.index_count() == 0


def old_bundle_tree(root):
    """``.npz`` trace bundles where older stores kept them: two live
    ones in hex shards under ``traces/`` and a quarantined one."""
    paths = [
        root / TRACE_DIR / "3f" / f"{'a' * 62}.npz",
        root / TRACE_DIR / "c0" / f"{'b' * 62}.npz",
        root / QUARANTINE_DIR / f"e1{'c' * 62}.npz",
    ]
    for i, path in enumerate(paths):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"PK\x03\x04" + bytes(i))  # not a valid zip
    return paths


def test_maintenance_covers_traces(tmp_path, capsys):
    """A leftover bundle tree is stale, not corrupt: verify reports it
    and exits 0, repair keeps it, gc deletes it."""
    from repro.cli import main

    store = ResultCache(tmp_path / "c")
    SimulationSession(TINY, cache_dir=str(store.root)).run(
        "SMT", "llll", 2
    )
    bundles = old_bundle_tree(store.root)
    report = store.verify()
    assert report["stale_bundles"] == 3
    assert (report["ok"], report["corrupt"], report["stale"]) == (1, 0, 0)
    assert (report["index_ok"], report["index_corrupt"]) == (4, 0)
    assert report["quarantine"] == 0 and report["index_quarantine"] == 0
    argv = ["cache", "verify", "--cache-dir", str(store.root)]
    assert main(argv) == 0
    assert "; 3 stale trace bundle(s)" in capsys.readouterr().out
    assert main(["cache", "repair", "--cache-dir", str(store.root)]) == 0
    assert all(p.exists() for p in bundles)
    assert len(store) == 1 and store.index_count() == 4
    assert main(["cache", "gc", "--cache-dir", str(store.root)]) == 0
    assert "+ 3 stale trace bundle(s)" in capsys.readouterr().out
    assert not any(p.exists() for p in bundles)
    assert sorted(p.name for p in (store.root / TRACE_DIR).iterdir()) == [
        INDEX_DIR
    ]
    assert not (store.root / QUARANTINE_DIR).exists()
    assert len(store) == 1 and store.index_count() == 4
    assert store.verify()["stale_bundles"] == 0
    old_bundle_tree(store.root)
    store.clear()
    assert len(store) == 0 and store.index_count() == 0
    assert not (store.root / TRACE_DIR).exists()
    assert not list(store.root.rglob("*.npz"))


def test_cli_sweep_reports_trace_counters(tmp_path, capsys):
    from repro.cli import main

    argv = ["--quick", "--cache-dir", str(tmp_path / "c"), "sweep",
            "--policies", "SMT", "--workloads", "llll", "--threads", "2"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "# traces: 4 recorded, 0 indexed\n" in err
    suite.clear_trace_cache()
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert " 0 simulated" in err
    assert "# traces: 0 recorded, 4 indexed\n" in err


# -------------------------------------------------- fingerprint index
@pytest.mark.parametrize("fault", ["torn", "checksum", "foreign", "wrong"])
def test_bad_index_entry_never_serves_a_result(
    filled, tmp_path, recordings, fault
):
    """A torn entry, a checksum mismatch or an entry of other code reads
    as an index miss (the trace is recorded instead); a well-formed
    entry with a wrong fingerprint reads as a result-store miss, and
    the cells that simulate store their results under the keys of the
    recorded bundles.  Every fault is healed."""
    expected = results(small_sweep(SimulationSession(
        TINY, cache_dir=copy_store(filled, tmp_path, "pristine")
    )))
    suite.clear_trace_cache()
    root = copy_store(filled, tmp_path)
    path = index_path(root)
    good = json.loads(path.read_text())
    if fault == "torn":
        path.write_bytes(path.read_bytes()[:40])
    elif fault == "checksum":
        path.write_text(json.dumps({**good, "length": good["length"] + 1}))
    elif fault == "foreign":
        write_entry(path, "0" * 64, good["fingerprint"], good["length"])
    else:
        idct = json.loads(index_path(root, "idct").read_text())
        write_entry(path, good["source"], idct["fingerprint"], good["length"])
    n_results = len(ResultCache(root))

    session = SimulationSession(TINY, cache_dir=root)
    assert results(small_sweep(session)) == expected
    info = session.cache_stats()
    assert info["traces_recorded"] == len(recordings)
    if fault == "wrong":
        # the first cell (SMT/llll runs mcf) misses and simulates; the
        # bundles it records replace the bad identity, so the rest hit
        assert info["traces_indexed"] == len(members())
        assert info["simulations"] == 1
        assert sorted(recordings) == sorted(session.cell(
            "SMT", "llll", 2
        ).members)
    else:
        assert info["traces_indexed"] == len(members()) - 1
        assert info["simulations"] == 0 and recordings == ["mcf"]
    # healed: the entry is the bundle's again, and no result was stored
    # under a key derived from the bad entry
    assert json.loads(path.read_text()) == good
    store = ResultCache(root)
    assert len(store) == n_results
    report = store.verify()
    assert (report["index_corrupt"], report["index_stale"]) == (0, 0)
    suite.clear_trace_cache()
    session = SimulationSession(TINY, cache_dir=root)
    assert results(small_sweep(session)) == expected
    info = session.cache_stats()
    assert info["simulations"] == 0 and info["traces_recorded"] == 0


def test_wrong_index_entry_single_thread_run_keys_by_the_bundle(
    filled, tmp_path
):
    """Fig. 13a's single-thread runs key on the trace length too: a bad
    entry makes them simulate, and the result lands under the key the
    recorded bundle gives."""
    expected = SimulationSession(TINY).run_single("mcf").to_dict()
    suite.clear_trace_cache()
    root = copy_store(filled, tmp_path)
    path = index_path(root)
    good = json.loads(path.read_text())
    write_entry(path, good["source"], good["fingerprint"], good["length"] + 7)
    session = SimulationSession(TINY, cache_dir=root)
    assert session.run_single("mcf").to_dict() == expected
    assert session.simulations == 1
    assert json.loads(path.read_text()) == good
    suite.clear_trace_cache()
    session = SimulationSession(TINY, cache_dir=root)
    assert session.run_single("mcf").to_dict() == expected
    assert session.simulations == 0


def test_source_edit_misses_the_index(filled, tmp_path, monkeypatch):
    """Other code (any edit to the package) never reads this code's
    entries: it records the traces, hits every result (keys are the
    same) and rewrites the entries it used in place; the ones it did
    not use stay stale."""
    root = copy_store(filled, tmp_path)
    monkeypatch.setattr(cache_mod, "source_identity", lambda: "f" * 64)
    session = SimulationSession(TINY, cache_dir=root)
    small_sweep(session)
    info = session.cache_stats()
    assert info["traces_indexed"] == 0
    assert info["traces_recorded"] == len(members())
    assert info["simulations"] == 0
    store = ResultCache(root)
    assert store.index_count() == 12
    assert store.verify()["index_stale"] == 12 - len(members())


def test_source_edits_rewrite_the_index_in_place(tmp_path, monkeypatch):
    """The index key leaves the source identity out: a warm run under
    each of two identities rewrites the same entry per kernel, so the
    index never grows and nothing is left stale."""
    root = str(tmp_path / "c")
    SimulationSession(TINY, cache_dir=root).run("SMT", "llll", 2)
    for source in ("a" * 64, "b" * 64):
        monkeypatch.setattr(cache_mod, "source_identity", lambda: source)
        suite.clear_trace_cache()
        session = SimulationSession(TINY, cache_dir=root)
        session.run("SMT", "llll", 2)
        info = session.cache_stats()
        assert info["simulations"] == 0 and info["traces_recorded"] == 4
        store = ResultCache(root)
        assert store.index_count() == 4
        report = store.verify()
        assert (report["index_ok"], report["index_stale"]) == (4, 0)


def test_no_source_files_turns_the_index_off(filled, tmp_path, monkeypatch):
    root = copy_store(filled, tmp_path)
    shutil.rmtree(f"{root}/{TRACE_DIR}/{INDEX_DIR}")
    monkeypatch.setattr(cache_mod, "source_identity", lambda: None)
    for _ in range(2):
        suite.clear_trace_cache()
        session = SimulationSession(TINY, cache_dir=root)
        small_sweep(session)
        info = session.cache_stats()
        assert info["traces_indexed"] == 0 and info["simulations"] == 0
        assert info["traces_recorded"] == len(members())
    assert ResultCache(root).index_count() == 0


def test_source_digest(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    assert cache_mod._source_digest(pkg) is None
    (pkg / "a.py").write_text("A = 1\n")
    (pkg / "sub" / "b.py").write_text("B = 2\n")
    first = cache_mod._source_digest(pkg)
    assert first is not None and len(first) == 64
    (pkg / "notes.txt").write_text("not source")
    assert cache_mod._source_digest(pkg) == first
    (pkg / "sub" / "b.py").write_text("B = 3\n")
    edited = cache_mod._source_digest(pkg)
    assert edited != first
    (pkg / "sub" / "b.py").rename(pkg / "sub" / "c.py")
    assert cache_mod._source_digest(pkg) not in (first, edited)
    assert len(cache_mod.source_identity()) == 64


def test_maintenance_covers_index(tmp_path, capsys):
    from repro.cli import main

    store = ResultCache(tmp_path / "c")
    SimulationSession(TINY, cache_dir=str(store.root)).run(
        "SMT", "llll", 2
    )
    entries = sorted((store.root / TRACE_DIR / INDEX_DIR).glob("*/*.json"))
    assert len(entries) == 4 and store.index_count() == 4
    entries[0].write_bytes(entries[0].read_bytes()[:30])  # torn
    stale = json.loads(entries[1].read_text())
    write_entry(entries[1], "0" * 64, stale["fingerprint"], stale["length"])
    leftover = entries[2].with_name(entries[2].name + ".99.tmp")
    leftover.write_text("{")
    report = store.verify()
    assert (report["index_ok"], report["index_corrupt"]) == (2, 1)
    assert report["index_stale"] == 1 and report["tmp_files"] == 1
    assert report["ok"] == 1 and report["stale_bundles"] == 0
    assert store.index_count() == 4  # verify is read-only
    argv = ["cache", "verify", "--cache-dir", str(store.root)]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "index: 2 ok, 1 corrupt, 1 stale, 0 in quarantine" in out
    report = store.repair()
    assert report["index_quarantine"] == 1 and report["swept_tmp"] == 1
    assert store.index_count() == 3 and not leftover.exists()
    # quarantined index entries are not result entries
    assert store.quarantine_count() == 0
    assert store.index_quarantine_count() == 1
    report = store.gc()
    assert report["dropped_index_quarantine"] == 1
    assert report["dropped_stale_index"] == 1
    assert store.index_count() == 2 and store.index_quarantine_count() == 0
    assert main(argv) == 0
    assert "index: 2 ok, 0 corrupt, 0 stale" in capsys.readouterr().out
    store.clear()
    assert store.index_count() == 0 and len(store) == 0
    assert not (store.root / TRACE_DIR).exists()


def test_pooled_sweep_over_partly_warm_store_records_nothing(
    filled, tmp_path, monkeypatch
):
    """A --jobs 2 sweep whose result keys come from the index: the
    pending cells' traces are recorded once each, by recorders forked
    before the simulation pool, which inherits them, so no process
    that simulates runs the functional VM."""
    import multiprocessing

    from repro.engine.session import Cell

    expected = results(small_sweep(SimulationSession(
        TINY, cache_dir=copy_store(filled, tmp_path, "pristine")
    )))
    root = copy_store(filled, tmp_path)
    pending = [("CCSI AS", "llll", 2), ("SMT", "llhh", 2)]
    session = SimulationSession(TINY, cache_dir=root)
    for spec in pending:
        os.unlink(session.cache._path(session._disk_key(session.cell(*spec))))
    suite.clear_trace_cache()

    log = tmp_path / "recorded.txt"
    real = suite.record_trace
    real_simulate = Cell.simulate

    def logging_record(program, cfg, max_instructions=5_000_000):
        with open(log, "a") as f:
            f.write(f"record {os.getpid()} {program.name}\n")
        return real(program, cfg, max_instructions)

    def logging_simulate(cell, *a, **k):
        with open(log, "a") as f:
            f.write(f"simulate {os.getpid()} -\n")
        return real_simulate(cell, *a, **k)

    monkeypatch.setattr(suite, "record_trace", logging_record)
    monkeypatch.setattr(Cell, "simulate", logging_simulate)
    session = SimulationSession(TINY, cache_dir=root, jobs=2)
    memo_at_fork: list[set] = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def pool(*a, **k):
        memo_at_fork.append(set(suite._trace_cache))
        return real_pool(*a, **k)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    assert results(small_sweep(session)) == expected
    assert multiprocessing.active_children() == []
    info = session.cache_stats()
    names = sorted(
        {n for spec in pending for n in session.cell(*spec).members}
    )
    calls = [line.split() for line in log.read_text().splitlines()]
    # the log also collects what recorders and workers record: each
    # name once, never in a process that simulates
    assert sorted(n for e, _, n in calls if e == "record") == names
    simulating = [pid for e, pid, _ in calls if e == "simulate"]
    assert len(simulating) == len(pending)
    assert not set(simulating) & {pid for e, pid, _ in calls if e == "record"}
    assert info["traces_recorded"] == len(names)
    assert info["simulations"] == len(pending)
    assert info["traces_indexed"] == len(members())
    needed = {
        suite._memo_key(n, TINY.kernel_scale, session.cfg, 5_000_000)
        for n in names
    }
    # the recorders' pool, then the simulation pool
    assert len(memo_at_fork) == 2
    assert needed <= memo_at_fork[-1]


def test_pooled_sweep_verifies_no_loop_of_a_served_cell(
    tmp_path, monkeypatch
):
    """While its recorders record the traces whose identity the index
    lacks, a pooled sweep verifies only the loops of the cells that
    lack one: a cell whose result the store serves is never
    verified."""
    from repro.engine import runner

    root = str(tmp_path / "store")
    SimulationSession(TINY, cache_dir=root, jobs=2).sweep(
        policies=POLICIES, workloads=["llll"], n_threads=THREADS
    )
    suite.clear_trace_cache()
    verified = []
    real = runner._verify_loop

    def logged(cell):
        verified.append(cell.workload)
        real(cell)

    monkeypatch.setattr(runner, "_verify_loop", logged)
    session = SimulationSession(TINY, cache_dir=root, jobs=2)
    session.sweep(
        policies=POLICIES, workloads=["llll", "mmmm"], n_threads=THREADS
    )
    info = session.cache_stats()
    assert info["simulations"] == len(POLICIES)
    assert info["traces_recorded"] == 4
    assert verified and set(verified) == {"mmmm"}


def test_warm_cli_claims_never_imports_numpy(tmp_path):
    """A warm ``claims`` served from the index imports no numpy."""
    import repro

    store = str(tmp_path / "store")
    env = {
        **{k: v for k, v in os.environ.items() if not k.startswith("REPRO_")},
        "PYTHONPATH": str(Path(repro.__file__).resolve().parent.parent),
    }
    fill = [sys.executable, "-m", "repro", "--quick", "--jobs", "2",
            "--cache-dir", store, "sweep"]
    subprocess.run(fill, env=env, check=True, capture_output=True)
    probe = (
        "import sys\n"
        "from repro.cli import main\n"
        "rc = main(['--quick', '--cache-dir', sys.argv[1], 'claims'])\n"
        "print('numpy' in sys.modules, rc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, store], env=env, check=True,
        capture_output=True, text=True,
    )
    assert out.stdout.splitlines()[-1] in ("False 0", "False 1")
