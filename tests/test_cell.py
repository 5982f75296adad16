"""One resolved ``Cell`` per matrix cell: the same store keys, ledger
coordinates and journal lines whichever path (run, serial sweep,
pooled sweep) resolved it."""

import json
from dataclasses import replace

import pytest

import repro.engine.session as session_mod
from repro.arch.config import PAPER_MACHINE, get_memory_config
from repro.arch.scenarios import get_scenario
from repro.engine import ExperimentScale, SimulationSession
from repro.engine.cache import cache_key
from repro.harness.workloads import WORKLOADS
from repro.kernels import suite
from repro.pipeline.processor import SimParams

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_200, timeslice=700
)
MATRIX = dict(policies=["SMT", "CSMT"], workloads=["llll"], n_threads=(2,))


def _sweep(session, **kw):
    return session.sweep(**{**MATRIX, **kw})


@pytest.fixture
def key_calls(monkeypatch):
    """Counts store-key derivations in this process."""
    calls = [0]
    real = session_mod.cache_key

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(session_mod, "cache_key", counted)
    return calls


def _journal(root) -> list[tuple]:
    lines = (root / "sweep-journal.jsonl").read_text().splitlines()
    return [
        (r["key"], r["cell"], r["status"], r["source"])
        for r in map(json.loads, lines) if "status" in r
    ]


# ------------------------------------------------------------- keys
@pytest.mark.parametrize("jobs", [1, 2])
def test_key_derivations_per_cell(tmp_path, key_calls, jobs):
    """A simulated cell derives its store key twice (at the lookup,
    and from its built bundles); a store or memo hit derives it
    once, for the lookup or the journal line."""
    cells = len(MATRIX["policies"])
    root = tmp_path / "c"
    cold = SimulationSession(TINY, cache_dir=root, jobs=jobs)
    _sweep(cold)
    assert cold.simulations == cells
    assert key_calls[0] == 2 * cells

    key_calls[0] = 0
    _sweep(cold)  # memo hits
    assert key_calls[0] == cells

    key_calls[0] = 0
    warm = SimulationSession(TINY, cache_dir=root, jobs=jobs)
    _sweep(warm)  # store hits
    assert warm.simulations == 0
    assert key_calls[0] == cells


def test_memory_machine_cell_key_pinned(tmp_path):
    """The key of a memory + machine cell is the content hash of its
    resolved config, scaled timeslice and trace fingerprints."""
    session = SimulationSession(TINY, cache_dir=tmp_path / "c")
    session.run("SMT", "llll", 2, memory="l2", machine="fast-switch")
    spec = get_scenario("fast-switch")
    cfg = replace(spec.machine, memory=get_memory_config("l2"))
    params = SimParams(
        target_instructions=TINY.target_instructions,
        timeslice=spec.timeslice(TINY.timeslice),
        max_cycles=TINY.max_cycles,
        seed=TINY.seed,
    )
    members = WORKLOADS["llll"]
    prints = tuple(
        suite.get_trace(n, TINY.kernel_scale, PAPER_MACHINE).fingerprint()
        for n in members
    )
    key = cache_key(cfg, params, "SMT", members, prints, 2)
    assert params.timeslice == 175
    assert session.cache._path(key).exists()


# ------------------------------------------------------------- ledger
def test_pooled_ledger_carries_cell_coordinates():
    """A pool worker's ledger record names the cell as a serial sweep
    does: workload name, memory and machine coordinates."""
    matrix = dict(policies=["SMT"], workloads=["llll"], n_threads=(2,),
                  memory=("paper", "l2"))

    def coords(jobs):
        session = SimulationSession(TINY, jobs=jobs)
        session.sweep(**matrix)
        return sorted(
            (r["policy"], r["workload"], r["n_threads"], r["memory"],
             r["machine"], r["source"])
            for r in session.telemetry.records
        )

    serial = coords(1)
    assert serial == [
        ("SMT", "llll", 2, "l2", None, "simulated"),
        ("SMT", "llll", 2, "paper", None, "simulated"),
    ]
    assert coords(2) == serial


# ------------------------------------------------------------ journal
def test_warm_sweeps_journal_hits_in_both_modes(tmp_path):
    """Every cache hit gets its `done`/`cached` line, serial or
    pooled."""
    root = tmp_path / "c"
    _sweep(SimulationSession(TINY, cache_dir=root))
    filled = len(_journal(root))

    _sweep(SimulationSession(TINY, cache_dir=root))
    serial = _journal(root)[filled:]
    _sweep(SimulationSession(TINY, cache_dir=root, jobs=2))
    pooled = _journal(root)[filled + len(serial):]
    assert serial == pooled
    assert [r[1:] for r in serial] == [
        ("SMT/llll/2", "done", "cached"),
        ("CSMT/llll/2", "done", "cached"),
    ]
