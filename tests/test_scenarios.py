"""The declarative machine-scenario layer (repro.arch.scenarios) and
its engine/CLI surface: preset validation, fingerprint stability, JSON
round-trip, cache invalidation across machines, and bit-identity of the
default machine with the pre-scenario code path."""

from __future__ import annotations

import pytest

from repro.arch.config import (
    MEMORY_PRESETS,
    PAPER_MACHINE,
    ClusterConfig,
    MachineConfig,
)
from repro.arch.scenarios import (
    MACHINE_PRESETS,
    ScenarioSpec,
    get_scenario,
    machine_fingerprint,
    machine_from_dict,
    machine_to_dict,
)
from repro.core.policies import ALL_POLICIES
from repro.engine import ExperimentScale, SimulationSession

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_500, timeslice=800
)


# ------------------------------------------------------------- registry
def test_issue_presets_registered():
    for name in ("paper", "narrow", "wide", "fast-switch", "big-fu"):
        assert name in MACHINE_PRESETS
    assert get_scenario("paper").machine == PAPER_MACHINE
    assert get_scenario("narrow").machine.n_clusters == 2
    assert get_scenario("wide").machine.n_clusters == 8
    assert get_scenario("fast-switch").timeslice_factor < 1.0
    big = get_scenario("big-fu").machine
    assert big.cluster.issue_width > PAPER_MACHINE.cluster.issue_width


def test_registry_names_are_composable():
    # '+' is the composition separator; preset names must stay clean
    assert all("+" not in n for n in MACHINE_PRESETS)


def test_composition_reuses_memory_presets():
    spec = get_scenario("narrow+l2")
    assert spec.machine.n_clusters == 2
    assert spec.machine.memory == MEMORY_PRESETS["l2"]
    # memory preset names themselves contain '+': split on the first
    spec = get_scenario("wide+l2+prefetch")
    assert spec.machine.n_clusters == 8
    assert spec.machine.memory == MEMORY_PRESETS["l2+prefetch"]
    # resolution is memoised: same object both times (the per-process
    # trace memo keys on config value, but identity keeps it cheap)
    assert get_scenario("narrow+l2") is get_scenario("narrow+l2")


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown machine scenario"):
        get_scenario("gigantic")
    with pytest.raises(ValueError, match="unknown machine preset"):
        get_scenario("gigantic+l2")
    with pytest.raises(ValueError, match="unknown memory preset"):
        get_scenario("narrow+l9")


# ----------------------------------------------------------- validation
def test_spec_validation_errors():
    with pytest.raises(ValueError, match="non-empty"):
        ScenarioSpec("", PAPER_MACHINE)
    with pytest.raises(ValueError, match="whitespace"):
        ScenarioSpec("two words", PAPER_MACHINE)
    with pytest.raises(ValueError, match="timeslice_factor"):
        ScenarioSpec("t", PAPER_MACHINE, timeslice_factor=0)
    # the packed SWAR resource model has 3-bit fields: reject an
    # 8-issue cluster at declaration, not mid-simulation
    with pytest.raises(ValueError, match="per-field limit"):
        ScenarioSpec(
            "fat",
            MachineConfig(cluster=ClusterConfig(issue_width=8, n_alu=8)),
        )
    # MachineConfig's own validation still applies through the spec
    with pytest.raises(ValueError, match="clusters"):
        ScenarioSpec("wide9", MachineConfig(n_clusters=9))


def test_timeslice_scaling():
    spec = get_scenario("fast-switch")
    assert spec.timeslice(10_000) == 2_500
    assert spec.timeslice(0) == 0  # no multitasking stays off
    assert spec.timeslice(1) == 1  # never collapses to 0
    assert get_scenario("paper").timeslice(10_000) == 10_000


# ---------------------------------------------------------- fingerprint
def test_fingerprint_stable_and_content_addressed():
    a = get_scenario("narrow").fingerprint()
    assert a == get_scenario("narrow").fingerprint()
    # a hand-built config with the same shape shares the fingerprint,
    # whatever it is called (content-addressed, names are cosmetic)
    hand = ScenarioSpec("my-narrow", MachineConfig(n_clusters=2))
    assert hand.fingerprint() == a
    # any shape change reflows it
    assert get_scenario("wide").fingerprint() != a
    assert get_scenario("narrow+l2").fingerprint() != a
    assert get_scenario("big-fu").fingerprint() != a
    # the timeslice factor is part of the scenario's identity
    assert (
        get_scenario("fast-switch").fingerprint()
        != get_scenario("paper").fingerprint()
    )
    assert machine_fingerprint(PAPER_MACHINE) == get_scenario(
        "paper"
    ).fingerprint()


def test_json_round_trip():
    for name in MACHINE_PRESETS:
        spec = get_scenario(name)
        back = ScenarioSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.fingerprint() == spec.fingerprint()
    # nested memory blocks survive too
    spec = get_scenario("wide+l2+mshr")
    back = ScenarioSpec.from_dict(spec.to_dict())
    assert back.machine.memory.l2 is not None
    assert back.machine.memory.mshr == spec.machine.memory.mshr
    assert back == spec
    import json

    json.dumps(spec.to_dict())  # must be JSON-safe
    assert machine_from_dict(machine_to_dict(PAPER_MACHINE)) == PAPER_MACHINE


# ------------------------------------------------------------ the axis
@pytest.fixture(scope="module")
def session():
    return SimulationSession(TINY)


def test_default_machine_bit_identical_to_paper(session):
    """machine="paper" must be the exact default path: same memo entry,
    same counters, on every policy x memory preset."""
    for policy in [p.name for p in ALL_POLICIES]:
        for memory in (None, "l2", "mshr"):
            a = session.run(policy, "llll", 2, memory=memory)
            b = session.run(policy, "llll", 2, memory=memory,
                            machine="paper")
            assert a is b, (policy, memory)


def test_machine_axis_changes_results(session):
    base = session.run("CCSI AS", "llll", 2)
    narrow = session.run("CCSI AS", "llll", 2, machine="narrow")
    wide = session.run("CCSI AS", "llll", 2, machine="wide")
    assert narrow.cycles != base.cycles
    assert narrow.issue_width == 8 and wide.issue_width == 32
    fast = session.run("CCSI AS", "llll", 2, machine="fast-switch")
    assert fast.context_switches > base.context_switches


def test_machine_memory_composition_matches_axes(session):
    """machine="narrow+l2" is the same cell as machine="narrow" +
    memory="l2" — one scenario name, two coordinates, same result."""
    composed = session.run("SMT", "llll", 2, machine="narrow+l2")
    axes = session.run("SMT", "llll", 2, memory="l2", machine="narrow")
    assert composed is axes  # same memo entry: identical cfg + params


def test_sweep_machine_axis(session):
    out = session.sweep(
        policies=["SMT"], workloads=["llll"], n_threads=(2,),
        machine=("paper", "narrow"),
    )
    assert set(out) == {
        ("SMT", "llll", 2, None, "paper"),
        ("SMT", "llll", 2, None, "narrow"),
    }
    assert (
        out[("SMT", "llll", 2, None, "paper")].issue_width == 16
    )
    assert (
        out[("SMT", "llll", 2, None, "narrow")].issue_width == 8
    )


def test_sweep_machine_and_memory_axes(session):
    out = session.sweep(
        policies=["SMT"], workloads=["llll"], n_threads=(2,),
        memory=("paper", "l2"), machine=("narrow",),
    )
    assert set(out) == {
        ("SMT", "llll", 2, "paper", "narrow"),
        ("SMT", "llll", 2, "l2", "narrow"),
    }


def test_sweep_parallel_machine_axis_matches_serial():
    """Machine cells are bit-identical serial vs --jobs 2 (workers
    receive the machine config and rescaled timeslice)."""
    serial = SimulationSession(TINY)
    rs = serial.sweep(
        policies=["SMT", "CCSI AS"], workloads=["llll"], n_threads=(2,),
        machine=("narrow", "fast-switch"),
    )
    parallel = SimulationSession(TINY, jobs=2)
    rp = parallel.sweep(
        policies=["SMT", "CCSI AS"], workloads=["llll"], n_threads=(2,),
        machine=("narrow", "fast-switch"),
    )
    assert set(rs) == set(rp)
    for k in rs:
        assert rs[k].to_dict() == rp[k].to_dict(), k


# ----------------------------------------------------------- disk cache
def test_disk_cache_distinguishes_machines(tmp_path):
    s1 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    s1.run("SMT", "llll", 2)
    s1.run("SMT", "llll", 2, machine="narrow")
    assert s1.simulations == 2  # different machine => different key

    # warm rerun: zero re-simulations per machine
    s2 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    s2.run("SMT", "llll", 2)
    s2.run("SMT", "llll", 2, machine="narrow")
    assert s2.simulations == 0
    assert s2.cache.hits == 2


def test_disk_cache_shares_paper_machine_with_default(tmp_path):
    """machine="paper" and the default produce one cache entry: the
    key is the scenario's content fingerprint, not its name."""
    s1 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    s1.run("SMT", "llll", 2)
    s2 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    s2.run("SMT", "llll", 2, machine="paper")
    assert s2.simulations == 0 and s2.cache.hits == 1


def test_disk_cache_distinguishes_timeslice_factor(tmp_path):
    """fast-switch shares the paper shape but not the timeslice: the
    params hash must split the entries."""
    s1 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    s1.run("SMT", "llll", 2, machine="paper")
    s1.run("SMT", "llll", 2, machine="fast-switch")
    assert s1.simulations == 2


def test_trace_memo_shared_across_memory_presets():
    """One compile + trace per machine shape: configs differing only in
    the memory hierarchy (invisible to compiler and VM) must share the
    memoised bundle, even when rebuilt from pickled worker configs."""
    import pickle
    from dataclasses import replace

    from repro.arch.config import get_memory_config
    from repro.kernels.suite import get_trace

    base = get_scenario("narrow").machine
    a = get_trace("mcf", 0.05, base)
    b = get_trace("mcf", 0.05, replace(base, memory=get_memory_config("l2")))
    assert a is b
    # a value-equal config from a pickling round-trip shares it too
    c = get_trace("mcf", 0.05, pickle.loads(pickle.dumps(base)))
    assert a is c
    # a different machine shape does not
    d = get_trace("mcf", 0.05, get_scenario("wide").machine)
    assert d is not a


# -------------------------------------------------------------- harness
def test_machine_report_and_scenarios_render(session):
    from repro.harness.figures import sensitivity
    from repro.harness.machreport import (
        render_machine_report,
        render_scenarios,
    )

    rows = sensitivity(session, "SMT", "llll", 2, "machine",
                       ["paper", "narrow"])
    assert [m for m, _ in rows] == ["paper", "narrow"]
    assert rows[1][1] is session.run("SMT", "llll", 2, machine="narrow")
    text = render_machine_report(rows, "SMT", "llll", 2)
    assert "Machine sensitivity" in text
    assert "narrow" in text and "2x4i" in text
    listing = render_scenarios(verbose=True)
    for name in MACHINE_PRESETS:
        assert name in listing
    assert "fingerprint" in listing


def test_fig_machine_rows(session):
    from repro.harness.figures import FIG_AXES, fig_axis, render_fig_axis

    rows = fig_axis(session, "machine", ["paper", "narrow"],
                    n_threads=(2,))
    assert len(rows) == 8  # every policy
    assert set(rows[0]["ipc"]) == {"paper", "narrow"}
    text = render_fig_axis(rows, FIG_AXES["machine"][2])
    assert "Fig. machine" in text and "narrow" in text


# ------------------------------------------------------------------ CLI
def test_cli_machine_flags_and_commands(capsys):
    from repro.cli import main

    rc = main(["scenarios", "-v"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "narrow" in out and "fingerprint" in out

    rc = main(["--quick", "run", "--policy", "SMT", "--workload", "llll",
               "--threads", "2", "--machine", "narrow"])
    assert rc == 0
    import json as _json

    assert _json.loads(capsys.readouterr().out)["ipc"] > 0

    # a typo prints the registry, not a traceback: argparse exits 2
    with pytest.raises(SystemExit) as exc:
        main(["--quick", "run", "--machine", "gigantic"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown machine scenario" in err
