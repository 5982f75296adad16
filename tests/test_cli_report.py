"""CLI, waste decomposition and report generation."""

import argparse
import json
import logging
import shutil

import pytest

from repro.cli import build_parser, main
from repro.engine import ExperimentScale, SimulationSession
from repro.harness.report import render_report
from repro.harness.waste import render_waste, waste_breakdown

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_200, timeslice=700
)


@pytest.fixture(scope="module")
def session():
    return SimulationSession(TINY)


# ------------------------------------------------------------------ waste
def test_waste_rows(session):
    rows = waste_breakdown(session, ["CSMT", "SMT"], "llll", 2)
    assert [r.policy for r in rows] == ["CSMT", "SMT"]
    for r in rows:
        assert 0 <= r.vertical_frac <= 1
        assert 0 <= r.horizontal_frac <= 1
        assert 0 < r.utilisation <= 1
        # utilisation + waste accounts for all slot-cycles
        active_share = 1 - r.vertical_frac
        recomposed = active_share * (1 - r.horizontal_frac)
        assert recomposed == pytest.approx(r.utilisation, rel=1e-6)


def test_waste_render(session):
    rows = waste_breakdown(session, ["CSMT"], "llll", 2)
    text = render_waste(rows)
    assert "CSMT" in text and "%" in text


# ------------------------------------------------------------------ CLI
def test_parser_commands():
    ap = build_parser()
    args = ap.parse_args(["run", "--policy", "SMT", "--workload", "llll"])
    assert args.command == "run" and args.policy == "SMT"
    args = ap.parse_args(["fig", "14"])
    assert args.number == "14"
    args = ap.parse_args(["fig", "mem"])
    assert args.number == "mem"
    with pytest.raises(SystemExit):
        ap.parse_args(["fig", "99"])
    with pytest.raises(SystemExit):
        ap.parse_args(["run", "--workload", "zzzz"])


@pytest.mark.parametrize("argv", [
    *([cmd, "--policy", "BOGUS"]
      for cmd in ("run", "mem", "machine", "trace", "profile")),
    ["why", "--policies", "BOGUS"],
    *([cmd, "--machine", "gigantic"]
      for cmd in ("run", "sweep", "why", "trace", "profile")),
    ["run", "--machine", "narrow+l3"],
    ["machine", "--machines", "paper", "gigantic"],
])
def test_cli_rejects_unknown_policy_and_machine(argv, capsys):
    """An unknown policy or machine scenario exits 2 with argparse's
    error naming the flag, before anything is resolved."""
    with pytest.raises(SystemExit) as exc:
        main(["--quick", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {argv[0]}: error: argument {argv[1]}: " in err
    assert "Traceback" not in err


def test_cli_run_quick(capsys):
    rc = main(["--quick", "run", "--policy", "SMT", "--workload", "llll",
               "--threads", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ipc"] > 0


def test_caplog_sees_runner_warning_after_cli_call(caplog, capsys):
    """Once the logging state an in-process CLI call leaves is restored
    (as the autouse fixture does after every test), ``repro`` records
    propagate to pytest's capture again instead of a closed stream."""
    from conftest import repro_logger_restored

    with repro_logger_restored() as logger:
        assert main(["scenarios"]) == 0
        assert logger.propagate is False
    logging.getLogger("repro.engine.runner").warning("cell llll retried")
    assert [r.name for r in caplog.records] == ["repro.engine.runner"]
    assert "cell llll retried" in caplog.text


def test_parser_measures_the_terminal_once(monkeypatch):
    """``build_parser`` measures the terminal once, not on every
    ``add_argument``, and every parser's help reads as the stock
    formatter's under the same width."""
    monkeypatch.setenv("COLUMNS", "97")
    calls = []
    real = shutil.get_terminal_size

    def counted(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    ap = build_parser()
    sub, = (
        a for a in ap._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsers = [ap, *sub.choices.values()]
    ours = [p.format_help() for p in parsers]
    assert len(calls) <= 1
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    assert [p.format_help() for p in parsers] == ours


def test_parser_memory_flags():
    ap = build_parser()
    args = ap.parse_args(["run", "--memory", "l2"])
    assert args.memory == "l2"
    args = ap.parse_args(["run"])
    # None defers to the session default (paper) without clobbering a
    # --machine scenario's own memory block
    assert args.memory is None and args.machine is None
    args = ap.parse_args(["sweep", "--memory", "paper", "l2+prefetch"])
    assert args.memory == ["paper", "l2+prefetch"]
    args = ap.parse_args(["mem", "--threads", "2"])
    assert args.command == "mem" and args.memory is None
    with pytest.raises(SystemExit):
        ap.parse_args(["run", "--memory", "l3"])


def test_parser_machine_flags():
    ap = build_parser()
    args = ap.parse_args(["run", "--machine", "narrow+l2"])
    assert args.machine == "narrow+l2"
    args = ap.parse_args(["sweep", "--machine", "paper", "narrow"])
    assert args.machine == ["paper", "narrow"]
    args = ap.parse_args(["machine", "--machines", "paper", "wide"])
    assert args.command == "machine" and args.machines == ["paper", "wide"]
    args = ap.parse_args(["scenarios"])
    assert args.command == "scenarios" and not args.verbose
    args = ap.parse_args(["fig", "machine"])
    assert args.number == "machine"


# ------------------------------------------------- global session flags
ALL_FLAGS = frozenset({"--quick", "--jobs", "--cache-dir", "--telemetry"})
SERIAL = ALL_FLAGS - {"--jobs"}
OBSERVER = frozenset({"--quick", "--cache-dir"})

#: the session flags each command uses, keyed by an argv that reaches
#: it (every figure of `fig`); it must reject every other one
FLAG_USE = {
    ("run",): SERIAL,
    ("sweep",): ALL_FLAGS,
    ("cache", "verify"): {"--cache-dir"},
    ("mem",): ALL_FLAGS,
    ("machine",): ALL_FLAGS,
    ("scenarios",): set(),
    ("fig", "13"): SERIAL,
    ("fig", "14"): ALL_FLAGS,
    ("fig", "15"): ALL_FLAGS,
    ("fig", "16"): ALL_FLAGS,
    ("fig", "mem"): ALL_FLAGS,
    ("fig", "machine"): ALL_FLAGS,
    ("fig", "why"): OBSERVER,
    ("lint",): set(),
    ("claims",): ALL_FLAGS,
    ("waste",): ALL_FLAGS,
    ("report",): ALL_FLAGS,
    ("why",): OBSERVER,
    ("trace",): {"--quick"},
    ("stats", "tel.jsonl"): set(),
    ("profile",): {"--quick"},
}


def _flag_args(tmp_path):
    return {
        "--quick": [],
        "--jobs": ["2"],
        "--cache-dir": [str(tmp_path / "store")],
        "--telemetry": [str(tmp_path / "tel.jsonl")],
    }


def test_flag_table_covers_every_subcommand():
    sub, = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert {argv[0] for argv in FLAG_USE} == set(sub.choices)
    fig_parser = sub.choices["fig"]
    number, = (a for a in fig_parser._actions if a.dest == "number")
    assert {argv[1] for argv in FLAG_USE if argv[0] == "fig"} == set(
        number.choices
    )


@pytest.mark.parametrize("argv", list(FLAG_USE), ids=" ".join)
def test_unused_session_flag_exits_2(argv, tmp_path, capsys):
    """A global flag a command would ignore is an error, before
    anything runs, whether it comes before or after the command."""
    for flag, value in _flag_args(tmp_path).items():
        if flag in FLAG_USE[argv]:
            continue
        for args in ([flag, *value, *argv], [*argv, flag, *value]):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"{flag} has no effect on `repro " in err
    assert list(tmp_path.iterdir()) == []


class _Resolved(Exception):
    pass


@pytest.mark.parametrize(
    "argv",
    [a for a, uses in FLAG_USE.items() if uses and a[0] != "cache"],
    ids=" ".join,
)
def test_used_session_flags_reach_the_session(argv, tmp_path, monkeypatch):
    """Every flag a command accepts configures the session it builds."""
    from repro import cli
    from repro.engine import QUICK_SCALE

    seen = {}

    def session(scale, cache_dir=None, jobs=1, telemetry=None, retry=None):
        seen.update(scale=scale, cache_dir=cache_dir, jobs=jobs,
                    telemetry=telemetry)
        raise _Resolved

    monkeypatch.setattr(cli, "SimulationSession", session)
    values = _flag_args(tmp_path)
    uses = FLAG_USE[argv]
    with pytest.raises(_Resolved):
        main([a for f in sorted(uses) for a in (f, *values[f])] + [*argv])
    assert (seen["scale"] is QUICK_SCALE) == ("--quick" in uses)
    assert seen["jobs"] == (2 if "--jobs" in uses else 1)
    for flag, key in (("--cache-dir", "cache_dir"),
                      ("--telemetry", "telemetry")):
        want = values[flag][0] if flag in uses else None
        assert seen[key] == want, flag


def test_cli_run_memory_hierarchy(capsys):
    rc = main(["--quick", "run", "--policy", "SMT", "--workload", "llll",
               "--threads", "2", "--memory", "l2"])
    assert rc == 0
    out = capsys.readouterr().out
    # summary JSON first, then the per-level breakdown
    assert json.loads(out[: out.index("memory hierarchy")])["ipc"] > 0
    assert "l2:" in out and "dram:" in out


def test_cli_mem_report(capsys):
    rc = main(["--quick", "mem", "--policy", "SMT", "--workload", "llll",
               "--threads", "2", "--memory", "paper", "l2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Memory sensitivity" in out
    assert "paper" in out and "l2" in out


# ------------------------------------------------------------------ report
def _fake_results():
    return {
        "fig13a": [
            {"benchmark": "mcf", "ilp": "l", "description": "d",
             "ipcr": 1.1, "ipcp": 1.6, "paper_ipcr": 0.96,
             "paper_ipcp": 1.34},
        ],
        "fig14": [
            {"threads": 2, "workload": "llll", "NS": 1.0, "AS": 2.0},
            {"threads": 2, "workload": "avg", "NS": 1.0, "AS": 2.0},
        ],
        "fig15": [
            {"threads": 4, "workload": "avg", "COSI NS": 1.0,
             "COSI AS": 2.0, "OOSI NS": 3.0, "OOSI AS": 4.0},
        ],
        "fig16": [
            {"threads": 2, "policy": "CSMT", "ipc": 3.5},
            {"threads": 4, "policy": "CSMT", "ipc": 4.5},
        ],
        "claims": [
            {"name": "x", "paper": 6.1, "measured": 2.0, "holds": True},
        ],
    }


def test_render_report_structure():
    text = render_report(_fake_results(), "test scale")
    assert "# EXPERIMENTS" in text
    assert "Fig. 13a" in text and "Fig. 14" in text
    assert "Fig. 15" in text and "Fig. 16" in text
    assert "holds" in text
    assert "Known divergences" in text
    assert "| mcf | l | 0.96 | 1.10 | 1.34 | 1.60 |" in text
