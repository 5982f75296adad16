"""CLI, waste decomposition and report generation."""

import argparse
import json
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


def test_cli_run_quick(capsys):
    rc = main(["--quick", "run", "--policy", "SMT", "--workload", "llll",
               "--threads", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ipc"] > 0


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
