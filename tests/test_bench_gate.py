"""The core-speed benchmark's baseline gate (``benchmarks/bench_core.py``).

Only ``check_baseline`` is exercised: no scenario is timed.  A gated
metric the baseline holds must be compared against its floor, and one
missing from the run must fail the gate rather than be skipped, so a
dropped or renamed column cannot disarm it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_core.py"


@pytest.fixture(scope="module")
def bench_core():
    spec = importlib.util.spec_from_file_location("bench_core", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {"scenarios": [{"label": "s", "spec_cps": 1000.0}]}
    ))
    return path


def test_gate_passes_above_floor_and_fails_below(bench_core, baseline):
    assert bench_core.check_baseline(
        [{"label": "s", "spec_cps": 800.0}], baseline, 0.25
    ) == 0
    assert bench_core.check_baseline(
        [{"label": "s", "spec_cps": 700.0}], baseline, 0.25
    ) == 1


def test_gated_metric_missing_from_run_fails(bench_core, baseline, capsys):
    assert bench_core.check_baseline([{"label": "s"}], baseline, 0.25) == 1
    assert "spec_cps (missing)" in capsys.readouterr().err


def test_metric_absent_from_baseline_is_not_gated(bench_core, tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"scenarios": [{"label": "s"}]}))
    assert bench_core.check_baseline([{"label": "s"}], path, 0.25) == 0
