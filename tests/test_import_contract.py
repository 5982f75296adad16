"""What a command imports: a warm command loads only the layers it runs.

Package ``__init__`` modules re-export their public names lazily
(``repro._lazy``), and the engine imports the simulator, the compiler,
the functional VM and multiprocessing only where it uses them.  These
tests pin that contract from outside: a subprocess running a warm
command must not load those layers, a cold one must not load numpy,
every ``__all__`` name must still resolve, and every wrap point the
end-to-end tracer instruments must still exist.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import logging
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.kernels import suite

SRC = Path(repro.__file__).resolve().parent.parent
TRACER = SRC.parent / "perfbench" / "tracer.py"

#: modules a warm command served from the store must never load
HEAVY = (
    "repro.compiler",
    "repro.vm",
    "repro.pipeline.processor",
    "repro.pipeline.specialize",
    "repro.pipeline.trace",
    "repro.memory",
    "concurrent.futures.process",
    "multiprocessing",
    "numpy",
)

_DUMP_MODULES = """
import json, sys
from repro.cli import main
rc = main(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    json.dump(sorted(sys.modules), f)
raise SystemExit(rc)
"""


def _packages() -> list[str]:
    return ["repro"] + sorted(
        m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
        if m.ispkg
    )


@pytest.fixture
def cli_logging():
    """Restore the ``repro`` logger tree the in-process CLI configures."""
    log = logging.getLogger("repro")
    saved = log.level, log.propagate, list(log.handlers)
    yield
    log.setLevel(saved[0])
    log.propagate = saved[1]
    log.handlers[:] = saved[2]


def _run_in_subprocess(tmp_path: Path, args: list[str]) -> tuple[str, set]:
    """Stdout and final ``sys.modules`` of ``repro ARGS`` in a fresh
    interpreter."""
    dump = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    run = subprocess.run(
        [sys.executable, "-c", _DUMP_MODULES, str(dump), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout, set(json.loads(dump.read_text()))


def test_warm_run_loads_no_simulation_layer(tmp_path, capsys, cli_logging):
    args = [
        "--quick", "--cache-dir", str(tmp_path / "store"), "run",
        "--policy", "SMT", "--workload", "llll", "--threads", "2",
    ]
    # a memo hit would skip the store, leaving its index unwritten
    suite.clear_trace_cache()
    assert cli_main(args) == 0
    cold_out = capsys.readouterr().out

    warm_out, loaded = _run_in_subprocess(tmp_path, args)
    assert warm_out == cold_out
    heavy = sorted(
        m for m in loaded
        if any(m == h or m.startswith(h + ".") for h in HEAVY)
    )
    assert heavy == []
    # the suite's metadata table is all a warm command needs of the
    # kernels: no builder module is imported
    kernels = sorted(m for m in loaded if m.startswith("repro.kernels."))
    assert kernels == ["repro.kernels.suite"]


def test_cold_run_never_imports_numpy(tmp_path, capsys, cli_logging):
    """A cold run on an empty store compiles, records and simulates
    without numpy, and prints what the same run prints in-process."""
    run = ["run", "--policy", "CCSI AS", "--workload", "llhh",
           "--threads", "4"]
    assert cli_main(
        ["--quick", "--cache-dir", str(tmp_path / "here"), *run]
    ) == 0
    here_out = capsys.readouterr().out
    assert '"cycles"' in here_out

    cold_out, loaded = _run_in_subprocess(
        tmp_path, ["--quick", "--cache-dir", str(tmp_path / "cold"), *run]
    )
    assert cold_out == here_out
    # it did the cold work: recorded traces and simulated the cell
    assert {"repro.vm.machine", "repro.pipeline.processor"} <= loaded
    assert sorted(m for m in loaded if m.split(".")[0] == "numpy") == []


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    mod = importlib.import_module(package)
    names = getattr(mod, "__all__", ())
    for name in names:
        assert getattr(mod, name) is not None, f"{package}.{name}"
        assert name in dir(mod), f"{package}.{name}"


def test_lazy_export_is_the_defining_object():
    from repro.arch import scenarios
    from repro.pipeline import params, processor

    assert repro.SimParams is params.SimParams is processor.SimParams
    assert repro.pipeline.SimParams is params.SimParams
    assert repro.arch.machine_fingerprint is scenarios.machine_fingerprint
    with pytest.raises(AttributeError):
        repro.engine.no_such_name


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracer", TRACER
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wrap_points_resolve():
    """Every function the end-to-end tracer wraps is still bound where
    it looks: a missing one is only reported as an absent layer, and
    its span (e.g. ``runner.parent_wait_s``) silently disappears."""
    tracer = _load_tracer()
    missing = []
    for _, module, attr, _ in tracer.WRAP_POINTS:
        owner = importlib.import_module(module)
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module}.{attr}")
        else:
            assert callable(owner), f"{module}.{attr}"
    assert missing == []
