"""`repro.analysis`: the static-verification layer.

Per-rule positive/negative fixtures for the determinism linter, the
pragma contract, the full-matrix loopcheck clean run, tampered-source
detection, the ``repro lint`` CLI's argument errors, and the
injected-bad-codegen path: a monkeypatched generator emitting a stray
global must be rejected *before* ``exec()`` under
``REPRO_SPECIALIZE_STRICT``, and must fall back to ``_run_reference``
(with ``loop_used`` provenance and bit-identical results) otherwise.
"""

from __future__ import annotations

import json
import logging
import re

import pytest

from repro import cli
from repro.analysis import (
    DETLINT_RULES,
    Finding,
    LoopVerificationError,
    check_matrix,
    check_source,
    lint_source,
)
from repro.analysis.base import Rule, rule
from repro.arch.scenarios import MACHINE_PRESETS
from repro.core.policies import BY_NAME
from repro.pipeline import specialize
from repro.pipeline.processor import Processor, SimParams

from test_specialize import traces_for

PAPER_CFG = MACHINE_PRESETS["paper"].machine


def rules_of(findings):
    return sorted({f.rule for f in findings})


@pytest.fixture
def fresh_cache():
    specialize.clear_cache()
    yield
    specialize.clear_cache()


# ----------------------------------------------------- detlint rules
def test_mutable_default_rule():
    bad = "def cook(steps=[], opts={}):\n    pass\n"
    hits = lint_source(bad, module="repro.x")
    assert rules_of(hits) == ["mutable-default"] and len(hits) == 2
    # private helpers and None defaults are fine
    ok = "def _cook(steps=[]):\n    pass\n\ndef cook(steps=None):\n    pass\n"
    assert lint_source(ok, module="repro.x") == []


def test_silent_except_rule():
    bad = (
        "try:\n    risky()\nexcept Exception:\n    pass\n"
        "try:\n    risky()\nexcept:\n    continue_ = 0\n    pass\n"
    )
    hits = lint_source(bad, module="repro.x")
    assert rules_of(hits) == ["silent-except"]
    assert len(hits) == 1  # the second handler has a real statement
    ok = (
        "try:\n    risky()\nexcept ValueError:\n    pass\n"
        "try:\n    risky()\nexcept Exception:\n    log.warning('x')\n"
    )
    assert lint_source(ok, module="repro.x") == []


def test_wallclock_rule_scoped():
    src = "import time\nstamp = time.time()\n"
    assert rules_of(lint_source(src, module="repro.pipeline.foo")) == [
        "wallclock"
    ]
    # telemetry timestamps outside simulator scope are fine
    assert lint_source(src, module="repro.obs.telemetry") == []
    # perf_counter is explicitly allowed even in scope
    ok = "import time\nt0 = time.perf_counter()\n"
    assert lint_source(ok, module="repro.pipeline.foo") == []


def test_unseeded_random_rule():
    bad = "import random\nx = random.random()\nr = random.Random()\n"
    hits = lint_source(bad, module="repro.core.foo")
    assert rules_of(hits) == ["unseeded-random"] and len(hits) == 2
    ok = "import random\nr = random.Random(1234)\nx = r.random()\n"
    assert lint_source(ok, module="repro.core.foo") == []


def test_id_key_rule():
    bad = "memo[id(cfg)] = loop\n"
    assert rules_of(lint_source(bad, module="repro.x")) == ["id-key"]


def test_set_iter_rule():
    bad = (
        "for name in {'a', 'b'}:\n    use(name)\n"
        "out = [f(x) for x in set(items)]\n"
    )
    hits = lint_source(bad, module="repro.engine.foo")
    assert rules_of(hits) == ["set-iter"] and len(hits) == 2
    ok = "for name in sorted({'a', 'b'}):\n    use(name)\n"
    assert lint_source(ok, module="repro.engine.foo") == []
    # out of scope (e.g. figure rendering) is not flagged
    assert lint_source(bad, module="repro.harness.figures") == []


def test_worker_raise_rule():
    bad = (
        "def work(payload):\n    raise ValueError('boom')\n"
        "def local(x):\n    raise ValueError(x)\n"
        "fut = pool.submit(work, payload)\n"
    )
    hits = lint_source(bad, module="repro.engine.runner")
    assert rules_of(hits) == ["worker-raise"] and len(hits) == 1
    ok = (
        "def work(payload):\n    return {'error': 'boom'}\n"
        "fut = pool.submit(work, payload)\n"
    )
    assert lint_source(ok, module="repro.engine.runner") == []


def test_pragma_suppresses_named_rule_only():
    line = "memo[id(cfg)] = loop"
    assert lint_source(
        line + "  # repro-lint: ignore[id-key]\n", module="repro.x"
    ) == []
    assert lint_source(
        line + "  # repro-lint: ignore\n", module="repro.x"
    ) == []
    # a pragma naming some other rule does not suppress
    hits = lint_source(
        line + "  # repro-lint: ignore[set-iter]\n", module="repro.x"
    )
    assert rules_of(hits) == ["id-key"]


def test_rule_registry_contract():
    names = [r.name for r in DETLINT_RULES]
    assert len(names) == len(set(names))
    assert all(r.description for r in DETLINT_RULES)
    # duplicate registration is rejected
    with pytest.raises(ValueError):

        @rule
        class Clash(Rule):
            name = names[0]
            description = "dup"


def test_custom_rule_plugs_in():
    class NoPrint(Rule):
        name = "no-print"
        description = "print() in library code"

        def visit_Call(self, node):
            import ast

            if isinstance(node.func, ast.Name) and node.func.id == "print":
                self.report(node, "print in library code")
            self.generic_visit(node)

    hits = lint_source("print('hi')\n", module="repro.x", rules=[NoPrint])
    assert rules_of(hits) == ["no-print"]


def test_repo_source_tree_is_clean():
    """The shipped package must lint clean (the acceptance gate CI
    enforces with ``repro lint``)."""
    from repro.analysis import run_lint

    findings, _ = run_lint(select=["detlint"])
    assert findings == []


# ------------------------------------------------------- loopcheck
def test_loopcheck_full_matrix_clean():
    """Every distinct generated loop of the machine x memory x perfect
    memory x priority x policy x nt x multitasking matrix passes static
    verification, ``perfect``-memory and ``fixed``-priority shapes
    included."""
    report = check_matrix()
    assert report.findings == []
    assert report.cells == 7680
    assert report.unique_loops == 1152


def _shape(policy="CCSI AS", nt=2, nb=2):
    params = SimParams(target_instructions=500, timeslice=200, seed=7)
    return specialize.loop_key(BY_NAME[policy], PAPER_CFG, params, nt, nb)


def test_loopcheck_accepts_real_generation():
    shape = _shape()
    src = specialize.generate_loop_source(shape)
    assert check_source(shape, src) == []


def test_loopcheck_flags_stray_free_name():
    shape = _shape()
    src = specialize.generate_loop_source(shape)
    src += "    _evil_global += 1\n"
    hits = check_source(shape, src)
    assert "loopcheck-free-name" in rules_of(hits)
    assert any("_evil_global" in f.message for f in hits)


def test_loopcheck_flags_unapproved_builtin():
    shape = _shape()
    src = specialize.generate_loop_source(shape)
    src += "    leak = globals()\n"
    hits = check_source(shape, src)
    assert rules_of(hits) == ["loopcheck-free-name"]


# every constant the unrolled per-cluster scans bake in, one site per
# case; each is mutated by -1 and +1
INLINED_SITES = [
    ("COSI AS", "pm & 1"),          # unrolled bundle-merge arm bit
    ("COSI AS", "pm & 4"),
    ("COSI AS", "avail |= 2"),      # issued-cluster bit of an arm
    ("COSI AS", "b_packed[2]"),     # arm's bundle usage index
    ("COSI AS", "b_nops[3]"),       # arm's bundle op-count index
    ("CCSI NS", "avail & 1"),       # unrolled op-count arm bit
    ("CCSI NS", "avail & 8"),
    ("CCSI NS", "b_nops[0]"),
    ("OOSI AS", "cols[1]"),         # data-probe address column
    ("SMT", "store_mask & 2"),      # data-probe store bit
]


@pytest.mark.parametrize("delta", (-1, 1))
@pytest.mark.parametrize(
    "policy,needle", INLINED_SITES, ids=lambda v: v.replace(" ", "-")
)
def test_loopcheck_flags_inlined_constant_off_by_one(policy, needle, delta):
    """Every unrolled arm's bit and row index is checked against the
    cluster its own mask test selects (so even 1 -> 2, a valid bit, is
    caught)."""
    shape = _shape(policy)
    src = specialize.generate_loop_source(shape)
    assert needle in src
    head, value, tail = re.fullmatch(r"(.*?)(\d+)(\]?)", needle).groups()
    tampered = src.replace(
        needle, f"{head}{int(value) + delta}{tail}", 1
    )
    hits = check_source(shape, tampered)
    assert rules_of(hits) == ["loopcheck-literal"]


def test_loopcheck_flags_unbounded_loop():
    shape = _shape()
    src = specialize.generate_loop_source(shape)
    src += "    while True:\n        cycle += 0\n"
    hits = check_source(shape, src)
    assert rules_of(hits) == ["loopcheck-unbounded"]
    # with a break at its own level the loop is provably exitable
    src_ok = src.replace("        cycle += 0", "        break")
    assert check_source(shape, src_ok) == []


def test_loopcheck_flags_module_level_statement():
    shape = _shape()
    src = specialize.generate_loop_source(shape)
    hits = check_source(shape, "import os\n" + src)
    assert "loopcheck-structure" in rules_of(hits)


# --------------------------------------- specializer pre-exec gating
def _corrupting_generator(monkeypatch):
    """Patch the generator to emit an otherwise-valid loop that reads
    a stray module global (the injected-bad-codegen case)."""
    real = specialize.generate_loop_source

    def corrupt(*args, **kwargs):
        return real(*args, **kwargs) + "    _evil_global += 1\n"

    monkeypatch.setattr(specialize, "generate_loop_source", corrupt)


def test_strict_rejects_injected_bad_codegen_before_exec(
    fresh_cache, monkeypatch
):
    traces = traces_for("paper")
    params = SimParams(target_instructions=500, timeslice=200, seed=7)
    _corrupting_generator(monkeypatch)
    monkeypatch.setattr(specialize, "STRICT", True)
    proc = Processor(BY_NAME["CCSI AS"], traces, 2, PAPER_CFG, params)
    with pytest.raises(LoopVerificationError) as exc:
        proc.run()
    assert any(
        f.rule == "loopcheck-free-name" for f in exc.value.findings
    )
    # rejected before exec: nothing was compiled or memoised
    assert specialize.cache_info()["compiled"] == 0


def test_nonstrict_rejection_falls_back_and_logs(
    fresh_cache, monkeypatch, caplog
):
    traces = traces_for("paper")
    params = SimParams(target_instructions=500, timeslice=200, seed=7)
    _corrupting_generator(monkeypatch)
    monkeypatch.setattr(specialize, "STRICT", False)

    with caplog.at_level(
        logging.WARNING, logger="repro.pipeline.specialize"
    ):
        proc = Processor(BY_NAME["CCSI AS"], traces, 2, PAPER_CFG, params)
        stats = proc.run()
    assert proc.loop_used == "reference"
    info = specialize.cache_info()
    assert info["rejected"] == 1 and info["failures"] == 0
    # the rejection names the rule, the cell and the loop it falls
    # back to through the repro tree
    assert any(
        "loopcheck-free-name" in r.message
        and "machine=" in r.message
        and "reference loop" in r.message
        for r in caplog.records
    )

    # bit-identical to the reference oracle despite the fallback
    ref = Processor(
        BY_NAME["CCSI AS"], traces, 2, PAPER_CFG, params,
        force_reference=True,
    ).run()
    assert stats.to_dict() == ref.to_dict()

    # the rejection is memoised: a second processor takes the memo hit
    again = Processor(BY_NAME["CCSI AS"], traces, 2, PAPER_CFG, params)
    again.run()
    assert again.loop_used == "reference"
    info = specialize.cache_info()
    assert info["rejected"] == 1 and info["hits"] == 1


# ------------------------------------------------------------- CLI
def test_cli_lint_clean_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(
        ["lint", "--select", "detlint", "--json", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["clean"] is True
    assert report["passes"] == ["detlint"]
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_lint_reports_findings(tmp_path, capsys):
    bad = tmp_path / "repro"
    bad.mkdir()
    (bad / "__init__.py").write_text("")
    (bad / "buggy.py").write_text("def api(acc=[]):\n    return acc\n")
    out = tmp_path / "report.json"
    rc = cli.main(
        ["lint", "--select", "detlint", "--paths", str(bad),
         "--json", str(out)]
    )
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["clean"] is False
    assert report["counts"] == {"mutable-default": 1}
    assert "mutable-default" in capsys.readouterr().out


def test_cli_lint_rejects_unknown_pass(capsys):
    for name in ("nonsense", "counterflow"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["lint", "--select", name])
        assert exc.value.code == 2


def test_cli_lint_rejects_paths_without_detlint(tmp_path, capsys):
    """``--paths`` feeds only detlint: with detlint not selected it is
    an error, not silently ignored."""
    rc = cli.main(
        ["lint", "--select", "loopcheck", "--paths", str(tmp_path)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert "without detlint selected" in captured.err
    assert "finding(s)" not in captured.out


def test_cli_lint_rejects_missing_path(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    rc = cli.main(["lint", "--select", "detlint", "--paths", str(missing)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"no such lint path(s): {missing}" in err
    assert "Traceback" not in err
