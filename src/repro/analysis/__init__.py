"""Static verification for the simulation stack (``repro lint``).

Three AST-based passes over one :class:`~repro.analysis.base.Finding`
currency (``docs/analysis.md`` has the full catalogue):

* :mod:`~repro.analysis.loopcheck` — prove every generated
  specialised run loop well-formed before it is ever ``exec()``'d:
  closed free-name set, provable loop exits, and every unrolled
  per-cluster arm and priority rotation consistent with the loop's
  shape (the scenario's numbers are bound from ``proc``, not inlined).
  Hooked into ``specialize.get_specialized_loop`` (strict mode rejects
  a bad generation instead of executing it).
* :mod:`~repro.analysis.counterflow` — the two run-loop tiers must
  write the same ``SimStats``/``BenchStats`` counters (or prove an
  omission constant): the static companion to the bit-identity tests.
* :mod:`~repro.analysis.detlint` — pluggable determinism/contract
  rules over the whole source tree (wall-clock reads, global RNG,
  ``id()`` keys, set-iteration order, silent excepts, mutable
  defaults, worker-raise), suppressible per line with
  ``# repro-lint: ignore[rule]``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .base import (
    DETLINT_RULES,
    FileContext,
    Finding,
    Rule,
    lint_paths,
    lint_source,
    rule,
)
from . import detlint as _detlint  # noqa: F401  (registers the rules)
from .counterflow import check_counterflow
from .loopcheck import LoopVerificationError, check_matrix, check_source
from .report import build_report, render_findings, write_report

PASSES = ("detlint", "counterflow", "loopcheck")

__all__ = [
    "DETLINT_RULES",
    "FileContext",
    "Finding",
    "LoopVerificationError",
    "PASSES",
    "Rule",
    "build_report",
    "check_counterflow",
    "check_matrix",
    "check_source",
    "lint_paths",
    "lint_source",
    "render_findings",
    "rule",
    "run_lint",
    "write_report",
]


def package_root() -> Path:
    """The installed ``repro`` package directory (detlint's default
    target: linting the package lints the repo's whole source tree)."""
    return Path(__file__).resolve().parent.parent


def run_lint(
    select: Sequence[str] | None = None,
    paths: Sequence[str | Path] | None = None,
    threads: Sequence[int] = (1, 2, 4),
) -> tuple[list[Finding], dict[str, object]]:
    """Run the selected passes (default: all three).

    Returns ``(findings, stats)`` where ``stats`` carries per-pass
    coverage numbers for the JSON report (matrix cells swept, distinct
    loops verified, files linted).
    """
    selected = list(select) if select else list(PASSES)
    unknown = sorted(set(selected) - set(PASSES))
    if unknown:
        raise ValueError(
            f"unknown lint pass(es) {unknown}; choose from {PASSES}"
        )
    findings: list[Finding] = []
    stats: dict[str, object] = {}
    if "detlint" in selected:
        targets = (
            [Path(p) for p in paths] if paths else [package_root()]
        )
        hits = lint_paths(targets)
        findings.extend(hits)
        stats["detlint_paths"] = [str(t) for t in targets]
    if "counterflow" in selected:
        findings.extend(check_counterflow())
    if "loopcheck" in selected:
        report = check_matrix(threads=threads)
        findings.extend(report.findings)
        stats["loopcheck_cells"] = report.cells
        stats["loopcheck_unique_loops"] = report.unique_loops
    return findings, stats
