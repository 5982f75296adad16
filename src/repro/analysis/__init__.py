"""Static verification for the simulation stack (``repro lint``).

Two AST-based passes over one :class:`~repro.analysis.base.Finding`
currency (``docs/analysis.md`` has the full catalogue):

* :mod:`~repro.analysis.loopcheck` — prove every generated
  specialised run loop well-formed before it is ever ``exec()``'d:
  closed free-name set, provable loop exits, and every unrolled
  per-cluster arm and priority rotation consistent with the loop's
  shape (the scenario's numbers are bound from ``proc``, not inlined).
  Hooked into ``specialize.get_specialized_loop`` (strict mode rejects
  a bad generation instead of executing it).
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
from .loopcheck import LoopVerificationError, check_matrix, check_source
from .report import build_report, render_findings, write_report

PASSES = ("detlint", "loopcheck")

__all__ = [
    "DETLINT_RULES",
    "FileContext",
    "Finding",
    "LoopVerificationError",
    "PASSES",
    "Rule",
    "build_report",
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
) -> tuple[list[Finding], dict[str, object]]:
    """Run the selected passes (default: both).

    Returns ``(findings, stats)`` where ``stats`` carries per-pass
    coverage numbers for the JSON report (matrix cells swept, distinct
    loops verified, files linted).  Raises :class:`ValueError` before
    any pass runs on an unknown pass, on ``paths`` without ``detlint``
    (the only pass that reads them) or on a path that does not exist.
    """
    selected = list(select) if select else list(PASSES)
    unknown = sorted(set(selected) - set(PASSES))
    if unknown:
        raise ValueError(
            f"unknown lint pass(es) {unknown}; choose from {PASSES}"
        )
    if paths and "detlint" not in selected:
        raise ValueError(
            "paths given without detlint selected (only detlint reads them)"
        )
    targets = [Path(p) for p in paths] if paths else [package_root()]
    missing = [str(t) for t in targets if not t.exists()]
    if missing:
        raise ValueError(f"no such lint path(s): {', '.join(missing)}")
    findings: list[Finding] = []
    stats: dict[str, object] = {}
    if "detlint" in selected:
        findings.extend(lint_paths(targets))
        stats["detlint_paths"] = [str(t) for t in targets]
    if "loopcheck" in selected:
        report = check_matrix()
        findings.extend(report.findings)
        stats["loopcheck_cells"] = report.cells
        stats["loopcheck_unique_loops"] = report.unique_loops
    return findings, stats
