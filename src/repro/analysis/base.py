"""Shared static-analysis infrastructure: findings, rules, pragmas.

Every pass in :mod:`repro.analysis` reports through one currency — the
:class:`Finding` — so the CLI, the JSON report and the tests handle
``loopcheck`` and ``detlint`` results uniformly.  Linter rules are
pluggable :class:`Rule` subclasses (``ast.NodeVisitor`` walks)
registered with the :func:`rule` decorator; a rule declares its
``name`` (the id used in pragmas and ``--select``), a one-line
``description`` for the catalogue, and an optional module-prefix
``scope`` restricting where it fires.

False positives are suppressed in the source under review with an
explicit pragma on the flagged line::

    do_risky_thing()  # repro-lint: ignore[silent-except]
    other_thing()     # repro-lint: ignore[rule-a,rule-b]
    anything_here()   # repro-lint: ignore

A bare ``ignore`` suppresses every rule on that line; the bracketed
form suppresses only the named rules.  Pragmas are per-line: they
apply to findings whose reported line is the pragma's line.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Iterable, Iterator

#: ``# repro-lint: ignore`` / ``# repro-lint: ignore[rule-a,rule-b]``
PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[([A-Za-z0-9_\-, ]*)\])?"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One verified-by-a-human-next lint result.

    ``rule`` is the stable id (pragma / ``--select`` currency),
    ``origin`` the pass that produced it (``detlint`` or
    ``loopcheck``).
    """

    rule: str
    message: str
    path: str
    line: int
    origin: str = "detlint"

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


class FileContext:
    """One parsed source file plus its suppression pragmas."""

    def __init__(self, source: str, path: str, module: str) -> None:
        self.source = source
        self.path = path
        #: dotted module name (drives :attr:`Rule.scope` matching)
        self.module = module
        self.tree = ast.parse(source, filename=path)
        #: line -> suppressed rule names (``None`` = every rule)
        self.ignores: dict[int, frozenset[str] | None] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            m = PRAGMA_RE.search(text)
            if m is None:
                continue
            names = m.group(1)
            if names is None:
                self.ignores[lineno] = None
            else:
                self.ignores[lineno] = frozenset(
                    n.strip() for n in names.split(",") if n.strip()
                )

    def suppressed(self, rule_name: str, line: int) -> bool:
        if line not in self.ignores:
            return False
        names = self.ignores[line]
        return names is None or rule_name in names


class Rule(ast.NodeVisitor):
    """Base class for pluggable detlint rules.

    Subclass, set ``name``/``description`` (and optionally ``scope``,
    a tuple of dotted module prefixes the rule is restricted to),
    override ``visit_*`` methods and call :meth:`report` on each hit.
    Register with the :func:`rule` decorator.
    """

    #: stable rule id: pragma + ``--select`` currency (kebab-case)
    name = ""
    #: one-line summary for the rule catalogue (``docs/analysis.md``)
    description = ""
    #: dotted module prefixes the rule applies to; empty = repo-wide
    scope: tuple[str, ...] = ()

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, module: str) -> bool:
        return not cls.scope or any(
            module == p or module.startswith(p + ".") for p in cls.scope
        )

    def report(self, node: ast.AST, message: str) -> None:
        line = int(getattr(node, "lineno", 0))
        if not self.ctx.suppressed(self.name, line):
            self.findings.append(
                Finding(self.name, message, self.ctx.path, line)
            )

    def run(self) -> list[Finding]:
        self.visit(self.ctx.tree)
        return self.findings


#: registry populated by the :func:`rule` decorator (import order =
#: report order; ``repro.analysis.detlint`` registers the built-ins)
DETLINT_RULES: list[type[Rule]] = []


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: register a :class:`Rule` with the linter."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} needs a non-empty name")
    if any(r.name == cls.name for r in DETLINT_RULES):
        raise ValueError(f"duplicate rule name {cls.name!r}")
    DETLINT_RULES.append(cls)
    return cls


def lint_context(
    ctx: FileContext, rules: Iterable[type[Rule]] | None = None
) -> list[Finding]:
    """Run ``rules`` (default: every registered rule whose scope
    matches the context's module) over one parsed file."""
    out: list[Finding] = []
    for cls in DETLINT_RULES if rules is None else rules:
        if cls.applies_to(ctx.module):
            out.extend(cls(ctx).run())
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    module: str = "",
    rules: Iterable[type[Rule]] | None = None,
) -> list[Finding]:
    """Lint one source string (test/fixture entry point)."""
    return lint_context(FileContext(source, path, module), rules)


def iter_package_files(root: Path) -> Iterator[tuple[Path, str]]:
    """Yield ``(path, dotted_module)`` for every ``*.py`` under the
    package directory ``root`` (whose own name is the root module)."""
    base = root.resolve()
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(base)
        parts = (base.name, *rel.parts[:-1])
        stem = rel.parts[-1][: -len(".py")]
        if stem != "__init__":
            parts = (*parts, stem)
        yield path, ".".join(parts)


def lint_paths(
    paths: Iterable[Path],
    rules: Iterable[type[Rule]] | None = None,
) -> list[Finding]:
    """Lint files and/or package directories.

    A directory is walked as a package rooted at itself; a lone file
    gets its stem as its module name (scoped rules then usually skip
    it — pass a directory for scope-accurate runs).
    """
    findings: list[Finding] = []
    rule_list = list(DETLINT_RULES if rules is None else rules)
    for p in paths:
        p = Path(p)
        if p.is_dir():
            targets = list(iter_package_files(p))
        else:
            targets = [(p, p.stem)]
        for path, module in targets:
            ctx = FileContext(
                path.read_text(encoding="utf-8"), str(path), module
            )
            findings.extend(lint_context(ctx, rule_list))
    return findings
