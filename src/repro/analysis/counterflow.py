"""Cross-tier counter-flow analysis.

The three run-loop tiers — ``Processor._run_reference`` (the semantic
oracle), ``Processor._run_fast`` and the specialised codegen loop —
must produce bit-identical :class:`~repro.pipeline.stats.SimStats` /
``BenchStats``.  The dynamic gate for that is the bit-identity test
matrix; this pass is its zero-cost static companion: extract, per
tier, the set of counter names the tier's code (entry function plus
every helper it reaches) can ever write, and fail if one tier writes
a counter another tier doesn't — unless the omission is *provably
constant* for that cell shape.

Two structural allowances, both re-derived from the spec rather than
asserted:

* ``attribution`` is written only by the reference loop:
  ``Processor.run`` pins ``attribute=True`` runs to the reference tier
  by contract, so the other tiers can never reach a cell that needs it.
* a no-split policy (``policy.split == "none"``) can never split an
  instruction or buffer a store, so ``split_instructions`` and
  ``stall_cycles`` are constant zero and the specialised loop may omit
  them (the generic tiers still carry the statements; the policy
  invariant is what proves them dead).

The extraction is AST-only: attribute writes to stats-like receivers
(``stats.x``, ``self.stats.x``, ``bstats.x``, ``bench.stats.x`` …,
plus ``packet_threads[...]`` subscript stores), chased through a
name-based call graph of ``Processor`` methods; the specialised tier
is analysed from freshly generated source per policy shape.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Mapping

from .base import Finding
from ..arch.config import PAPER_MACHINE
from ..core.policies import ALL_POLICIES
from ..pipeline import processor as processor_mod
from ..pipeline import specialize
from ..pipeline.processor import SimParams

ORIGIN = "counterflow"

#: counters a tier may legitimately write while the others never do,
#: with the structural reason
EXCLUSIVE: dict[str, str] = {
    # Processor.run dispatches attribute=True to the reference loop
    # unconditionally, so only the oracle ever materialises it
    "attribution": "reference",
}

#: counters that are constant zero whenever the policy cannot split
NO_SPLIT_CONSTANT = frozenset({"split_instructions", "stall_cycles"})


@dataclasses.dataclass(frozen=True)
class CounterSet:
    """Statically-written counter names of one tier."""

    tier: str
    sim: frozenset[str]
    bench: frozenset[str]


def _attr_path(node: ast.expr) -> tuple[str, ...]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _classify(target: ast.expr) -> tuple[str, str] | None:
    """``("sim"|"bench", counter)`` if ``target`` is a stats write."""
    if isinstance(target, ast.Subscript):
        base = target.value
        path = _attr_path(base)
        if path and path[-1] == "packet_threads":
            return "sim", "packet_threads"
        return None
    if not isinstance(target, ast.Attribute):
        return None
    path = _attr_path(target)
    if len(path) < 2:
        return None
    recv, counter = path[:-1], path[-1]
    if recv[-1] == "bstats" or (recv[-1] == "stats" and "bench" in recv):
        return "bench", counter
    if recv[-1] == "stats" and (
        len(recv) == 1 or recv == ("self", "stats")
    ):
        return "sim", counter
    return None


def _writes(fn: ast.AST) -> tuple[set[str], set[str]]:
    sim: set[str] = set()
    bench: set[str] = set()
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for t in targets:
            hit = _classify(t)
            if hit is not None:
                (sim if hit[0] == "sim" else bench).add(hit[1])
    return sim, bench


def _called_methods(fn: ast.AST) -> set[str]:
    """Names of ``self._x()`` / ``proc._x()`` calls plus bare calls to
    names the specialised setup binds to processor methods."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute):
            path = _attr_path(f)
            if len(path) == 2 and path[0] in ("self", "proc"):
                out.add(path[1])
        elif isinstance(f, ast.Name) and f.id == "fast_forward":
            # generated setup: fast_forward = proc._fast_forward
            out.add("_fast_forward")
    return out


def _processor_methods() -> dict[str, ast.FunctionDef]:
    src = Path(processor_mod.__file__).read_text(encoding="utf-8")
    tree = ast.parse(src, filename=processor_mod.__file__)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Processor":
            return {
                f.name: f
                for f in node.body
                if isinstance(f, ast.FunctionDef)
            }
    raise RuntimeError("class Processor not found in processor.py")


def _closure_writes(
    entry: ast.AST, methods: Mapping[str, ast.FunctionDef]
) -> tuple[set[str], set[str]]:
    """Writes of ``entry`` plus every reachable helper method."""
    sim, bench = _writes(entry)
    seen: set[str] = set()
    todo = list(_called_methods(entry))
    while todo:
        name = todo.pop()
        if name in seen or name not in methods:
            continue
        seen.add(name)
        s, b = _writes(methods[name])
        sim |= s
        bench |= b
        todo.extend(_called_methods(methods[name]))
    return sim, bench


def tier_counter_sets() -> list[CounterSet]:
    """Extract the counter write-sets of every tier.

    The specialised tier is shape-dependent, so it contributes one
    set per policy (``specialized:<policy>``), generated fresh from
    the current generator with multitasking on (the superset shape).
    """
    methods = _processor_methods()
    out: list[CounterSet] = []
    for tier, entry in (
        ("reference", "_run_reference"),
        ("fast", "_run_fast"),
    ):
        sim, bench = _closure_writes(methods[entry], methods)
        out.append(CounterSet(tier, frozenset(sim), frozenset(bench)))
    params = SimParams()
    for policy in ALL_POLICIES:
        src = specialize.generate_loop_source(
            policy, PAPER_MACHINE, params, 4, 4
        )
        fn = ast.parse(src).body[-1]
        sim, bench = _closure_writes(fn, methods)
        out.append(
            CounterSet(
                f"specialized:{policy.name}",
                frozenset(sim),
                frozenset(bench),
            )
        )
    return out


def compare_counter_sets(
    sets: Iterable[CounterSet],
) -> list[Finding]:
    """The actual contract check, separated for testability: feed it
    corrupted sets and it must object."""
    by_tier = {s.tier: s for s in sets}
    ref = by_tier["reference"]
    fast = by_tier["fast"]
    findings: list[Finding] = []

    def find(message: str) -> None:
        findings.append(
            Finding("counterflow", message, "processor.py", 0, ORIGIN)
        )

    def allowed_only_in(tier: str, counter: str) -> bool:
        owner = EXCLUSIVE.get(counter)
        return owner is not None and tier.startswith(owner)

    # reference vs fast must agree exactly (modulo exclusives)
    for kind in ("sim", "bench"):
        r: frozenset[str] = getattr(ref, kind)
        f: frozenset[str] = getattr(fast, kind)
        for c in sorted(r - f):
            if not allowed_only_in("reference", c):
                find(
                    f"{kind} counter {c!r} is written by the reference "
                    "loop but never by _run_fast"
                )
        for c in sorted(f - r):
            if not allowed_only_in("fast", c):
                find(
                    f"{kind} counter {c!r} is written by _run_fast but "
                    "never by the reference loop"
                )

    # each specialised shape: no extras, omissions only when the
    # policy shape proves the counter constant
    policies = {p.name: p for p in ALL_POLICIES}
    for tier, cs in by_tier.items():
        if not tier.startswith("specialized:"):
            continue
        policy = policies.get(tier.split(":", 1)[1])
        no_split = policy is not None and policy.split == "none"
        for c in sorted(cs.sim - fast.sim):
            find(
                f"specialised loop ({tier}) writes sim counter {c!r} "
                "that _run_fast never writes"
            )
        for c in sorted(fast.sim - cs.sim):
            if allowed_only_in("fast", c):
                continue
            if no_split and c in NO_SPLIT_CONSTANT:
                continue  # provably constant: the policy cannot split
            find(
                f"specialised loop ({tier}) never writes sim counter "
                f"{c!r} and the policy shape does not prove it "
                "constant"
            )
        for c in sorted(cs.bench ^ fast.bench):
            find(
                f"specialised loop ({tier}) and _run_fast disagree on "
                f"bench counter {c!r}"
            )
    return findings


def check_counterflow() -> list[Finding]:
    """Extract and compare the tiers' counter write-sets."""
    return compare_counter_sets(tier_counter_sets())
