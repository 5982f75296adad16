"""Static verification of generated specialised run loops.

:func:`repro.pipeline.specialize.generate_loop_source` emits the
*source* of a monomorphic run loop per
:class:`~repro.pipeline.specialize.LoopShape` and ``exec()``s it.
This pass proves three properties of that source **before** it ever
executes:

* **closed free-name set** — the generated function may reach data
  only through its own parameters (``proc`` and the two run knobs) and
  an approved builtin set (:data:`APPROVED_BUILTINS`); any other free
  name (a module global, a stray builtin, an injected identifier)
  is a finding.  Together with a module body that contains nothing but
  the one ``def``, this pins the loop to proc-reachable state.  Every
  number of the scenario (target, cycle limit, timeslice, penalties,
  L1 geometry, packed capacity, guard mask) is bound from ``proc`` in
  the loop's setup block, never inlined, so both run-loop tiers read
  it from the same object.
* **provable exit edges** — every ``while`` with a constant-true test
  must contain a ``break``/``return``/``raise`` at its own nesting
  level (the generator never emits one today, so any ``while True``
  is itself suspect).
* **structural literal consistency** — the only constants the
  generator inlines encode the shape: inside an unrolled per-cluster
  arm (``if mem & 4:``, ``if pm & 4:``, ``if avail & 4:``) every row
  index, store-mask bit and issued bit must name the arm's own
  cluster, the arms must cover exactly the shape's clusters, and the
  baked priority rotation and its per-cycle selector must be
  ``make_priority``'s.

All checks read one traversal of the loop's AST (:class:`_Walk`).

:func:`check_source` verifies one shape's source;
:func:`check_matrix` sweeps the full ``MACHINE_PRESETS`` ×
``MEMORY_PRESETS`` × perfect memory × priority × policy × nt ×
multitasking matrix, deduped by
:func:`~repro.pipeline.specialize.loop_key` (the shape, which is all
the generator receives).  ``specialize.get_specialized_loop`` runs
:func:`check_source` before ``exec()`` on every fresh generation; under
``REPRO_SPECIALIZE_STRICT=1`` a finding raises
:class:`LoopVerificationError`, otherwise the shape is memoised as
rejected and falls back to ``_run_reference``, the other of the two
run-loop tiers.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import Counter
from itertools import product
from typing import Any, Iterator, Sequence

from .base import Finding
from ..arch.config import MEMORY_PRESETS, MachineConfig
from ..arch.scenarios import MACHINE_PRESETS, get_scenario
from ..core.policies import ALL_POLICIES, Policy
from ..core.priority import make_priority
from ..pipeline import specialize
from ..pipeline.params import SimParams
from ..pipeline.specialize import LoopShape

#: builtins the generated loop may call (everything else it needs is
#: bound from ``proc`` attributes in its own setup block)
APPROVED_BUILTINS = frozenset({"bool"})

#: the generated function's exact parameter list
EXPECTED_PARAMS = ("proc", "max_cycles", "stop_on_target")

ORIGIN = "loopcheck"


class LoopVerificationError(Exception):
    """A generated run loop failed static verification."""

    def __init__(self, findings: Sequence[Finding]):
        self.findings = list(findings)
        rules = sorted({f.rule for f in self.findings})
        super().__init__(
            f"generated loop failed verification ({', '.join(rules)}): "
            + "; ".join(f.message for f in self.findings[:3])
        )


def _find(
    rule: str, message: str, label: str, line: int = 0
) -> Finding:
    return Finding(rule, message, label, line, origin=ORIGIN)


# ------------------------------------------------------------- one walk
#: names whose ``<name> & <bit>`` test opens one cluster's arm of an
#: unrolled per-cluster scan (data probe, bundle merge, op count)
_ARM_MASKS = frozenset({"mem", "pm", "avail"})

#: per-cluster rows (bundle tables, address columns) an arm indexes
#: with its own cluster number
_CLUSTER_ROWS = frozenset({"b_packed", "b_nops", "cols"})


#: fields that hold only operator/context tokens, never a subtree
#: that can bind, load or inline anything
_LEAF_FIELDS = frozenset({"ctx", "op", "ops"})

#: per-node-type child fields, minus :data:`_LEAF_FIELDS`
_CHILD_FIELDS: dict[type[ast.AST], tuple[str, ...]] = {}


def _int_const(node: ast.expr) -> int | None:
    """An int literal, negated ones (``-1`` parses as a unary minus)
    included."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _int_const(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return int(node.value)
    return None


def _name_of(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else None


def _threads_index(node: ast.expr) -> int | None:
    if isinstance(node, ast.Subscript) and _name_of(node.value) == "threads":
        return _int_const(node.slice)
    return None


def _order_tuple(node: ast.expr) -> tuple[int, ...] | None:
    if not isinstance(node, ast.Tuple):
        return None
    idx = [_threads_index(e) for e in node.elts]
    if any(i is None for i in idx):
        return None
    return tuple(i for i in idx if i is not None)


def _arm_bit(test: ast.expr) -> int | None:
    """The bit of an unrolled arm's ``<mask> & <bit>`` test."""
    if (
        isinstance(test, ast.BinOp)
        and isinstance(test.op, ast.BitAnd)
        and _name_of(test.left) in _ARM_MASKS
    ):
        return _int_const(test.right)
    return None


class _Walk:
    """Everything the checks need from the loop, gathered in a single
    traversal of its AST: the bound-name, free-load, loop-exit and
    literal passes all read this instead of walking the tree again.

    The traversal carries the enclosing unrolled arm: inside ``if mem
    & 4:`` every per-cluster row index, store-mask bit and ``avail |=``
    bit must name that same cluster (``arm_pairs``)."""

    def __init__(self, fn: ast.FunctionDef) -> None:
        args = fn.args
        self.bound = {a.arg for a in args.args}
        self.bound.update(a.arg for a in args.posonlyargs)
        self.bound.update(a.arg for a in args.kwonlyargs)
        if args.vararg:
            self.bound.add(args.vararg.arg)
        if args.kwarg:
            self.bound.add(args.kwarg.arg)
        self.stores: Counter[str] = Counter()
        self.augs: Counter[str] = Counter()
        #: name (or AugAssign target) reads: name -> first line
        self.loads: dict[str, int] = {}
        #: lines of ``while <true constant>`` loops with no own exit
        self.unbounded: list[int] = []
        #: bits of every ``<mask> & <bit>`` test and ``avail |= <bit>``
        self.cluster_bits: set[int] = set()
        #: full priority tuples: Assign to thread_order / order_tabs
        self.order_tuples: list[tuple[tuple[int, ...], ...]] = []
        #: rotation selectors: (``"&"`` or ``"%"``, constant, line)
        #: of ``cycle & <n - 1>`` / ``cycle % <n>``
        self.order_sel: list[tuple[str, int, int]] = []
        #: (site, arm bit, site bit, line) inside unrolled arms
        self.arm_pairs: list[tuple[str, int, int, int]] = []
        #: (row name, constant index, line)
        self.row_indices: list[tuple[str, int, int]] = []
        self._run(fn)

    def _load(self, name: str, line: int) -> None:
        first = self.loads.get(name)
        if first is None or line < first:
            self.loads[name] = line

    def _run(self, fn: ast.FunctionDef) -> None:
        # nodes are dispatched on their exact type, which mypy cannot
        # narrow through ``t``, so the stack holds them as Any
        todo: list[tuple[Any, int]] = [(fn, 0)]
        pop = todo.pop
        push = todo.append
        AST = ast.AST
        while todo:
            node, arm = pop()
            t = type(node)
            if t is ast.Name:
                if type(node.ctx) is ast.Load:
                    self._load(node.id, node.lineno)
                else:
                    self.stores[node.id] += 1
                continue
            if t is ast.Constant:
                continue
            if t is ast.If:
                bit = _arm_bit(node.test)
                if bit is not None:
                    push((node.test, arm))
                    for stmt in node.body:
                        push((stmt, bit))
                    for stmt in node.orelse:
                        push((stmt, arm))
                    continue
            elif t is ast.BinOp:
                self._binop(node, arm)
            elif t is ast.Subscript:
                name = _name_of(node.value)
                if name in _CLUSTER_ROWS:
                    idx = _int_const(node.slice)
                    if idx is not None:
                        self.row_indices.append((name, idx, node.lineno))
                        if arm:
                            self.arm_pairs.append(
                                (
                                    f"{name}[...] bit",
                                    arm,
                                    1 << idx if idx >= 0 else 0,
                                    node.lineno,
                                )
                            )
            elif t is ast.Assign:
                self._assign(node)
            elif t is ast.AugAssign:
                self._augassign(node, arm)
            elif t is ast.While:
                test = node.test
                if (
                    isinstance(test, ast.Constant)
                    and test.value
                    and not _has_own_level_exit(node)
                ):
                    self.unbounded.append(node.lineno)
            elif t in (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef):
                if node is not fn:
                    self.bound.add(node.name)
            elif t is ast.alias:
                self.bound.add((node.asname or node.name).split(".")[0])
            elif t is ast.ExceptHandler and node.name:
                self.bound.add(node.name)
            fields = _CHILD_FIELDS.get(t)
            if fields is None:
                fields = _CHILD_FIELDS[t] = tuple(
                    f for f in t._fields if f not in _LEAF_FIELDS
                )
            for f in fields:
                value = getattr(node, f, None)
                if type(value) is list:
                    for child in value:
                        if isinstance(child, AST):
                            push((child, arm))
                elif isinstance(value, AST):
                    push((value, arm))

    # -- structural literal sites --------------------------------------
    def _assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            return
        name = _name_of(node.targets[0])
        v = node.value
        if name == "thread_order":
            one = _order_tuple(v)
            if one is not None:
                self.order_tuples.append((one,))
        elif name == "order_tabs" and isinstance(v, ast.Tuple):
            tabs = [_order_tuple(e) for e in v.elts]
            if all(tab is not None for tab in tabs):
                self.order_tuples.append(
                    tuple(tab for tab in tabs if tab is not None)
                )

    def _augassign(self, node: ast.AugAssign, arm: int) -> None:
        target = node.target
        if not isinstance(target, ast.Name):
            return
        name = target.id
        self.augs[name] += 1
        self._load(name, target.lineno)
        if name == "avail" and isinstance(node.op, ast.BitOr):
            bit = _int_const(node.value)
            if bit is not None:
                self.cluster_bits.add(bit)
                if arm:
                    self.arm_pairs.append(
                        ("avail |=", arm, bit, node.lineno)
                    )

    def _binop(self, node: ast.BinOp, arm: int) -> None:
        left = _name_of(node.left)
        value = _int_const(node.right)
        if left is None or value is None:
            return
        op = type(node.op)
        line = node.lineno
        if op is ast.BitAnd:
            if left in _ARM_MASKS or left == "store_mask":
                self.cluster_bits.add(value)
                if left == "store_mask" and arm:
                    self.arm_pairs.append(
                        ("store_mask &", arm, value, line)
                    )
            elif left == "cycle":
                self.order_sel.append(("&", value, line))
        elif op is ast.Mod and left == "cycle":
            self.order_sel.append(("%", value, line))

    # -- derived views -------------------------------------------------
    def bound_names(self) -> set[str]:
        """Every name the function binds: parameters plus all Store/Del
        contexts (assignments, loop targets, walrus, comprehensions,
        ``with``/``except`` aliases, nested defs/imports).

        ``AugAssign`` targets do NOT count: ``x += 1`` requires a prior
        binding (else ``UnboundLocalError``), so a name whose only
        "binding" is augmented is free for our purposes."""
        augs = self.augs
        return self.bound | {
            n for n, c in self.stores.items() if c > augs.get(n, 0)
        }

    def free_loads(self) -> dict[str, int]:
        """Free (unbound) name reads: ``name -> first line``.  An
        ``AugAssign`` target counts as a read — ``x += 1`` loads ``x``
        even though the AST gives the target Store context."""
        bound = self.bound_names()
        return {n: ln for n, ln in self.loads.items() if n not in bound}


# ---------------------------------------------- structural literal checks
def _check_literals(
    walk: _Walk, shape: LoopShape, label: str
) -> list[Finding]:
    """The constants that encode structure: every unrolled arm names
    its own cluster, the arms cover exactly the shape's clusters, and
    the priority rotation is ``make_priority``'s."""
    findings: list[Finding] = []

    def literal(message: str, line: int = 0) -> None:
        findings.append(_find("loopcheck-literal", message, label, line))

    def mismatch(kind: str, want: object, got: object, line: int) -> None:
        literal(
            f"inlined {kind} literal {got!r} does not match the "
            f"shape-derived value {want!r}",
            line,
        )

    n_clusters = shape.n_clusters
    # an unrolled arm's row indices, store-mask bits and issued bits
    # must all name the cluster its own mask test selects
    for site, arm, got, line in walk.arm_pairs:
        if got != arm:
            mismatch(f"{site} inside the `& {arm}` arm", arm, got, line)
    for name, idx, line in walk.row_indices:
        if not 0 <= idx < n_clusters:
            mismatch(f"{name} cluster index", f"< {n_clusters}", idx, line)

    want_bits = {1 << c for c in range(n_clusters)}
    if not walk.cluster_bits:
        literal(
            "expected an unrolled per-cluster data probe "
            "(`mem & <bit>` tests) but found none"
        )
    elif walk.cluster_bits != want_bits:
        literal(
            "unrolled cluster mask bits "
            f"{sorted(walk.cluster_bits)} do not cover exactly "
            f"{sorted(want_bits)} (n_clusters mismatch)"
        )

    # priority rotation: the setup block must bake the exact orders,
    # and the per-cycle selector must index all of them
    orders = make_priority(shape.priority, shape.n_threads).orders
    if not walk.order_tuples:
        literal("no precomputed thread_order/order_tabs tuple found")
    elif walk.order_tuples[0] != orders:
        literal(
            f"priority rotation {walk.order_tuples[0]!r} does not "
            f"match make_priority(...).orders {orders!r}"
        )
    want_sel = {"&": len(orders) - 1, "%": len(orders)}
    for op, value, line in walk.order_sel:
        if value != want_sel[op]:
            mismatch(f"rotation selector `cycle {op}`", want_sel[op],
                     value, line)
    return findings


# ---------------------------------------------------------- loop bounds
def _has_own_level_exit(loop: ast.While) -> bool:
    """Is there a break/return/raise belonging to *this* loop?"""
    todo: list[ast.stmt] = list(loop.body)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, (ast.Break, ast.Return, ast.Raise)):
            return True
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            continue  # a break in there exits the inner loop only
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                todo.append(child)
    return False


# ------------------------------------------------------------ entry points
def check_source(
    shape: LoopShape,
    source: str,
    label: str = "<generated>",
) -> list[Finding]:
    """Statically verify one generated loop source against the shape
    it was generated for.  Returns findings (empty = verified)."""
    try:
        tree = ast.parse(source, filename=label)
    except SyntaxError as e:
        return [
            _find(
                "loopcheck-structure",
                f"generated source does not parse: {e.msg}",
                label,
                e.lineno or 0,
            )
        ]
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    extra = [n for n in tree.body if not isinstance(n, ast.FunctionDef)]
    findings: list[Finding] = []
    if extra:
        findings.append(
            _find(
                "loopcheck-structure",
                "generated module contains statements other than the "
                "loop definition (module-level code would run at "
                "exec() time)",
                label,
                extra[0].lineno,
            )
        )
    if len(fns) != 1 or fns[0].name != specialize.LOOP_NAME:
        findings.append(
            _find(
                "loopcheck-structure",
                f"expected exactly one def {specialize.LOOP_NAME!r}, "
                f"found {[f.name for f in fns]!r}",
                label,
            )
        )
        return findings
    fn = fns[0]
    got_params = tuple(a.arg for a in fn.args.args)
    if got_params != EXPECTED_PARAMS:
        findings.append(
            _find(
                "loopcheck-structure",
                f"loop parameters {got_params!r} != {EXPECTED_PARAMS!r}",
                label,
                fn.lineno,
            )
        )

    walk = _Walk(fn)
    for name, line in sorted(walk.free_loads().items()):
        if name not in APPROVED_BUILTINS:
            findings.append(
                _find(
                    "loopcheck-free-name",
                    f"free name {name!r}: the generated loop may only "
                    "reach proc-reachable state, inlined literals and "
                    f"the approved builtins {sorted(APPROVED_BUILTINS)}",
                    label,
                    line,
                )
            )

    for line in walk.unbounded:
        findings.append(
            _find(
                "loopcheck-unbounded",
                "while with a constant-true test and no break/return/"
                "raise at its own level can never terminate",
                label,
                line,
            )
        )
    findings.extend(_check_literals(walk, shape, label))
    return findings


#: the run-parameter axes of the matrix: thread counts, benchmarks per
#: thread (1 = no multitasking), and the two :class:`SimParams` knobs a
#: shape reads besides the timeslice's sign
THREADS = (1, 2, 4)
BENCHES = (1, 4)
PERFECT_MEMORY = (False, True)
PRIORITIES = ("round-robin", "fixed")


def iter_matrix() -> Iterator[
    tuple[Policy, MachineConfig, SimParams, int, int, str]
]:
    """Every (policy, cfg, params, nt, nb, label) cell of the full
    machine × memory × perfect memory × priority × policy × nt ×
    multitasking matrix.  No scenario collapses the timeslice to 0, so
    the default one stands for all of them."""
    params_axis = [
        SimParams(perfect_memory=perfect, priority=priority)
        for perfect in PERFECT_MEMORY
        for priority in PRIORITIES
    ]
    for mach in sorted(MACHINE_PRESETS):
        for mem in sorted(MEMORY_PRESETS):
            cfg = get_scenario(f"{mach}+{mem}").machine
            for params, policy, nt, nb in product(
                params_axis, ALL_POLICIES, THREADS, BENCHES
            ):
                perfect = "perfect/" if params.perfect_memory else ""
                label = (
                    f"<{policy.name}/{mach}+{mem}/{perfect}"
                    f"{params.priority}/nt{nt}/nb{nb}>"
                )
                yield policy, cfg, params, nt, nb, label


@dataclasses.dataclass
class MatrixReport:
    """Result of a full-matrix loopcheck sweep."""

    findings: list[Finding]
    cells: int
    unique_loops: int

    @property
    def clean(self) -> bool:
        return not self.findings


def check_matrix() -> MatrixReport:
    """Generate and verify every distinct loop of the preset matrix.

    Cells are deduped by :func:`specialize.loop_key`: the key is the
    cell's :class:`~repro.pipeline.specialize.LoopShape`, the
    generator's only input, so key-equal cells share one source."""
    findings: list[Finding] = []
    seen: set[tuple[object, ...]] = set()
    cells = 0
    for policy, cfg, params, nt, nb, label in iter_matrix():
        cells += 1
        key = specialize.loop_key(policy, cfg, params, nt, nb)
        if key in seen:
            continue
        seen.add(key)
        source = specialize.generate_loop_source(key)
        findings.extend(check_source(key, source, label))
    return MatrixReport(findings, cells, len(seen))
