"""Static verification of generated specialised run loops.

:func:`repro.pipeline.specialize.generate_loop_source` emits the
*source* of a monomorphic run loop per resolved (policy, machine,
memory, nt) cell and ``exec()``s it.  This pass proves three
properties of that source **before** it ever executes:

* **closed free-name set** — the generated function may reach data
  only through its own parameters (``proc`` and the two run knobs) and
  an approved builtin set (:data:`APPROVED_BUILTINS`); any other free
  name (a module global, a stray builtin, an injected identifier)
  is a finding.  Together with a module body that contains nothing but
  the one ``def``, this pins the loop to proc-reachable state plus
  inlined literals.
* **provable exit edges** — every ``while`` with a constant-true test
  must contain a ``break``/``return``/``raise`` at its own nesting
  level (the generator never emits one today, so any ``while True``
  is itself suspect).
* **literal/spec consistency** — every constant the generator inlines
  (packed issue capacity, SWAR guard mask, cluster bit masks,
  icache-line shift, L1 set masks, data line shift, miss/branch
  penalties, timeslice, instruction target, cycle limit, priority
  rotations) is re-derived here
  *independently from the resolved spec* — ``capacity_packed`` /
  ``guards_mask`` / ``make_priority`` / the ``MachineConfig`` fields —
  and matched against the AST.  A generator bug that bakes in a stale
  or mismatched constant is rejected, not executed.  Inside an
  unrolled per-cluster arm (``if mem & 4:``, ``if pm & 4:``, ``if
  avail & 4:``) every row index, store-mask bit and issued bit must
  name the arm's own cluster.

All checks read one traversal of the loop's AST (:class:`_Walk`).

:func:`check_source` verifies one cell's source;
:func:`check_matrix` sweeps the full ``MACHINE_PRESETS`` ×
``MEMORY_PRESETS`` × policy × nt × multitasking matrix, deduped by
:func:`~repro.pipeline.specialize.loop_key` (sound because the key
contains everything the source inlines — its documented contract).
``specialize.get_specialized_loop`` runs :func:`check_source` before
``exec()`` on every fresh generation; under
``REPRO_SPECIALIZE_STRICT=1`` a finding raises
:class:`LoopVerificationError`, otherwise the cell is memoised as
rejected and falls back to ``_run_reference``, the other of the two
run-loop tiers.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import Counter
from typing import Any, Iterator, Sequence

from .base import Finding
from ..arch.config import MEMORY_PRESETS, MachineConfig
from ..arch.resources import capacity_packed, guards_mask
from ..arch.scenarios import MACHINE_PRESETS, get_scenario
from ..core.policies import ALL_POLICIES, Policy
from ..core.priority import make_priority
from ..pipeline import specialize
from ..pipeline.params import SimParams

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
        #: (kind, value, line) literal observations
        self.seen: list[tuple[str, int, int]] = []
        #: full priority tuples: Assign to thread_order / order_tabs
        self.order_tuples: list[tuple[tuple[int, ...], ...]] = []
        #: (site, arm bit, site bit, line) inside unrolled arms
        self.arm_pairs: list[tuple[str, int, int, int]] = []
        #: (row name, constant index, line)
        self.row_indices: list[tuple[str, int, int]] = []
        self._run(fn)

    def _note(self, kind: str, value: int | None, line: int) -> None:
        if value is not None:
            self.seen.append((kind, value, line))

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
            elif t is ast.Compare:
                self._compare(node)
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
            elif t is ast.Call:
                self._call(node)
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

    # -- literal sites -------------------------------------------------
    def _assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            return
        t = node.targets[0]
        name = _name_of(t)
        v = node.value
        line = node.lineno
        if name == "limit" and isinstance(v, ast.IfExp):
            self._note("max_cycles", _int_const(v.orelse), line)
        elif name == "e_remaining":
            self._note("capacity", _int_const(v), line)
        elif name == "next_switch":
            if isinstance(v, ast.BinOp) and isinstance(v.op, ast.Add):
                self._note("timeslice", _int_const(v.right), line)
            else:
                self._note("timeslice", _int_const(v), line)
        elif name == "thread_order":
            one = _order_tuple(v)
            if one is not None:
                self.order_tuples.append((one,))
        elif name == "order_tabs" and isinstance(v, ast.Tuple):
            tabs = [_order_tuple(e) for e in v.elts]
            if all(tab is not None for tab in tabs):
                self.order_tuples.append(
                    tuple(tab for tab in tabs if tab is not None)
                )
        elif (
            isinstance(t, ast.Attribute)
            and t.attr == "fetch_at"
            and isinstance(v, ast.BinOp)
            and isinstance(v.op, ast.Add)
        ):
            offset = v.right
            if isinstance(offset, ast.IfExp):
                self._note("fetch_taken", _int_const(offset.body), line)
                self._note("fetch_seq", _int_const(offset.orelse), line)
            else:
                self._note("fetch_const", _int_const(offset), line)

    def _augassign(self, node: ast.AugAssign, arm: int) -> None:
        target = node.target
        if not isinstance(target, ast.Name):
            return
        name = target.id
        self.augs[name] += 1
        self._load(name, target.lineno)
        if name == "penalty" and isinstance(node.op, ast.Add):
            self._note("dcache_penalty", _int_const(node.value), node.lineno)
        elif name == "avail" and isinstance(node.op, ast.BitOr):
            bit = _int_const(node.value)
            self._note("cluster_bit", bit, node.lineno)
            if arm and bit is not None:
                self.arm_pairs.append(("avail |=", arm, bit, node.lineno))

    def _binop(self, node: ast.BinOp, arm: int) -> None:
        left = _name_of(node.left)
        if left is None:
            return
        op = type(node.op)
        value = _int_const(node.right)
        line = node.lineno
        if op is ast.BitAnd:
            if left in _ARM_MASKS or left == "store_mask":
                self._note("cluster_bit", value, line)
                if left == "store_mask" and arm and value is not None:
                    self.arm_pairs.append(
                        ("store_mask &", arm, value, line)
                    )
            elif left == "line":
                self._note("iset_mask", value, line)
            elif left == "dline":
                self._note("dset_mask", value, line)
            elif left == "cycle":
                self._note("order_sel_mask", value, line)
        elif op is ast.RShift:
            if left == "pc":
                self._note("iline_shift", value, line)
            elif left == "addr":
                self._note("dline_shift", value, line)
        elif op is ast.BitOr and left == "e_remaining":
            self._note("guards", value, line)
        elif op is ast.BitXor and left == "left":
            self._note("guards", value, line)
        elif op is ast.Mod and left == "cycle":
            self._note("order_sel_mod", value, line)

    def _compare(self, node: ast.Compare) -> None:
        left = node.left
        # bstats.instructions >= <target>
        if (
            isinstance(left, ast.Attribute)
            and left.attr == "instructions"
            and len(node.ops) == 1
            and isinstance(node.ops[0], ast.GtE)
        ):
            self._note("target", _int_const(node.comparators[0]), node.lineno)
        # left & <guards> ==/!= <guards>
        elif (
            isinstance(left, ast.BinOp)
            and isinstance(left.op, ast.BitAnd)
            and _name_of(left.left) == "left"
        ):
            self._note("guards", _int_const(left.right), node.lineno)
            if len(node.comparators) == 1:
                self._note(
                    "guards", _int_const(node.comparators[0]), node.lineno
                )

    def _call(self, node: ast.Call) -> None:
        # fast_forward(cycle, end_cycle, sw, ns, <multi>, <timeslice>)
        if _name_of(node.func) == "fast_forward" and len(node.args) == 6:
            multi_arg = node.args[4]
            if isinstance(multi_arg, ast.Constant):
                self._note(
                    "ff_multi", int(bool(multi_arg.value)), node.lineno
                )
            self._note("ff_timeslice", _int_const(node.args[5]), node.lineno)

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


# -------------------------------------------------------- literal checks
@dataclasses.dataclass
class _Expected:
    """Spec-derived constants one cell's loop must have inlined."""

    op_merge: bool
    split: str
    multi: bool
    flat: bool
    inline_l1: bool
    guards: int
    capacity: int
    iline_shift: int
    dline_shift: int
    iset_mask: int
    dset_mask: int
    taken_penalty: int
    icache_miss_penalty: int
    dcache_miss_penalty: int
    timeslice: int
    target: int
    max_cycles: int
    n_clusters: int
    cluster_bits: frozenset[int]
    orders: tuple[tuple[int, ...], ...]


def _expected(
    policy: Policy,
    cfg: MachineConfig,
    params: SimParams,
    n_threads: int,
    n_benches: int,
) -> _Expected:
    """Re-derive every inlinable constant from the resolved spec (the
    machine/memory config, the policy shape, the run params) — never
    from the generator's own intermediates."""
    perfect = bool(params.perfect_memory)
    return _Expected(
        op_merge=policy.merge == "op",
        split=policy.split,
        multi=n_benches > 1 and params.timeslice > 0,
        flat=perfect or cfg.memory.is_flat,
        inline_l1=cfg.memory.is_flat and not perfect,
        guards=guards_mask(cfg.n_clusters),
        capacity=capacity_packed(cfg),
        iline_shift=cfg.icache.line_bytes.bit_length() - 1,
        dline_shift=cfg.dcache.line_bytes.bit_length() - 1,
        iset_mask=cfg.icache.n_sets - 1,
        dset_mask=cfg.dcache.n_sets - 1,
        taken_penalty=cfg.taken_branch_penalty,
        icache_miss_penalty=cfg.icache.miss_penalty,
        dcache_miss_penalty=cfg.dcache.miss_penalty,
        timeslice=params.timeslice,
        target=params.target_instructions,
        max_cycles=params.max_cycles,
        n_clusters=cfg.n_clusters,
        cluster_bits=frozenset(1 << c for c in range(cfg.n_clusters)),
        orders=make_priority(params.priority, n_threads).orders,
    )


def _check_literals(walk: _Walk, exp: _Expected, label: str) -> list[Finding]:
    findings: list[Finding] = []

    def mismatch(kind: str, want: object, got: object, line: int) -> None:
        findings.append(
            _find(
                "loopcheck-literal",
                f"inlined {kind} literal {got!r} does not match the "
                f"spec-derived value {want!r}",
                label,
                line,
            )
        )

    exact = {
        "max_cycles": exp.max_cycles,
        "target": exp.target,
        "iline_shift": exp.iline_shift,
        "dline_shift": exp.dline_shift,
        "iset_mask": exp.iset_mask,
        "dset_mask": exp.dset_mask,
        "guards": exp.guards,
        "capacity": exp.capacity,
        "timeslice": exp.timeslice,
        "fetch_taken": 1 + exp.taken_penalty,
        "fetch_seq": 1,
        "dcache_penalty": exp.dcache_miss_penalty,
        "ff_multi": int(exp.multi),
        "ff_timeslice": exp.timeslice if exp.multi else 0,
        "order_sel_mask": len(exp.orders) - 1,
        "order_sel_mod": len(exp.orders),
    }
    counts: dict[str, int] = {}
    cluster_bits: set[int] = set()
    for kind, value, line in walk.seen:
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "cluster_bit":
            cluster_bits.add(value)
        elif kind == "fetch_const":
            # retire (penalty 0 machines) inlines cycle + 1; the flat
            # icache-miss path inlines cycle + miss_penalty
            allowed = {exp.icache_miss_penalty} if exp.flat else set()
            if not exp.taken_penalty:
                allowed.add(1)
            if value not in allowed:
                mismatch(
                    "fetch_at offset (1 or icache miss_penalty)",
                    sorted(allowed),
                    value,
                    line,
                )
        elif kind in exact and value != exact[kind]:
            mismatch(kind, exact[kind], value, line)

    # an unrolled arm's row indices, store-mask bits and issued bits
    # must all name the cluster its own mask test selects
    for site, arm, got, line in walk.arm_pairs:
        if got != arm:
            mismatch(f"{site} inside the `& {arm}` arm", arm, got, line)
    for name, idx, line in walk.row_indices:
        if not 0 <= idx < exp.n_clusters:
            mismatch(
                f"{name} cluster index", f"< {exp.n_clusters}", idx, line
            )

    # presence: a cell whose shape requires a constant must inline it
    required = ["max_cycles", "target", "iline_shift"]
    if exp.op_merge:
        required += ["guards", "capacity"]
    if exp.multi:
        required.append("timeslice")
    if exp.inline_l1:
        required += ["iset_mask", "dset_mask", "dline_shift"]
    for kind in required:
        if not counts.get(kind):
            findings.append(
                _find(
                    "loopcheck-literal",
                    f"expected an inlined {kind} literal "
                    f"({exact[kind]!r}) but found none",
                    label,
                )
            )
    if cluster_bits and cluster_bits != set(exp.cluster_bits):
        findings.append(
            _find(
                "loopcheck-literal",
                "unrolled cluster mask bits "
                f"{sorted(cluster_bits)} do not cover exactly "
                f"{sorted(exp.cluster_bits)} (n_clusters mismatch)",
                label,
            )
        )
    if not cluster_bits:
        findings.append(
            _find(
                "loopcheck-literal",
                "expected an unrolled per-cluster data probe "
                "(`mem & <bit>` tests) but found none",
                label,
            )
        )

    # priority rotation: the setup block must bake the exact orders
    if not walk.order_tuples:
        findings.append(
            _find(
                "loopcheck-literal",
                "no precomputed thread_order/order_tabs tuple found",
                label,
            )
        )
    elif walk.order_tuples[0] != exp.orders:
        findings.append(
            _find(
                "loopcheck-literal",
                f"priority rotation {walk.order_tuples[0]!r} does not "
                f"match make_priority(...).orders {exp.orders!r}",
                label,
            )
        )
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
    policy: Policy,
    cfg: MachineConfig,
    params: SimParams,
    n_threads: int,
    n_benches: int,
    source: str,
    label: str = "<generated>",
) -> list[Finding]:
    """Statically verify one generated loop source against its cell's
    resolved spec.  Returns findings (empty = verified)."""
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
    exp = _expected(policy, cfg, params, n_threads, n_benches)
    findings.extend(_check_literals(walk, exp, label))
    return findings


def _cell_params(scale: object, spec_timeslice: int) -> SimParams:
    return SimParams(
        target_instructions=getattr(scale, "target_instructions"),
        timeslice=spec_timeslice,
        max_cycles=getattr(scale, "max_cycles"),
        seed=getattr(scale, "seed"),
    )


def iter_matrix(
    threads: Sequence[int] = (1, 2, 4),
    benches: Sequence[int] = (1, 4),
    scale: object | None = None,
) -> Iterator[tuple[Policy, MachineConfig, SimParams, int, int, str]]:
    """Every (policy, cfg, params, nt, nb, label) cell of the full
    machine × memory × policy × nt × multitasking matrix, using the
    default experiment scale unless given one."""
    if scale is None:
        from ..engine.session import DEFAULT_SCALE

        scale = DEFAULT_SCALE
    base_ts = int(getattr(scale, "timeslice"))
    for mach in sorted(MACHINE_PRESETS):
        for mem in sorted(MEMORY_PRESETS):
            spec = get_scenario(f"{mach}+{mem}")
            cfg = spec.machine
            params = _cell_params(scale, spec.timeslice(base_ts))
            for policy in ALL_POLICIES:
                for nt in threads:
                    for nb in benches:
                        label = (
                            f"<{policy.name}/{mach}+{mem}"
                            f"/nt{nt}/nb{nb}>"
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


def check_matrix(
    threads: Sequence[int] = (1, 2, 4),
    benches: Sequence[int] = (1, 4),
    scale: object | None = None,
) -> MatrixReport:
    """Generate and verify every distinct loop of the preset matrix.

    Cells are deduped by :func:`specialize.loop_key` — sound because
    the key's documented contract is "everything the generated source
    inlines", so key-equal cells share one source."""
    findings: list[Finding] = []
    seen: set[tuple[object, ...]] = set()
    cells = 0
    for policy, cfg, params, nt, nb, label in iter_matrix(
        threads, benches, scale
    ):
        cells += 1
        key = specialize.loop_key(policy, cfg, params, nt, nb)
        if key in seen:
            continue
        seen.add(key)
        source = specialize.generate_loop_source(
            policy, cfg, params, nt, nb
        )
        findings.extend(
            check_source(policy, cfg, params, nt, nb, source, label)
        )
    return MatrixReport(findings, cells, len(seen))
