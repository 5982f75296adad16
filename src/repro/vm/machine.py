"""Functional VM for compiled VLIW programs.

Executes one VLIW instruction atomically per step with *read-old-state*
semantics: every operation of an instruction reads the register/memory
state from before the instruction (the paper's Fig. 3 single-cycle swap
is legal and works here).  This is the reference semantics that the
split-issue buffer protocol (:mod:`repro.core.buffers`) must preserve.

The VM is the *functional* half of the trace-driven simulator: it runs
each kernel once and records a dynamic trace (static instruction index,
branch-taken flag, per-cluster data addresses) that the timing model
replays under any multithreading/split-issue policy.

Instructions are *pre-decoded*: on the first :meth:`VM.run` or
:meth:`VM.step`, every static instruction becomes one generated Python
function with its opcodes, register indices, immediates, branch
targets and fall-through PC inlined as literals.  Each function reads
all its operands into locals, then commits registers, branch registers
and stores in operation order, records its trace row and returns the
next PC, so a run is a ``pc = fns[pc]()`` loop.  Every opcode is
defined once, as an expression in :data:`ALU_EXPR`, :data:`LOAD_EXPR`
or :data:`STORE_STMT`; the generated code and the :meth:`VM.alu`,
:meth:`VM.compare`, :meth:`VM.load` and :meth:`VM.store` helpers that
:class:`~repro.core.buffers.SplitVM` uses are both built from them.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from ..isa.opcodes import COMPARES, LOADS, STORES, Opcode
from ..isa.operation import Operation
from ..isa.program import Program

MASK32 = 0xFFFFFFFF


def _s32(x: int) -> int:
    """Interpret a 32-bit pattern as signed."""
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


class VMError(RuntimeError):
    pass


# -- one definition of every opcode ----------------------------------------
def _signed(v: str) -> str:
    """Expression for :func:`_s32` of operand ``v``."""
    return f"(({v} & 0xFFFFFFFF ^ 0x80000000) - 0x80000000)"


_SA, _SB = _signed("{a}"), _signed("{b}")

#: ALU, multiply and compare opcodes -> result over operands ``{a}`` and
#: ``{b}`` (any Python ints; the register commit masks to 32 bits)
ALU_EXPR: dict[Opcode, str] = {
    Opcode.ADD: "({a} + {b}) & 0xFFFFFFFF",
    Opcode.SUB: "({a} - {b}) & 0xFFFFFFFF",
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.SHL: "({a} << ({b} & 31)) & 0xFFFFFFFF",
    Opcode.SHR: "({a} & 0xFFFFFFFF) >> ({b} & 31)",
    Opcode.SRA: f"({_SA} >> ({{b}} & 31)) & 0xFFFFFFFF",
    Opcode.MOV: "{a} & 0xFFFFFFFF",
    Opcode.MIN: f"min({_SA}, {_SB}) & 0xFFFFFFFF",
    Opcode.MAX: f"max({_SA}, {_SB}) & 0xFFFFFFFF",
    Opcode.ABS: f"abs({_SA}) & 0xFFFFFFFF",
    Opcode.NOT: "~{a} & 0xFFFFFFFF",
    Opcode.SXTB: "(({a} & 0xFF ^ 0x80) - 0x80) & 0xFFFFFFFF",
    Opcode.SXTH: "(({a} & 0xFFFF ^ 0x8000) - 0x8000) & 0xFFFFFFFF",
    Opcode.ZXTB: "{a} & 0xFF",
    Opcode.ZXTH: "{a} & 0xFFFF",
    Opcode.MPY: f"({_SA} * {_SB}) & 0xFFFFFFFF",
    Opcode.MPYH: f"(({_SA} * {_SB}) >> 32) & 0xFFFFFFFF",
    Opcode.MPYSHR15: f"(({_SA} * {_SB}) >> 15) & 0xFFFFFFFF",
    Opcode.CMPEQ: "1 if {a} & 0xFFFFFFFF == {b} & 0xFFFFFFFF else 0",
    Opcode.CMPNE: "1 if {a} & 0xFFFFFFFF != {b} & 0xFFFFFFFF else 0",
    Opcode.CMPLT: f"1 if {_SA} < {_SB} else 0",
    Opcode.CMPLE: f"1 if {_SA} <= {_SB} else 0",
    Opcode.CMPGT: f"1 if {_SA} > {_SB} else 0",
    Opcode.CMPGE: f"1 if {_SA} >= {_SB} else 0",
    Opcode.CMPLTU: "1 if {a} & 0xFFFFFFFF < {b} & 0xFFFFFFFF else 0",
    Opcode.CMPGEU: "1 if {a} & 0xFFFFFFFF >= {b} & 0xFFFFFFFF else 0",
}

#: load opcodes -> (access width in bytes, value read from memory
#: ``{m}`` at in-range address ``{x}``), little-endian
LOAD_EXPR: dict[Opcode, tuple[int, str]] = {
    Opcode.LDW: (4, "int.from_bytes({m}[{x}:{x} + 4], 'little')"),
    Opcode.LDH: (
        2,
        "int.from_bytes({m}[{x}:{x} + 2], 'little', signed=True)"
        " & 0xFFFFFFFF",
    ),
    Opcode.LDHU: (2, "int.from_bytes({m}[{x}:{x} + 2], 'little')"),
    Opcode.LDB: (1, "(({m}[{x}] ^ 0x80) - 0x80) & 0xFFFFFFFF"),
    Opcode.LDBU: (1, "{m}[{x}]"),
}

#: store opcodes -> (access width in bytes, statement writing ``{v}``
#: to memory ``{m}`` at in-range address ``{x}``), little-endian
STORE_STMT: dict[Opcode, tuple[int, str]] = {
    Opcode.STW: (
        4, "{m}[{x}:{x} + 4] = ({v} & 0xFFFFFFFF).to_bytes(4, 'little')"
    ),
    Opcode.STH: (
        2, "{m}[{x}:{x} + 2] = ({v} & 0xFFFF).to_bytes(2, 'little')"
    ),
    Opcode.STB: (1, "{m}[{x}] = {v} & 0xFF"),
}

assert set(LOAD_EXPR) == LOADS and set(STORE_STMT) == STORES
assert COMPARES <= set(ALU_EXPR)


def _function(params: str, body: str) -> Callable:
    ns: dict = {}
    exec(f"def f({params}):\n    {body}\n", ns)
    return ns["f"]


_ALU_FN = {
    oc: _function("a, b", "return " + e.format(a="a", b="b"))
    for oc, e in ALU_EXPR.items()
}
_LOAD_FN = {
    oc: _function("m, x", "return " + e.format(m="m", x="x"))
    for oc, (_, e) in LOAD_EXPR.items()
}
_STORE_FN = {
    oc: _function("m, x, v", s.format(m="m", x="x", v="v"))
    for oc, (_, s) in STORE_STMT.items()
}


def _range_error(name: str, kind: str, addr: int, pc: int) -> VMError:
    return VMError(
        f"{name}: {kind} out of range {addr:#x} at pc instr {pc}"
    )


@dataclass
class TraceRecorder:
    """Accumulates the dynamic trace of one run."""

    n_clusters: int
    indices: list[int] = field(default_factory=list)
    taken: list[bool] = field(default_factory=list)
    #: flat row-major per-cluster address matrix, ``n_clusters`` entries
    #: per instruction; -1 = no access.  One memory port per cluster
    #: means at most one address per (instr, cluster).
    addrs: list[int] = field(default_factory=list)

    def record(self, idx: int, taken: bool, addr_row: list[int]) -> None:
        self.indices.append(idx)
        self.taken.append(taken)
        self.addrs.extend(addr_row)


# -- pre-decoding ----------------------------------------------------------
class _Halt(Exception):
    """Raised by a decoded HALT instruction once it has committed."""

    def __init__(self, pc: int):
        self.pc = pc


class _FellOff(Exception):
    """Raised when the run reaches the PC one past the last instruction."""


def _discard(_item) -> None:
    """Trace sink of an unrecorded run."""


def _index(value, hi: int, what: str, where: str) -> int:
    """``value`` as an int in ``[0, hi)`` — the only way a register,
    branch-register or target field reaches generated source."""
    try:
        v = operator.index(value)
    except TypeError:
        v = -1
    if not 0 <= v < hi:
        raise VMError(f"{where}: bad {what} {value!r}")
    return v


def _literal(value, where: str) -> str:
    """An immediate as Python source."""
    try:
        v = operator.index(value)
    except TypeError:
        raise VMError(f"{where}: bad immediate {value!r}") from None
    return str(v) if v >= 0 else f"({v})"


def _decode_instruction(
    ins, i: int, n_ins: int, n_clusters: int, n_regs: int, n_bregs: int,
    where: str,
) -> list[str]:
    """Body of instruction ``i``'s function (without its ``def``)."""

    def reg(c: int, r) -> str:
        return f"R{c}[{_index(r, n_regs, 'register', where)}]"

    clusters = [
        _index(op.cluster, n_clusters, "cluster", where) for op in ins.ops
    ]
    reads: list[str] = []  # phase 1: operands, addresses, loads
    commits: list[str] = []  # phase 2: registers
    breg_commits: list[str] = []
    stores: list[str] = []
    row = ["-1"] * n_clusters
    sent = {
        op.xfer_id: reg(c, op.srcs[0])
        for op, c in zip(ins.ops, clusters)
        if op.opcode is Opcode.SEND
    }
    branch: Operation | None = None
    for k, (op, c) in enumerate(zip(ins.ops, clusters)):
        oc = op.opcode
        if oc is Opcode.SEND or oc is Opcode.NOP:
            continue
        if oc in LOADS or oc in STORES:
            reads.append(
                f"x{k} = ({reg(c, op.srcs[-1])} + "
                f"{_literal(op.imm, where)}) & 0xFFFFFFFF"
            )
            row[c] = f"x{k}"
            if oc in STORES:
                width, stmt = STORE_STMT[oc]
                reads.append(f"s{k} = {reg(c, op.srcs[0])}")
                stores.append(
                    f"if x{k} > L{width}: raise OOB('store', x{k}, {i})"
                )
                stores.append(stmt.format(m="M", x=f"x{k}", v=f"s{k}"))
                continue
            width, expr = LOAD_EXPR[oc]
            reads.append(f"if x{k} > L{width}: raise OOB('load', x{k}, {i})")
            value = expr.format(m="M", x=f"x{k}")
        elif oc is Opcode.RECV:
            if op.xfer_id not in sent:
                raise VMError(f"{where}: RECV without its SEND")
            value = sent[op.xfer_id]
        elif oc is Opcode.CMPBR:
            kind = op.cmp_kind
            if kind not in COMPARES:
                raise VMError(f"{where}: bad CMPBR kind {kind!r}")
            b = (
                _literal(op.imm, where) if op.use_imm
                else reg(c, op.srcs[1])
            )
            reads.append(
                f"c{k} = "
                + ALU_EXPR[Opcode(kind)].format(a=reg(c, op.srcs[0]), b=b)
            )
            dst = _index(op.dst, n_bregs, "branch register", where)
            breg_commits.append(f"B[{dst}] = c{k}")
            continue
        elif op.is_branch:
            if branch is not None:
                raise VMError(f"{where}: two branches in one instruction")
            branch = op
            if oc is Opcode.BR or oc is Opcode.BRF:
                breg = _index(op.imm, n_bregs, "branch register", where)
                reads.append(f"t = B[{breg}]")
            continue
        else:
            expr = ALU_EXPR.get(oc)
            if expr is None:
                raise VMError(f"{where}: unknown ALU opcode {oc!r}")
            # a MOV-immediate has no register sources
            a = reg(c, op.srcs[0]) if op.srcs else _literal(op.imm, where)
            if op.use_imm:
                b = _literal(op.imm, where)
            else:
                b = reg(c, op.srcs[1]) if len(op.srcs) > 1 else "0"
            value = expr.format(a=a, b=b)
        reads.append(f"v{k} = {value}")
        r = _index(op.dst, n_regs, "register", where)
        if r != 0:  # r0 hardwired to zero
            commits.append(f"R{c}[{r}] = v{k} & 0xFFFFFFFF")

    idx = _index(ins.index, n_ins, "instruction index", where)
    record = [f"IA({idx})", f"AX(({', '.join(row)},))"]
    body = reads + commits + breg_commits + stores + record
    if branch is None:
        return body + ["TA(False)", f"return {i + 1}"]
    oc = branch.opcode
    if oc is Opcode.HALT:
        return body + ["TA(False)", f"raise Halt({i + 1})"]
    target = _index(branch.target, n_ins, "branch target", where)
    if oc is Opcode.GOTO:
        return body + ["TA(True)", f"return {target}"]
    cond = "t" if oc is Opcode.BR else "not t"
    return body + [
        f"if {cond}:",
        "    TA(True)",
        f"    return {target}",
        "TA(False)",
        f"return {i + 1}",
    ]


def _fell_off() -> int:
    """Instruction function of the PC one past the last instruction."""
    raise _FellOff


def _decode(program: Program, n_regs: int, n_bregs: int) -> tuple[dict, list]:
    """Compile one function per instruction of ``program``.

    Returns the functions' global namespace, which :meth:`VM._bind`
    points at the VM's state before every run, and the functions
    indexed by PC, with :func:`_fell_off` one past the last."""
    ns: dict = {"OOB": partial(_range_error, program.name), "Halt": _Halt}
    fns = []
    for i, ins in enumerate(program):
        body = _decode_instruction(
            ins, i, len(program), program.n_clusters, n_regs, n_bregs,
            f"{program.name}: instr {i}",
        )
        # one small compile per instruction: compiling the program as one
        # module is slower and needs about 25x the transient memory
        src = f"def i{i}():\n" + "".join(f"    {s}\n" for s in body)
        exec(compile(src, f"<{program.name} instr {i}>", "exec"), ns)
        fns.append(ns.pop(f"i{i}"))
    fns.append(_fell_off)
    return ns, fns


class VM:
    """Interpreter state: per-cluster register files, branch regs, memory."""

    def __init__(self, program: Program, n_regs: int = 64, n_bregs: int = 8):
        self.program = program
        self.n_regs = n_regs
        self.n_bregs = n_bregs
        #: (namespace, instruction functions), built on the first
        #: run() or step()
        self._decoded: tuple[dict, list] | None = None
        #: operations per PC, plus 0 for the fell-off sentinel
        self._nops = [len(ins.ops) for ins in program] + [0]
        self.reset()

    def reset(self) -> None:
        p = self.program
        self.regs = [[0] * self.n_regs for _ in range(p.n_clusters)]
        self.bregs = [0] * self.n_bregs
        self.mem = bytearray(p.data.size)
        for addr, word in p.data.words.items():
            self.mem[addr : addr + 4] = word.to_bytes(4, "little")
        self.pc = 0
        self.halted = False
        self.instr_count = 0
        self.op_count = 0

    # -- per-opcode helpers (the split-issue VM executes through these) -----
    def load(self, op: Operation, addr: int) -> int:
        spec = LOAD_EXPR.get(op.opcode)
        if spec is None:
            raise VMError(f"bad load opcode {op.opcode}")
        if addr < 0 or addr + spec[0] > len(self.mem):
            raise _range_error(self.program.name, "load", addr, self.pc)
        return _LOAD_FN[op.opcode](self.mem, addr)

    def store(self, op: Operation, addr: int, value: int) -> None:
        spec = STORE_STMT.get(op.opcode)
        if spec is None:
            raise VMError(f"bad store opcode {op.opcode}")
        if addr < 0 or addr + spec[0] > len(self.mem):
            raise _range_error(self.program.name, "store", addr, self.pc)
        _STORE_FN[op.opcode](self.mem, addr, value)

    @staticmethod
    def alu(op: Operation, a: int, b: int) -> int:
        fn = _ALU_FN.get(op.opcode)
        if fn is None:
            raise VMError(f"unknown ALU opcode {op.opcode}")
        return fn(a, b)

    @staticmethod
    def compare(oc: Opcode, a: int, b: int) -> int:
        if oc not in COMPARES:
            raise VMError(f"unknown ALU opcode {oc}")
        return _ALU_FN[oc](a, b)

    # -- execution ------------------------------------------------------------
    def _bind(self, recorder: TraceRecorder | None) -> list:
        """The decoded instructions, pointed at the current state objects
        and the recorder's lists (any of which the caller may replace
        between runs)."""
        if self._decoded is None:
            self._decoded = _decode(self.program, self.n_regs, self.n_bregs)
        ns, fns = self._decoded
        for c, regs in enumerate(self.regs):
            ns[f"R{c}"] = regs
        m = len(self.mem)
        ns.update(B=self.bregs, M=self.mem, L1=m - 1, L2=m - 2, L4=m - 4)
        if recorder is None:
            ns.update(IA=_discard, TA=_discard, AX=_discard)
        else:
            ns.update(
                IA=recorder.indices.append,
                TA=recorder.taken.append,
                AX=recorder.addrs.extend,
            )
        return fns

    def _execute(self, budget: int, recorder: TraceRecorder | None) -> None:
        """Execute up to ``budget`` instructions from ``self.pc``,
        stopping early at HALT."""
        fns = self._bind(recorder)
        nops = self._nops
        pc = self.pc
        n = ops = 0
        try:
            for n in range(1, budget + 1):
                ops += nops[pc]
                pc = fns[pc]()
        except _Halt as h:
            pc = h.pc
            self.halted = True
        except _FellOff:
            n -= 1
        except BaseException:  # the instruction at pc did not complete
            n -= 1
            ops -= nops[pc]
            raise
        finally:
            self.pc = pc
            self.instr_count += n
            self.op_count += ops
        if not self.halted and pc >= len(self.program):
            raise VMError(f"{self.program.name}: fell off program end")

    def step(self, recorder: TraceRecorder | None = None) -> bool:
        """Execute the instruction at ``self.pc``; returns False if halted."""
        if not self.halted:
            self._execute(1, recorder)
        return not self.halted

    def run(
        self,
        max_instructions: int = 10_000_000,
        recorder: TraceRecorder | None = None,
    ) -> int:
        """Run to HALT; returns executed instruction count."""
        if not self.halted:
            budget = max(1, max_instructions - self.instr_count)
            self._execute(budget, recorder)
            if not self.halted:
                raise VMError(
                    f"{self.program.name}: exceeded {max_instructions} "
                    "instructions (infinite loop?)"
                )
        return self.instr_count
