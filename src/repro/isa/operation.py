"""Operation, bundle and VLIW-instruction objects.

These are the *scheduled* machine-code objects produced by the compiler
backend and consumed by the functional VM (:mod:`repro.vm`) and by the
static-trace builder (:mod:`repro.pipeline.trace`).

Register naming: each cluster has its own general-purpose register file
``r0..r{N-1}`` (``r0`` is hardwired zero, as on VEX) and there is a small
shared branch-register file ``b0..b7`` readable by the branch unit.
Registers are plain integers; the owning cluster is implied by the
operation's ``cluster`` field (the branch unit may read branch registers
set by any cluster — the paper's Branch FU "may read registers from
other clusters").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .opcodes import BRANCHES, FU_OF, INFO, MEMOPS, FUClass, Opcode


@dataclass(slots=True)
class Operation:
    """One scheduled RISC-like operation.

    Attributes
    ----------
    opcode:
        The :class:`Opcode`.
    cluster:
        Cluster the operation executes on.
    dst:
        Destination register index, or ``None``.  For ``CMPBR`` this is a
        *branch* register index; for ``SEND`` it is unused.
    srcs:
        Source register indices (in the operation's own cluster).
    imm:
        Immediate operand (offset for memory ops, literal for ALU ops
        whose second operand is immediate, branch-register index for
        branches).
    target:
        Branch-target label (resolved to an instruction index by the
        assembler) for control-flow ops.
    use_imm:
        If true, the second ALU source is ``imm`` instead of a register.
    xfer_id:
        Links a SEND with its RECV partner inside one instruction.
    """

    opcode: Opcode
    cluster: int
    dst: int | None = None
    srcs: tuple[int, ...] = ()
    imm: int = 0
    target: int | None = None
    use_imm: bool = False
    xfer_id: int = -1
    #: comparison kind (an Opcode value) for CMPBR operations
    cmp_kind: int = 0

    @property
    def fu(self) -> FUClass:
        return FU_OF[self.opcode]

    @property
    def latency(self) -> int:
        return INFO[self.opcode].latency

    @property
    def is_mem(self) -> bool:
        return self.opcode in MEMOPS

    @property
    def is_branch(self) -> bool:
        return self.opcode in BRANCHES

    def __str__(self) -> str:  # pragma: no cover - debug aid
        s = f"c{self.cluster}:{self.opcode.name.lower()}"
        if self.dst is not None:
            s += f" r{self.dst}="
        if self.srcs:
            s += ",".join(f"r{x}" for x in self.srcs)
        if self.use_imm or self.opcode in MEMOPS:
            s += f",#{self.imm}"
        if self.target is not None:
            s += f" ->L{self.target}"
        return s


@dataclass
class Bundle:
    """The operations of one instruction that execute at one cluster."""

    cluster: int
    ops: list[Operation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


class VLIWInstruction:
    """A scheduled VLIW instruction: one optional bundle per cluster.

    The instruction also carries its static address (``pc``) and encoded
    byte size so the ICache model can be driven with realistic line
    behaviour.  VEX-style variable-length encoding is approximated as 4
    bytes per operation plus a 4-byte header.
    """

    __slots__ = ("ops", "pc", "index")

    def __init__(self, ops: list[Operation], pc: int = 0, index: int = -1):
        self.ops: list[Operation] = list(ops)
        self.pc = pc
        self.index = index

    # -- structural queries -------------------------------------------------
    def bundles(self, n_clusters: int) -> list[Bundle]:
        """Group operations by cluster into bundles (possibly empty)."""
        out = [Bundle(c) for c in range(n_clusters)]
        for op in self.ops:
            out[op.cluster].ops.append(op)
        return out

    def cluster_mask(self) -> int:
        """Bitmask of clusters used by this instruction."""
        m = 0
        for op in self.ops:
            m |= 1 << op.cluster
        return m

    def has_icc(self) -> bool:
        """True if the instruction contains inter-cluster copy ops."""
        return any(
            op.opcode in (Opcode.SEND, Opcode.RECV) for op in self.ops
        )

    def branch_op(self) -> Operation | None:
        for op in self.ops:
            if op.is_branch:
                return op
        return None

    @property
    def size_bytes(self) -> int:
        """Approximate encoded size (4 B header + 4 B per operation)."""
        return 4 + 4 * len(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return "[" + " | ".join(str(op) for op in self.ops) + "]"
