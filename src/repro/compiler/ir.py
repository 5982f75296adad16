"""Mid-level IR for the mini VLIW compiler.

The IR is a conventional CFG of basic blocks holding RISC-like
operations over an infinite set of *virtual registers* (plain ints).
It is deliberately close to the target ISA — the compiler's job here is
cluster assignment (BUG), inter-cluster copy insertion, register
allocation and latency-aware list scheduling, mirroring the structure of
the Multiflow-derived VEX compiler the paper uses.

Values are produced by at most one IR op per *name* in a block-local
sense but the IR is not SSA; kernels may redefine a virtual register
(loop counters do).  Liveness analysis handles redefinitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.opcodes import (
    BRANCHES,
    FU_OF,
    INFO,
    LOADS,
    MEMOPS,
    FUClass,
    Opcode,
)


@dataclass
class IROp:
    """One IR operation.

    ``dst``/``srcs`` are virtual register ids.  ``bdst``/``bsrc`` are
    *branch* virtual registers (separate namespace) used by ``CMPBR`` and
    branches.  ``region`` is the alias region of memory ops: two memory
    ops may be reordered iff their regions differ or both are loads.
    """

    opcode: Opcode
    dst: int | None = None
    srcs: list[int] = field(default_factory=list)
    imm: int = 0
    use_imm: bool = False
    bdst: int | None = None
    bsrc: int | None = None
    target: str | None = None  # branch target label
    region: str = "mem"
    #: comparison kind for CMPBR (an Opcode value from COMPARES)
    cmp_kind: int = 0
    #: cluster chosen by the assignment pass (-1 = unassigned)
    cluster: int = -1
    #: stable id within the function, set by Function.finalize
    uid: int = -1

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
    def is_load(self) -> bool:
        return self.opcode in LOADS

    @property
    def is_branch(self) -> bool:
        return self.opcode in BRANCHES

    def __str__(self) -> str:  # pragma: no cover - debug aid
        parts = [self.opcode.name.lower()]
        if self.dst is not None:
            parts.append(f"v{self.dst} <-")
        if self.bdst is not None:
            parts.append(f"b{self.bdst} <-")
        parts += [f"v{s}" for s in self.srcs]
        if self.use_imm or self.is_mem:
            parts.append(f"#{self.imm}")
        if self.bsrc is not None:
            parts.append(f"b{self.bsrc}")
        if self.target:
            parts.append(f"->{self.target}")
        return " ".join(parts)


@dataclass
class BasicBlock:
    """A basic block: straight-line ops plus one optional terminator.

    ``succs`` lists successor labels in order (taken target first for a
    conditional branch, then fall-through).
    """

    label: str
    ops: list[IROp] = field(default_factory=list)
    terminator: IROp | None = None
    succs: list[str] = field(default_factory=list)

    def all_ops(self) -> list[IROp]:
        if self.terminator is not None:
            return self.ops + [self.terminator]
        return list(self.ops)

    def __len__(self) -> int:
        return len(self.ops) + (1 if self.terminator else 0)


class Function:
    """A compilation unit: ordered blocks, entry first."""

    def __init__(self, name: str):
        self.name = name
        self.blocks: list[BasicBlock] = []
        self.block_map: dict[str, BasicBlock] = {}
        self.n_vregs = 0
        self.n_bregs = 0
        self._finalized = False

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.block_map:
            raise ValueError(f"duplicate block label {block.label!r}")
        self.blocks.append(block)
        self.block_map[block.label] = block
        return block

    def finalize(self) -> None:
        """Resolve fall-throughs, check CFG sanity, assign op uids."""
        if self._finalized:
            return
        uid = 0
        for i, blk in enumerate(self.blocks):
            term = blk.terminator
            if term is None:
                # implicit fall-through
                if i + 1 >= len(self.blocks):
                    raise ValueError(
                        f"{self.name}: block {blk.label} falls off the end"
                    )
                blk.succs = [self.blocks[i + 1].label]
            elif term.opcode is Opcode.GOTO:
                blk.succs = [term.target]  # type: ignore[list-item]
            elif term.opcode is Opcode.HALT:
                blk.succs = []
            else:  # conditional branch: taken target + fall-through
                if i + 1 >= len(self.blocks):
                    raise ValueError(
                        f"{self.name}: conditional branch in last block "
                        f"{blk.label} has no fall-through"
                    )
                blk.succs = [term.target, self.blocks[i + 1].label]  # type: ignore[list-item]
            for label in blk.succs:
                if label not in self.block_map:
                    raise ValueError(
                        f"{self.name}: branch to unknown label {label!r}"
                    )
            for op in blk.all_ops():
                op.uid = uid
                uid += 1
        self._finalized = True

    def preds(self) -> dict[str, list[str]]:
        """Predecessor map (labels)."""
        out: dict[str, list[str]] = {b.label: [] for b in self.blocks}
        for blk in self.blocks:
            for s in blk.succs:
                out[s].append(blk.label)
        return out

    def op_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        lines = [f"function {self.name}:"]
        for blk in self.blocks:
            lines.append(f"{blk.label}:")
            for op in blk.all_ops():
                lines.append(f"    {op}")
        return "\n".join(lines)
