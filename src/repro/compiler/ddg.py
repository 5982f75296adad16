"""Per-block data dependence graph with latency-weighted edges.

Edge kinds (compile-time exposed latencies, paper §II-A):

* RAW on virtual registers — latency = producer's latency;
* WAR — latency 0 *plus one* because the target is a same-cycle-reads
  machine only within one instruction after renaming; since the
  allocator may reuse registers, a redefinition must not issue before
  the prior reader (latency 0 allows same cycle: VLIW semantics read
  old values, so same-cycle WAR is legal; we encode WAR latency 0);
* WAW — latency 1 (two writers of the same register must be ordered and
  cannot share a cycle);
* memory ordering within one alias region: ST→LD, LD→ST, ST→ST with
  latency 1; LD→LD unordered;
* CMPBR → branch: latency = ``CMP_TO_BRANCH_DELAY`` (paper: 2 cycles);
* every op → block terminator: the branch issues in the block's last
  instruction (control dependence, latency 0).

The DDG is built *after* register allocation, so nodes reference
physical registers; WAR/WAW edges make reuse safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.opcodes import CMP_TO_BRANCH_DELAY, Opcode
from .ir import IROp


@dataclass
class DDGNode:
    op: IROp
    index: int  # position in block op order
    #: successor edges: (target index, latency)
    succs: list[tuple[int, int]] = field(default_factory=list)
    preds: list[tuple[int, int]] = field(default_factory=list)
    #: longest path to any leaf (critical-path priority)
    height: int = 0


class DDG:
    """Dependence graph over one basic block's ops (terminator included)."""

    def __init__(self, ops: list[IROp], icc_latency: int = 1):
        self.nodes = [DDGNode(op, i) for i, op in enumerate(ops)]
        self.icc_latency = icc_latency
        self._build()
        self._heights()

    def _add_edge(self, src: int, dst: int, lat: int) -> None:
        if src == dst:
            return
        node = self.nodes[src]
        for j, (t, l) in enumerate(node.succs):
            if t == dst:
                if lat > l:
                    node.succs[j] = (dst, lat)
                    for k, (p, pl) in enumerate(self.nodes[dst].preds):
                        if p == src:
                            self.nodes[dst].preds[k] = (src, lat)
                return
        node.succs.append((dst, lat))
        self.nodes[dst].preds.append((src, lat))

    def _lat(self, idx: int) -> int:
        """Producer latency of a node (ICC transfers use the network
        latency, everything else its opcode latency)."""
        op = self.nodes[idx].op
        if op.opcode is Opcode.RECV:
            return self.icc_latency
        return op.latency

    def _build(self) -> None:
        last_def: dict[int, int] = {}  # vreg -> node index
        last_uses: dict[int, list[int]] = {}
        last_bdef: dict[int, int] = {}
        last_buses: dict[int, list[int]] = {}
        last_store: dict[str, int] = {}  # region -> node index
        loads_since_store: dict[str, list[int]] = {}

        n = len(self.nodes)
        for i, node in enumerate(self.nodes):
            op = node.op
            # RAW
            for s in op.srcs:
                if s in last_def:
                    p = last_def[s]
                    self._add_edge(p, i, self._lat(p))
                last_uses.setdefault(s, []).append(i)
            if op.bsrc is not None and op.bsrc in last_bdef:
                p = last_bdef[op.bsrc]
                # compare-to-branch delay applies to branch consumers
                lat = (
                    CMP_TO_BRANCH_DELAY if op.is_branch else self._lat(p)
                )
                self._add_edge(p, i, lat)
            if op.bsrc is not None:
                last_buses.setdefault(op.bsrc, []).append(i)
            # WAR / WAW
            if op.dst is not None:
                d = op.dst
                for u in last_uses.get(d, ()):
                    self._add_edge(u, i, 0)  # WAR: same cycle legal
                if d in last_def:
                    # WAW: second write-back must land after the first
                    p = last_def[d]
                    self._add_edge(
                        p, i, max(1, self._lat(p) - self._lat(i) + 1)
                    )
                last_def[d] = i
                last_uses[d] = []
            if op.bdst is not None:
                d = op.bdst
                for u in last_buses.get(d, ()):
                    self._add_edge(u, i, 0)
                if d in last_bdef:
                    self._add_edge(last_bdef[d], i, 1)
                last_bdef[d] = i
                last_buses[d] = []
            # memory ordering per alias region
            if op.is_mem:
                r = op.region
                if op.is_load:
                    if r in last_store:
                        self._add_edge(last_store[r], i, 1)
                    loads_since_store.setdefault(r, []).append(i)
                else:  # store
                    if r in last_store:
                        self._add_edge(last_store[r], i, 1)
                    for ld in loads_since_store.get(r, ()):
                        self._add_edge(ld, i, 1)
                    last_store[r] = i
                    loads_since_store[r] = []
            # NOTE: no control-dependence edges are added for the block
            # terminator; the list scheduler places it explicitly in the
            # block's final instruction (it may co-issue with the last
            # data operations).

    def _heights(self) -> None:
        # reverse topological order = reverse index order (edges go forward)
        for node in reversed(self.nodes):
            h = 0
            for t, lat in node.succs:
                h = max(h, self.nodes[t].height + max(lat, 1))
            node.height = h

    def __len__(self) -> int:
        return len(self.nodes)
