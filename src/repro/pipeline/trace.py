"""Static and dynamic trace tables for the timing simulator.

The functional VM executes each kernel once; the timing model then
replays the dynamic trace under any multithreading policy.  For speed,
all per-instruction properties the per-cycle merge loop touches are
precomputed into flat Python lists (int indexing into lists is the
cheapest structure access in CPython — see the HPC guide's advice to
hoist work out of hot loops):

* ``packed``        — SWAR resource usage of the whole instruction;
* ``cmask``         — bitmask of clusters used;
* ``bundle_packed`` — per-cluster packed usage (cluster-level split);
* ``bundle_nops``   — per-cluster operation counts (IPC accounting);
* ``mem_cmask``/``store_cmask`` — clusters with memory ops / stores;
* ``icc``           — instruction contains SEND/RECV (NS atomicity);
* ``ops_desc``      — per-op (cluster, fu, is_mem) for operation-level
  split (OOSI);
* ``pc``            — byte address for the ICache model.

**Cluster renaming** (paper §IV, from the CSMT paper) statically rotates
each thread's cluster assignment; :meth:`TraceBundle.rotated` returns a
table with all per-cluster data rolled by the renaming value, at zero
per-cycle cost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..arch.config import MachineConfig
from ..arch.resources import pack_usage, usage_of_ops
from ..isa.opcodes import FUClass, Opcode
from ..isa.program import Program
from ..vm.machine import VM, TraceRecorder


@dataclass
class StaticTable:
    """Per-static-instruction properties (one rotation)."""

    n_clusters: int
    packed: list[int]
    cmask: list[int]
    bundle_packed: list[list[int]]
    bundle_nops: list[list[int]]
    mem_cmask: list[int]
    store_cmask: list[int]
    icc: list[bool]
    nops: list[int]
    ops_desc: list[tuple[tuple[int, int, bool], ...]]
    pc: list[int]


def build_static_table(program: Program, cfg: MachineConfig) -> StaticTable:
    """Precompute merge-loop tables from a compiled program."""
    n_cl = cfg.n_clusters
    packed, cmask, b_packed, b_nops = [], [], [], []
    mem_cm, store_cm, icc, nops, ops_desc, pcs = [], [], [], [], [], []
    for ins in program:
        packed.append(usage_of_ops(ins.ops, n_cl))
        cmask.append(ins.cluster_mask())
        per_b = []
        per_n = []
        for c in range(n_cl):
            ops_c = [op for op in ins.ops if op.cluster == c]
            per_b.append(usage_of_ops(ops_c, n_cl) if ops_c else 0)
            per_n.append(len(ops_c))
        b_packed.append(per_b)
        b_nops.append(per_n)
        mm = 0
        sm = 0
        has_icc = False
        desc = []
        for op in ins.ops:
            if op.is_mem:
                mm |= 1 << op.cluster
                if op.opcode in (Opcode.STW, Opcode.STH, Opcode.STB):
                    sm |= 1 << op.cluster
            if op.opcode in (Opcode.SEND, Opcode.RECV):
                has_icc = True
            desc.append((op.cluster, int(op.fu), op.is_mem))
        mem_cm.append(mm)
        store_cm.append(sm)
        icc.append(has_icc)
        nops.append(len(ins.ops))
        ops_desc.append(tuple(desc))
        pcs.append(ins.pc)
    return StaticTable(
        n_clusters=n_cl,
        packed=packed,
        cmask=cmask,
        bundle_packed=b_packed,
        bundle_nops=b_nops,
        mem_cmask=mem_cm,
        store_cmask=store_cm,
        icc=icc,
        nops=nops,
        ops_desc=ops_desc,
        pc=pcs,
    )


def _rot_mask(mask: int, r: int, n: int) -> int:
    """Rotate an n-bit cluster mask left by r."""
    full = (1 << n) - 1
    return ((mask << r) | (mask >> (n - r))) & full if r else mask


def _rot_static(st: StaticTable, r: int) -> StaticTable:
    """Apply cluster renaming rotation r to a static table."""
    if r == 0:
        return st
    n = st.n_clusters
    lane = 16  # CLUSTER_BITS

    def rot_packed(p: int) -> int:
        full = (1 << (lane * n)) - 1
        shift = lane * r
        return ((p << shift) | (p >> (lane * n - shift))) & full

    def roll(row: list) -> list:
        return [row[(c - r) % n] for c in range(n)]

    return StaticTable(
        n_clusters=n,
        packed=[rot_packed(p) for p in st.packed],
        cmask=[_rot_mask(m, r, n) for m in st.cmask],
        bundle_packed=[roll(b) for b in st.bundle_packed],
        bundle_nops=[roll(b) for b in st.bundle_nops],
        mem_cmask=[_rot_mask(m, r, n) for m in st.mem_cmask],
        store_cmask=[_rot_mask(m, r, n) for m in st.store_cmask],
        icc=st.icc,
        nops=st.nops,
        ops_desc=[
            tuple(((c + r) % n, fu, m) for (c, fu, m) in desc)
            for desc in st.ops_desc
        ],
        pc=st.pc,
    )


def _rows(addrs: np.ndarray) -> list[tuple[int, ...]]:
    """Rows of a 2-D array as tuples of Python ints; zipping the
    columns builds them in C, several times faster than a tuple() per
    row on traces of 10^5 instructions."""
    return list(zip(*addrs.T.tolist()))


class TraceBundle:
    """Everything the timing model needs about one benchmark."""

    def __init__(
        self,
        name: str,
        program: Program,
        cfg: MachineConfig,
        idx: np.ndarray,
        taken: np.ndarray,
        addrs: np.ndarray,
    ):
        self.name = name
        self.program = program
        self.cfg = cfg
        self.static = build_static_table(program, cfg)
        # hot-loop friendly copies
        self.idx = idx.tolist()
        self.taken = taken.tolist()
        self.addr_rows = _rows(addrs)
        self.length = len(self.idx)
        self.total_ops = sum(self.static.nops[i] for i in self.idx)
        self._rot_cache: dict[int, tuple[StaticTable, list]] = {
            0: (self.static, self.addr_rows)
        }
        self._addrs_np = addrs
        # computed eagerly while the numpy arrays are in hand, so the
        # bundle does not retain a second copy of idx/taken for a lazy
        # hash (bundles live for the process in the suite memo)
        self._fingerprint = self._compute_fingerprint(idx, taken, addrs)

    def rotated(self, r: int) -> tuple[StaticTable, list]:
        """Static table and address rows under cluster renaming ``r``."""
        r %= self.cfg.n_clusters
        if r not in self._rot_cache:
            st = _rot_static(self.static, r)
            rolled = np.roll(self._addrs_np, r, axis=1)
            self._rot_cache[r] = (st, _rows(rolled))
        return self._rot_cache[r]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The dynamic trace as ``(idx, taken, addrs)`` arrays, with
        the dtypes :meth:`TraceRecorder.arrays` records."""
        return (
            np.asarray(self.idx, dtype=np.int32),
            np.asarray(self.taken, dtype=bool),
            self._addrs_np,
        )

    @property
    def avg_ops_per_instr(self) -> float:
        return self.total_ops / max(1, self.length)

    def _compute_fingerprint(
        self, idx: np.ndarray, taken: np.ndarray, addrs: np.ndarray
    ) -> str:
        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(np.ascontiguousarray(idx, np.int64).tobytes())
        h.update(np.ascontiguousarray(taken, np.int8).tobytes())
        h.update(np.ascontiguousarray(addrs, np.int64).tobytes())
        st = self.static
        # ops_desc is order-sensitive: op-level split issues ops in
        # this order under resource pressure, so a reorder changes
        # replay even when the aggregate masks are identical
        h.update(
            repr(
                (
                    st.n_clusters,
                    st.packed,
                    st.cmask,
                    st.bundle_packed,
                    st.bundle_nops,
                    st.mem_cmask,
                    st.store_cmask,
                    st.icc,
                    st.nops,
                    st.ops_desc,
                    st.pc,
                )
            ).encode()
        )
        return h.hexdigest()

    def fingerprint(self) -> str:
        """Content hash of the dynamic trace + merge-relevant static
        tables.  Two bundles with the same fingerprint replay
        identically under any policy, so the engine's disk cache keys
        on this rather than on kernel names (a kernel edit or a scale
        change invalidates every cached result that used it)."""
        return self._fingerprint


def record_trace(
    program: Program,
    cfg: MachineConfig,
    max_instructions: int = 5_000_000,
) -> TraceBundle:
    """Run a program on the functional VM and capture its trace."""
    vm = VM(program)
    rec = TraceRecorder(cfg.n_clusters)
    vm.run(max_instructions=max_instructions, recorder=rec)
    idx, taken, addrs = rec.arrays()
    return TraceBundle(program.name, program, cfg, idx, taken, addrs)
