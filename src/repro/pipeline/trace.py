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
* ``bundle_sum``    — ``sum(bundle_packed[i])``: the usage the
  cluster-level split test charges when every bundle issues at once;
* ``mem_cmask``/``store_cmask`` — clusters with memory ops / stores;
* ``icc``           — instruction contains SEND/RECV (NS atomicity);
* ``ops_desc``      — per-op (cluster, fu, is_mem) for operation-level
  split (OOSI);
* ``ops_use``       — the same ops as ``(packed usage, mem cluster
  bit)`` pairs, the form the generated op-split loop consumes; only
  n_clusters x FU-class distinct pairs exist, so they are interned;
* ``pc``            — byte address for the ICache model;
* ``fetch``         — ``(pc, nops, cmask, mem_cmask, store_cmask)``
  per instruction: the fields the generated loop's fetch path reads,
  loaded with one subscript and one tuple unpack.

The dynamic trace keeps its memory addresses as ``n_clusters``
per-cluster columns (``addr_cols[c][pos]`` is cluster ``c``'s address
at trace position ``pos``, -1 for none).

**Cluster renaming** (paper §IV, from the CSMT paper) statically rotates
each thread's cluster assignment; :meth:`TraceBundle.rotated` returns a
static table rotated by the renaming value and the address columns
permuted by reference (no address is copied), at zero per-cycle cost.
"""

from __future__ import annotations

import functools
import hashlib
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

from ..arch.config import MachineConfig
from ..arch.resources import op_usage_table, usage_of_ops
from ..isa.opcodes import FUClass, Opcode
from ..isa.program import Program
from ..vm.machine import VM, TraceRecorder

#: per-cluster address columns of one rotation
AddrCols = tuple[list[int], ...]


@dataclass
class StaticTable:
    """Per-static-instruction properties (one rotation).  ``bundle_sum``,
    ``ops_use`` and ``fetch`` are derived from the other fields."""

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
    bundle_sum: list[int] = field(init=False)
    ops_use: list[tuple[tuple[int, int], ...]] = field(init=False)
    fetch: list[tuple[int, int, int, int, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.bundle_sum = [sum(b) for b in self.bundle_packed]
        self.ops_use = _ops_use(self.ops_desc, self.n_clusters)
        self.fetch = list(zip(
            self.pc, self.nops, self.cmask, self.mem_cmask, self.store_cmask
        ))

    def __reduce__(self):
        # unpickled through the constructor, which interns ops_use as a
        # local build does (a table unpickled field by field simulates
        # measurably slower)
        return StaticTable, _static_fields(self)


#: the :class:`StaticTable` constructor's fields, in order
_STATIC_FIELDS = tuple(f.name for f in fields(StaticTable) if f.init)


def _static_fields(st: StaticTable) -> tuple:
    """The values of ``st``'s constructor fields, in order."""
    return tuple(getattr(st, f) for f in _STATIC_FIELDS)


@functools.lru_cache(maxsize=None)
def _use_pairs(n_clusters: int) -> dict[tuple[int, int, bool], tuple]:
    """Descriptor -> ``(op_usage[c][fu], mem bit)``, one shared tuple
    per distinct pair."""
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    pairs = {}
    for c, lanes in enumerate(op_usage_table(n_clusters)):
        for fu, u in enumerate(lanes):
            for m in (False, True):
                pair = (u, (1 << c) if m else 0)
                pairs[c, fu, m] = shared.setdefault(pair, pair)
    return pairs


def _ops_use(
    ops_desc: list[tuple[tuple[int, int, bool], ...]], n_clusters: int
) -> list[tuple[tuple[int, int], ...]]:
    pairs = _use_pairs(n_clusters)
    return [tuple(pairs[d] for d in desc) for desc in ops_desc]


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


def _roll(row: Sequence, r: int) -> list:
    """Per-cluster ``row`` under renaming ``r``: entry ``c`` is
    ``row[(c - r) % n]``, so cluster c's data moves to cluster c + r."""
    n = len(row)
    return [row[(c - r) % n] for c in range(n)]


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

    ops_desc = [
        tuple(((c + r) % n, fu, m) for (c, fu, m) in desc)
        for desc in st.ops_desc
    ]

    return StaticTable(
        n_clusters=n,
        packed=[rot_packed(p) for p in st.packed],
        cmask=[_rot_mask(m, r, n) for m in st.cmask],
        bundle_packed=[_roll(b, r) for b in st.bundle_packed],
        bundle_nops=[_roll(b, r) for b in st.bundle_nops],
        mem_cmask=[_rot_mask(m, r, n) for m in st.mem_cmask],
        store_cmask=[_rot_mask(m, r, n) for m in st.store_cmask],
        icc=st.icc,
        nops=st.nops,
        ops_desc=ops_desc,
        pc=st.pc,
    )


class TraceBundle:
    """Everything the timing model needs about one benchmark: its
    static table, dynamic trace and content fingerprint.  Built by
    :func:`record_trace`; a pickled bundle is rebuilt through the
    constructors."""

    def __init__(
        self,
        name: str,
        cfg: MachineConfig,
        static: StaticTable,
        idx: list[int],
        taken: list[bool],
        addr_cols: AddrCols,
        total_ops: int,
        fingerprint: str,
    ):
        self.name = name
        self.cfg = cfg
        self.static = static
        self.idx = idx
        self.taken = taken
        self.addr_cols = addr_cols
        self.length = len(idx)
        self.total_ops = total_ops
        self._rot_cache: dict[int, tuple[StaticTable, AddrCols]] = {
            0: (static, addr_cols)
        }
        self._fingerprint = fingerprint

    def __reduce__(self):
        return TraceBundle, (
            self.name, self.cfg, self.static, self.idx, self.taken,
            self.addr_cols, self.total_ops, self._fingerprint,
        )

    def rotated(self, r: int) -> tuple[StaticTable, AddrCols]:
        """Static table and address columns under cluster renaming
        ``r``: rotated column ``c`` is column ``(c - r) % n``, the same
        list object."""
        r %= self.cfg.n_clusters
        if r not in self._rot_cache:
            self._rot_cache[r] = (
                _rot_static(self.static, r),
                tuple(_roll(self.addr_cols, r)),
            )
        return self._rot_cache[r]

    def fingerprint(self) -> str:
        """Content hash of the dynamic trace + merge-relevant static
        tables.  Two bundles with the same fingerprint replay
        identically under any policy, so the engine's disk cache keys
        on this rather than on kernel names (a kernel edit or a scale
        change invalidates every cached result that used it)."""
        return self._fingerprint


def _fingerprint(
    name: str, idx: list[int], taken: list[bool], addrs: list[int],
    st: StaticTable,
) -> str:
    h = hashlib.sha256()
    h.update(name.encode())
    # native-endian int64 / int8 / int64 bytes of the trace lists
    h.update(array("q", idx).tobytes())
    h.update(array("b", taken).tobytes())
    h.update(array("q", addrs).tobytes())
    # every constructor field of the static table; ops_desc is
    # order-sensitive: op-level split issues ops in this order under
    # resource pressure, so a reorder changes replay even when the
    # aggregate masks are identical
    h.update(repr(_static_fields(st)).encode())
    return h.hexdigest()


def record_trace(
    program: Program,
    cfg: MachineConfig,
    max_instructions: int = 5_000_000,
) -> TraceBundle:
    """Run a program on the functional VM and capture its trace.  The
    bundle keeps no reference to ``program``."""
    n = cfg.n_clusters
    vm = VM(program)
    rec = TraceRecorder(n)
    vm.run(max_instructions=max_instructions, recorder=rec)
    static = build_static_table(program, cfg)
    idx, taken, addrs = rec.indices, rec.taken, rec.addrs
    nops = static.nops
    return TraceBundle(
        program.name, cfg, static, idx, taken,
        tuple(addrs[c::n] for c in range(n)),
        sum(nops[i] for i in idx),
        # hashed while the flat address list is in hand, so the bundle
        # does not retain it (bundles live for the process in the
        # suite memo)
        _fingerprint(program.name, idx, taken, addrs, static),
    )
