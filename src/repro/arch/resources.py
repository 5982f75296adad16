"""Packed (SWAR) resource vectors for the merge hardware model.

Operation-level merging must check, per cluster, that the merged packet
does not exceed: issue slots, ALU count, MUL count, MEM count.  Doing 16
comparisons per merge attempt in Python is the simulator's hottest path,
so usage vectors are packed into a single Python integer with 4-bit
fields (3 value bits + 1 guard bit) laid out as::

    cluster 0: [mem | mul | alu | slots]   bits  0..15
    cluster 1: ...                         bits 16..31
    ...

``fits_packed(remaining, usage)`` is a single subtract-and-mask: the
guard bit of each field survives the subtraction iff the field did not
borrow, i.e. iff ``remaining >= usage`` field-wise.  This is the classic
SWAR trick recommended by the HPC guides for pulling per-element
comparisons out of interpreted loops.

Field capacity is limited to 7 (3 value bits); the paper machine needs
at most 4 (issue width per cluster).
"""

from __future__ import annotations

from ..isa.opcodes import FUClass
from .config import MachineConfig

FIELD_BITS = 4
FIELDS_PER_CLUSTER = 4  # slots, alu, mul, mem
CLUSTER_BITS = FIELD_BITS * FIELDS_PER_CLUSTER

# Field offsets within a cluster's 16-bit lane.
OFF_SLOTS = 0
OFF_ALU = 4
OFF_MUL = 8
OFF_MEM = 12

#: guard bit of one field
_GUARD = 0x8
#: guard bits for all four fields of one cluster
_CLUSTER_GUARDS = (
    _GUARD << OFF_SLOTS
    | _GUARD << OFF_ALU
    | _GUARD << OFF_MUL
    | _GUARD << OFF_MEM
)


#: Packed one-operation usage per FU class within a cluster's lane:
#: every op takes an issue slot; ALU/MUL/MEM additionally take their
#: FU; BRANCH (3) and COPY (4) take the slot only.  Indexed by
#: ``int(FUClass)``.
OP_LANE = (
    (1 << OFF_SLOTS) | (1 << OFF_ALU),  # 0: ALU
    (1 << OFF_SLOTS) | (1 << OFF_MUL),  # 1: MUL
    (1 << OFF_SLOTS) | (1 << OFF_MEM),  # 2: MEM
    1 << OFF_SLOTS,                     # 3: BRANCH
    1 << OFF_SLOTS,                     # 4: COPY
)


def op_usage_table(n_clusters: int) -> list[list[int]]:
    """Packed usage of one operation, indexed ``[cluster][fu]``."""
    return [
        [lane << (c * CLUSTER_BITS) for lane in OP_LANE]
        for c in range(n_clusters)
    ]


def guards_mask(n_clusters: int) -> int:
    """Guard-bit mask covering ``n_clusters`` clusters."""
    m = 0
    for c in range(n_clusters):
        m |= _CLUSTER_GUARDS << (c * CLUSTER_BITS)
    return m


def pack_cluster(slots: int, alu: int, mul: int, mem: int) -> int:
    """Pack one cluster's usage counts into a 16-bit lane."""
    for name, v in (("slots", slots), ("alu", alu), ("mul", mul), ("mem", mem)):
        if not 0 <= v <= 7:
            raise ValueError(f"{name}={v} out of 3-bit field range")
    return (
        slots << OFF_SLOTS | alu << OFF_ALU | mul << OFF_MUL | mem << OFF_MEM
    )


def pack_usage(per_cluster: list[tuple[int, int, int, int]]) -> int:
    """Pack ``[(slots, alu, mul, mem), ...]`` (one tuple per cluster)."""
    packed = 0
    for c, counts in enumerate(per_cluster):
        packed |= pack_cluster(*counts) << (c * CLUSTER_BITS)
    return packed


def unpack_usage(packed: int, n_clusters: int) -> list[tuple[int, int, int, int]]:
    """Inverse of :func:`pack_usage` (for tests and debugging)."""
    out = []
    for c in range(n_clusters):
        lane = (packed >> (c * CLUSTER_BITS)) & 0xFFFF
        out.append(
            (
                (lane >> OFF_SLOTS) & 0x7,
                (lane >> OFF_ALU) & 0x7,
                (lane >> OFF_MUL) & 0x7,
                (lane >> OFF_MEM) & 0x7,
            )
        )
    return out


def capacity_packed(cfg: MachineConfig) -> int:
    """Packed per-cluster capacities of a machine."""
    cl = cfg.cluster
    return pack_usage(
        [(cl.issue_width, cl.n_alu, cl.n_mul, cl.n_mem)] * cfg.n_clusters
    )


def fits_packed(remaining: int, usage: int, guards: int) -> bool:
    """True iff ``usage <= remaining`` in every 4-bit field.

    ``guards`` must be :func:`guards_mask` for the machine's cluster
    count.  Both operands must have clear guard bits (enforced by
    :func:`pack_cluster`'s <=7 limit and capacities <=7... capacities use
    value bits only).
    """
    return ((remaining | guards) - usage) & guards == guards


def cluster_lane_mask(clusters_mask: int, n_clusters: int) -> int:
    """Expand a cluster bitmask into a full-lane mask.

    Used to restrict a packed usage to a subset of clusters (cluster-level
    split issues bundle-by-bundle).
    """
    m = 0
    for c in range(n_clusters):
        if clusters_mask >> c & 1:
            m |= 0xFFFF << (c * CLUSTER_BITS)
    return m


def usage_of_ops(ops, n_clusters: int) -> int:
    """Packed usage of an iterable of :class:`~repro.isa.Operation`.

    Branch ops occupy an issue slot (and an ALU-class slot on VEX's
    branch unit is separate, so they consume only the generic slot);
    SEND/RECV occupy an issue slot in their cluster.
    """
    counts = [[0, 0, 0, 0] for _ in range(n_clusters)]
    for op in ops:
        c = counts[op.cluster]
        c[0] += 1
        fu = op.fu
        if fu is FUClass.ALU:
            c[1] += 1
        elif fu is FUClass.MUL:
            c[2] += 1
        elif fu is FUClass.MEM:
            c[3] += 1
        # BRANCH and COPY consume only the issue slot.
    return pack_usage([tuple(c) for c in counts])


def add_usage(a: int, b: int) -> int:
    """Sum of two packed usages (caller guarantees no field overflow,
    which holds whenever ``fits_packed`` approved ``b`` against the
    remaining capacity)."""
    return a + b


def sub_usage(a: int, b: int) -> int:
    """Field-wise subtraction (caller guarantees ``b <= a`` field-wise)."""
    return a - b
