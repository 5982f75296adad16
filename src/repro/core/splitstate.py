"""Per-thread pending-instruction state for split-issue.

A :class:`PendingInstruction` tracks which parts of the current VLIW
instruction of one hardware thread have already been issued, the
*last-part* signal (paper Fig. 7b), and the clusters whose buffered
stores will need a memory port when the last part commits (paper
Fig. 11).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a core <-> pipeline import cycle at runtime
    from ..pipeline.trace import StaticTable


class PendingInstruction:
    """State machine for one in-flight (possibly split) instruction."""

    __slots__ = (
        "table",
        "static_index",
        "split",
        "atomic",
        "pending_mask",
        "pending_ops",
        "ops_remaining",
        "ops_total",
        "was_split",
        "buffered_store_mask",
        "issued_any",
    )

    def __init__(
        self,
        table: StaticTable,
        static_index: int,
        split: str,
        comm_split: bool,
    ):
        """``split`` is 'none' | 'cluster' | 'op'; ``comm_split`` False
        (NS) forces instructions containing inter-cluster communication
        to issue atomically."""
        self.table = table
        self.static_index = static_index
        self.split = split
        i = static_index
        self.atomic = split == "none" or (
            not comm_split and table.icc[i]
        )
        self.pending_mask = table.cmask[i]
        self.ops_total = table.nops[i]
        self.ops_remaining = table.nops[i]
        if split == "op" and not self.atomic:
            self.pending_ops = list(table.ops_desc[i])
        else:
            self.pending_ops = []
        self.was_split = False
        self.buffered_store_mask = 0
        self.issued_any = False

    # -- transitions driven by the merge engine ---------------------------
    def issue_all(self) -> None:
        self.pending_mask = 0
        self.pending_ops = []
        self.ops_remaining = 0
        self.issued_any = True

    def issue_clusters(self, mask: int, n_ops: int | None = None) -> None:
        """Cluster-level split: bundles in ``mask`` issued this cycle.
        ``n_ops`` is their op count when the caller already summed it
        (the merge engine does); recomputed from the table otherwise."""
        if n_ops is None:
            nops = self.table.bundle_nops[self.static_index]
            n_ops = 0
            c = 0
            m = mask
            while m:
                if m & 1:
                    n_ops += nops[c]
                m >>= 1
                c += 1
        self.ops_remaining -= n_ops
        self.pending_mask &= ~mask
        self.issued_any = True
        if self.pending_mask:
            self.was_split = True

    def note_op_issued(self, cluster: int, is_mem: bool) -> None:
        """Operation-level split: one operation issued."""
        self.ops_remaining -= 1
        self.issued_any = True
        if self.ops_remaining:
            self.was_split = True
        else:
            self.pending_mask = 0

    def buffer_stores(self, store_mask: int) -> None:
        """Record stores issued in a split (non-final) part: they write
        into buffers and commit with the last part (paper §V-B/§V-D)."""
        if store_mask:
            self.buffered_store_mask |= store_mask

    @property
    def done(self) -> bool:
        return self.ops_remaining == 0
