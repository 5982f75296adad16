"""Merge hardware model (paper Fig. 7) — one execution packet per cycle.

The :class:`MergeEngine` models the collision-detection (CL) and merge
(ML) logic: threads are offered to it in priority order and it
accumulates the execution packet's resource state.  Three entry points
correspond to the three split levels:

* :meth:`try_whole`   — no split: the instruction merges in its entirety
  or not at all (SMT/CSMT);
* :meth:`try_bundles` — cluster-level split: each pending bundle merges
  independently per cluster (CCSI/COSI); with cluster-level merging the
  per-cluster check is a single free-bit test, which is why the paper's
  Fig. 7(b) hardware is *simpler* than the unsplit version (no global
  AND across clusters);
* :meth:`try_ops`     — operation-level split (OOSI): any subset of the
  pending operations may issue, greedily.

The engine also produces the paper's *last-part* signal: callers learn
whether the thread's instruction has now been merged in its entirety
(needed by the write-buffer commit and the memory-port model).

Merging level is selected by ``merge``:

* ``"op"``      — operation-level conflicts (issue slots + FU counts),
  checked with one SWAR subtract on packed usage vectors;
* ``"cluster"`` — cluster-level conflicts (a cluster may be used by at
  most one thread per cycle), checked with one AND of cluster masks.

The op-level greedy fill (:meth:`try_ops`, OOSI's hot path) uses the
same packed representation as the whole-instruction check: each
operation's usage is a precomputed single-slot/single-FU packed int,
accepted or rejected with one subtract-and-mask against ``remaining``.
No scalar per-cluster counters exist anywhere — ``remaining`` is the
only resource state, so partial issues never need a re-sync pass.
"""

from __future__ import annotations

from ..arch.config import MachineConfig
from ..arch.resources import capacity_packed, guards_mask, op_usage_table
from .splitstate import PendingInstruction


class MergeEngine:
    """Per-cycle merge state.  Call :meth:`begin_cycle`, then offer
    threads in priority order."""

    __slots__ = (
        "cfg",
        "merge",
        "capacity",
        "guards",
        "n_clusters",
        "remaining",
        "used_mask",
        "mem_used_mask",
        "_op_level",
        "_op_usage",
    )

    def __init__(self, cfg: MachineConfig, merge: str):
        if merge not in ("op", "cluster"):
            raise ValueError(f"merge must be 'op' or 'cluster', got {merge}")
        self.cfg = cfg
        self.merge = merge
        self._op_level = merge == "op"
        self.capacity = capacity_packed(cfg)
        self.guards = guards_mask(cfg.n_clusters)
        self.n_clusters = cfg.n_clusters
        # packed usage of one operation, indexed [cluster][fu] — the
        # op-level greedy fill's whole resource model
        self._op_usage = op_usage_table(cfg.n_clusters)
        self.begin_cycle()

    def begin_cycle(self) -> None:
        self.remaining = self.capacity
        self.used_mask = 0
        self.mem_used_mask = 0

    # ------------------------------------------------------------------
    def _fits_op_level(self, packed: int) -> bool:
        return ((self.remaining | self.guards) - packed) & self.guards == (
            self.guards
        )

    def _take_packed(self, packed: int, cmask: int, mem_cmask: int) -> None:
        self.used_mask |= cmask
        self.mem_used_mask |= mem_cmask
        if self._op_level:
            # cluster-level merging never consults ``remaining``
            # (conflicts are single mask tests), so only op-level
            # engines track it
            self.remaining -= packed

    # ------------------------------------------------------------------
    def try_whole(self, pend: PendingInstruction) -> bool:
        """Offer a complete instruction (no-split policies).

        Returns True (and consumes resources) iff it merges.
        """
        st, i = pend.table, pend.static_index
        if self.merge == "cluster":
            if st.cmask[i] & self.used_mask:
                return False
        else:
            if not self._fits_op_level(st.packed[i]):
                return False
        self._take_packed(st.packed[i], st.cmask[i], st.mem_cmask[i])
        pend.issue_all()
        return True

    def try_bundles(self, pend: PendingInstruction) -> tuple[int, int]:
        """Offer the pending bundles of a cluster-level-split thread.

        Returns ``(issued_cluster_mask, ops_issued)``.  Honors the NS
        policy via ``pend.atomic`` (ICC instructions merge whole or not
        at all).
        """
        st, i = pend.table, pend.static_index
        pending = pend.pending_mask
        if pend.atomic:
            # behave like try_whole but restricted to the pending part
            if self.merge == "cluster":
                if pending & self.used_mask:
                    return 0, 0
            else:
                if not self._fits_op_level(st.packed[i]):
                    return 0, 0
            self._take_packed(st.packed[i], pending, st.mem_cmask[i])
            ops = pend.ops_remaining
            pend.issue_all()
            return pending, ops

        b_nops = st.bundle_nops[i]
        if not self._op_level:
            # cluster-level merging: the whole per-cluster scan reduces
            # to one mask op — a pending bundle issues iff its cluster
            # is still unused (paper Fig. 7b's single free-bit test)
            avail = pending & ~self.used_mask
            if not avail:
                return 0, 0
            ops = 0
            m = avail
            c = 0
            while m:
                if m & 1:
                    ops += b_nops[c]
                m >>= 1
                c += 1
            self.used_mask |= avail
            self.mem_used_mask |= st.mem_cmask[i] & avail
            pend.issue_clusters(avail, ops)
            return avail, ops

        issued_mask = 0
        ops = 0
        b_packed = st.bundle_packed[i]
        for c in range(self.n_clusters):
            if not (pending >> c) & 1:
                continue
            if not self._fits_op_level(b_packed[c]):
                continue
            self._take_packed(
                b_packed[c], 1 << c, st.mem_cmask[i] & (1 << c)
            )
            issued_mask |= 1 << c
            ops += b_nops[c]
        if issued_mask:
            pend.issue_clusters(issued_mask, ops)
        return issued_mask, ops

    def try_ops(self, pend: PendingInstruction) -> tuple[int, int, int]:
        """Offer individual pending operations (OOSI).

        Returns ``(ops_issued, issued_cluster_mask, issued_mem_mask)``;
        updates ``pend``.  Each operation is one packed SWAR
        subtract-and-mask against ``remaining`` — the same check the
        whole-instruction path uses, specialised to single-op usage —
        so a partial fill leaves ``remaining`` exact with no re-sync.
        """
        st, i = pend.table, pend.static_index
        if pend.atomic:
            if not self._fits_op_level(st.packed[i]):
                return 0, 0, 0
            self._take_packed(st.packed[i], st.cmask[i], st.mem_cmask[i])
            ops = pend.ops_remaining
            pend.issue_all()
            return ops, st.cmask[i], st.mem_cmask[i]

        issued = 0
        issued_cmask = 0
        issued_mem = 0
        still = []
        remaining = self.remaining
        guards = self.guards
        op_usage = self._op_usage
        note_op_issued = pend.note_op_issued
        for desc in pend.pending_ops:
            c, fu, is_mem = desc
            u = op_usage[c][fu]
            left = (remaining | guards) - u
            if left & guards == guards:
                # all guards survived: left's value fields are exactly
                # remaining - u, so clearing the guards is the update
                remaining = left ^ guards
                bit = 1 << c
                issued_cmask |= bit
                if is_mem:
                    issued_mem |= bit
                issued += 1
                note_op_issued(c, is_mem)
            else:
                still.append(desc)
        pend.pending_ops = still
        if issued:
            self.remaining = remaining
            self.used_mask |= issued_cmask
            self.mem_used_mask |= issued_mem
        return issued, issued_cmask, issued_mem
