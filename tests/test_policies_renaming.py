"""Policy registry, cluster renaming, priority rotation, pending state."""

import pytest

from repro.core.policies import (
    ALL_POLICIES,
    BY_NAME,
    CCSI_AS,
    CCSI_NS,
    COSI_AS,
    CSMT,
    OOSI_AS,
    SMT,
    Policy,
    get_policy,
)
from repro.core.merging import MergeEngine
from repro.core.priority import FixedPriority, RoundRobinPriority, make_priority
from repro.core.renaming import renaming_value, renaming_vector
from repro.core.splitstate import PendingInstruction
from repro.isa.opcodes import Opcode
from repro.isa.operation import Operation, VLIWInstruction
from repro.isa.program import Program
from repro.arch.config import PAPER_MACHINE
from repro.pipeline.trace import build_static_table


# ----------------------------------------------------------------- policies
def test_eight_policies():
    assert len(ALL_POLICIES) == 8
    assert len({p.name for p in ALL_POLICIES}) == 8


def test_policy_lookup():
    assert get_policy("CCSI AS") is CCSI_AS
    with pytest.raises(KeyError):
        get_policy("nope")


def test_fig4_invalid_combination_rejected():
    # operation-level split + cluster-level merging is marked '-' in
    # the paper's Fig. 4
    with pytest.raises(ValueError):
        Policy("bad", merge="cluster", split="op", comm_split=True)


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy("bad", merge="word", split="none", comm_split=False)
    with pytest.raises(ValueError):
        Policy("bad", merge="op", split="half", comm_split=False)


def test_comm_label():
    assert CCSI_AS.comm_label == "AS"
    assert CCSI_NS.comm_label == "NS"


def test_uses_split():
    assert not SMT.uses_split and not CSMT.uses_split
    assert CCSI_AS.uses_split and COSI_AS.uses_split and OOSI_AS.uses_split


# ----------------------------------------------------------------- renaming
def test_paper_renaming_example_4t4c():
    # "Thread 0 is rotated by 0, Thread 1 by 1, Thread 2 by 2, Thread 3
    # by 3"
    assert renaming_vector(4, 4) == [0, 1, 2, 3]


def test_renaming_2t4c():
    assert renaming_vector(2, 4) == [0, 1]


def test_renaming_wraps_mod_clusters():
    assert renaming_value(5, 8, 4) == 1


def test_renaming_bounds():
    with pytest.raises(ValueError):
        renaming_value(4, 4, 4)
    with pytest.raises(ValueError):
        renaming_value(-1, 4, 4)


# ----------------------------------------------------------------- priority
def test_round_robin_rotates_every_cycle():
    p = RoundRobinPriority(3)
    assert p.order(0) == (0, 1, 2)
    assert p.order(1) == (1, 2, 0)
    assert p.order(2) == (2, 0, 1)
    assert p.order(3) == (0, 1, 2)


def test_each_thread_gets_top_priority_equally():
    p = RoundRobinPriority(4)
    tops = [p.order(c)[0] for c in range(400)]
    for t in range(4):
        assert tops.count(t) == 100


def test_fixed_priority():
    p = FixedPriority(4)
    for c in range(5):
        assert p.order(c) == (0, 1, 2, 3)


def test_make_priority():
    assert isinstance(make_priority("round-robin", 2), RoundRobinPriority)
    assert isinstance(make_priority("fixed", 2), FixedPriority)
    with pytest.raises(ValueError):
        make_priority("random", 2)


# ---------------------------------------------------------- pending state
def _table():
    ins = VLIWInstruction([
        Operation(Opcode.ADD, cluster=0, dst=1, srcs=(2, 3)),
        Operation(Opcode.ADD, cluster=1, dst=1, srcs=(2, 3)),
        Operation(Opcode.STW, cluster=2, srcs=(1, 2)),
    ])
    icc = VLIWInstruction([
        Operation(Opcode.SEND, cluster=0, srcs=(1,), xfer_id=0),
        Operation(Opcode.RECV, cluster=1, dst=2, xfer_id=0),
    ])
    haltins = VLIWInstruction([Operation(Opcode.HALT, cluster=0)])
    return build_static_table(
        Program([ins, icc, haltins], 4, name="t"), PAPER_MACHINE
    )


def test_pending_initial_state():
    t = _table()
    p = PendingInstruction(t, 0, "cluster", True)
    assert p.pending_mask == 0b111
    assert p.ops_remaining == 3 and not p.done


def test_pending_issue_all():
    t = _table()
    p = PendingInstruction(t, 0, "none", True)
    p.issue_all()
    assert p.done and not p.was_split


def test_pending_issue_clusters_tracks_split():
    t = _table()
    p = PendingInstruction(t, 0, "cluster", True)
    p.issue_clusters(0b001)
    assert p.was_split and p.ops_remaining == 2
    p.issue_clusters(0b110)
    assert p.done


def test_pending_ns_atomic_for_icc():
    t = _table()
    p = PendingInstruction(t, 1, "cluster", False)
    assert p.atomic
    p_as = PendingInstruction(t, 1, "cluster", True)
    assert not p_as.atomic


def test_pending_op_mode_populates_ops():
    t = _table()
    p = PendingInstruction(t, 0, "op", True)
    assert len(p.pending_ops) == 3


def test_buffer_stores():
    t = _table()
    p = PendingInstruction(t, 0, "cluster", True)
    p.buffer_stores(0b100)
    assert p.buffered_store_mask == 0b100


@pytest.mark.xfail(
    strict=True,
    reason="known defect, ROADMAP item 3 (b): note_op_issued marks the "
    "instruction split after its first op even when every op issues in "
    "the same cycle; fixing it moves the pinned result digests",
)
def test_op_split_whole_issue_in_one_cycle_is_not_split():
    t = _table()
    p = PendingInstruction(t, 0, "op", True)
    n, _cmask, _mem = MergeEngine(PAPER_MACHINE, "op").try_ops(p)
    assert n == 3 and p.done
    assert not p.was_split
