"""Functional VM semantics (repro.vm.machine)."""

import pytest

from repro.arch.config import PAPER_MACHINE
from repro.isa.opcodes import Opcode
from repro.isa.operation import Operation, VLIWInstruction
from repro.isa.program import DataSegment, Program
from repro.vm.machine import MASK32, VM, TraceRecorder, VMError, _s32


def prog(instrs, data=None) -> Program:
    return Program(instrs, PAPER_MACHINE.n_clusters, data, "t")


def halt() -> VLIWInstruction:
    return VLIWInstruction([Operation(Opcode.HALT, cluster=0)])


def movi(c, r, v):
    return Operation(Opcode.MOV, cluster=c, dst=r, imm=v, use_imm=True)


def test_s32():
    assert _s32(0xFFFFFFFF) == -1
    assert _s32(0x7FFFFFFF) == 0x7FFFFFFF
    assert _s32(0x80000000) == -(1 << 31)


def test_mov_and_add():
    p = prog([
        VLIWInstruction([movi(0, 1, 5), movi(0, 2, 7)]),
        VLIWInstruction([Operation(Opcode.ADD, cluster=0, dst=3, srcs=(1, 2))]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][3] == 12


def test_r0_hardwired_zero():
    p = prog([
        VLIWInstruction([movi(0, 0, 99)]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][0] == 0


@pytest.mark.parametrize(
    "opc,a,b,expected",
    [
        (Opcode.ADD, 7, 3, 10),
        (Opcode.SUB, 3, 7, (3 - 7) & MASK32),
        (Opcode.AND, 0b1100, 0b1010, 0b1000),
        (Opcode.OR, 0b1100, 0b1010, 0b1110),
        (Opcode.XOR, 0b1100, 0b1010, 0b0110),
        (Opcode.SHL, 1, 31, 0x80000000),
        (Opcode.SHR, 0x80000000, 31, 1),
        (Opcode.SRA, 0x80000000, 31, MASK32),
        (Opcode.MIN, 5, (-3) & MASK32, (-3) & MASK32),
        (Opcode.MAX, 5, (-3) & MASK32, 5),
        (Opcode.ABS, (-17) & MASK32, 0, 17),
        (Opcode.NOT, 0, 0, MASK32),
        (Opcode.SXTB, 0x80, 0, 0xFFFFFF80),
        (Opcode.SXTH, 0x8000, 0, 0xFFFF8000),
        (Opcode.ZXTB, 0x1FF, 0, 0xFF),
        (Opcode.ZXTH, 0x1FFFF, 0, 0xFFFF),
        (Opcode.MPY, 7, (-3) & MASK32, (-21) & MASK32),
        (Opcode.MPYSHR15, 1 << 15, 1 << 15, 1 << 15),
        (Opcode.CMPEQ, 4, 4, 1),
        (Opcode.CMPNE, 4, 4, 0),
        (Opcode.CMPLT, (-1) & MASK32, 0, 1),
        (Opcode.CMPLTU, (-1) & MASK32, 0, 0),
        (Opcode.CMPGE, 3, 3, 1),
        (Opcode.CMPGT, 3, 3, 0),
        (Opcode.CMPLE, 2, 3, 1),
        (Opcode.CMPGEU, (-1) & MASK32, 1, 1),
    ],
)
def test_alu_semantics(opc, a, b, expected):
    op = Operation(opc, cluster=0, dst=3, srcs=(1, 2))
    assert VM.alu(op, a, b) == expected


def test_mpyh():
    op = Operation(Opcode.MPYH, cluster=0, dst=3, srcs=(1, 2))
    assert VM.alu(op, 1 << 16, 1 << 16) == 1  # 2^32 >> 32


def test_single_cycle_swap_reads_old_values():
    """Paper Fig. 3: a one-instruction register swap is legal VLIW."""
    p = prog([
        VLIWInstruction([movi(0, 3, 111), movi(0, 5, 222)]),
        VLIWInstruction([
            Operation(Opcode.MOV, cluster=0, dst=3, srcs=(5,)),
            Operation(Opcode.MOV, cluster=0, dst=5, srcs=(3,)),
        ]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][3] == 222
    assert vm.regs[0][5] == 111


def test_store_then_load():
    data = DataSegment()
    p = prog([
        VLIWInstruction([movi(0, 1, 0x100), movi(0, 2, 0xDEAD)]),
        VLIWInstruction([Operation(Opcode.STW, cluster=0, srcs=(2, 1), imm=4)]),
        VLIWInstruction([Operation(Opcode.LDW, cluster=0, dst=3, srcs=(1,), imm=4)]),
        halt(),
    ], data)
    vm = VM(p)
    vm.run()
    assert vm.regs[0][3] == 0xDEAD


def test_byte_and_half_memory_ops():
    p = prog([
        VLIWInstruction([movi(0, 1, 0x200), movi(0, 2, 0x1FF)]),
        VLIWInstruction([Operation(Opcode.STH, cluster=0, srcs=(2, 1))]),
        VLIWInstruction([Operation(Opcode.LDH, cluster=0, dst=3, srcs=(1,))]),
        VLIWInstruction([Operation(Opcode.LDHU, cluster=0, dst=4, srcs=(1,))]),
        VLIWInstruction([Operation(Opcode.LDB, cluster=0, dst=5, srcs=(1,))]),
        VLIWInstruction([Operation(Opcode.LDBU, cluster=0, dst=6, srcs=(1,))]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][3] == 0x1FF
    assert vm.regs[0][4] == 0x1FF
    assert vm.regs[0][5] == MASK32 - 0xFF + 0xFF  # sign-extended 0xFF
    assert vm.regs[0][6] == 0xFF


def test_data_segment_initialisation():
    data = DataSegment()
    data.set_word(64, 0xCAFEBABE)
    p = prog([
        VLIWInstruction([movi(0, 1, 64)]),
        VLIWInstruction([Operation(Opcode.LDW, cluster=0, dst=2, srcs=(1,))]),
        halt(),
    ], data)
    vm = VM(p)
    vm.run()
    assert vm.regs[0][2] == 0xCAFEBABE


def test_data_segment_set_bytes():
    data = DataSegment()
    data.set_bytes(65, b"\x11\x22")
    vmems = data.words
    assert vmems[64] == 0x00221100


def test_data_segment_rejects_unaligned():
    with pytest.raises(ValueError):
        DataSegment().set_word(3, 1)


def test_cmpbr_and_branch_taken():
    p = prog([
        VLIWInstruction([movi(0, 1, 5)]),
        VLIWInstruction([
            Operation(Opcode.CMPBR, cluster=0, dst=0, srcs=(1,), imm=5,
                      use_imm=True, cmp_kind=int(Opcode.CMPEQ))
        ]),
        VLIWInstruction([]),
        VLIWInstruction([Operation(Opcode.BR, cluster=0, imm=0, target=5)]),
        VLIWInstruction([movi(0, 2, 1)]),  # skipped when taken
        VLIWInstruction([movi(0, 3, 7)]),  # branch target
        halt(),
    ])
    vm = VM(p)
    rec = TraceRecorder(4)
    vm.run(recorder=rec)
    assert vm.regs[0][2] == 0
    assert vm.regs[0][3] == 7
    assert sum(rec.taken) == 1


def test_brf_falls_through_when_true():
    p = prog([
        VLIWInstruction([movi(0, 1, 5)]),
        VLIWInstruction([
            Operation(Opcode.CMPBR, cluster=0, dst=0, srcs=(1,), imm=5,
                      use_imm=True, cmp_kind=int(Opcode.CMPEQ))
        ]),
        VLIWInstruction([]),
        VLIWInstruction([Operation(Opcode.BRF, cluster=0, imm=0, target=5)]),
        VLIWInstruction([movi(0, 2, 1)]),  # executed (cond true, BRF not taken)
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][2] == 1


def test_send_recv_transfers_across_clusters():
    p = prog([
        VLIWInstruction([movi(1, 5, 42)]),
        VLIWInstruction([
            Operation(Opcode.SEND, cluster=1, srcs=(5,), xfer_id=0),
            Operation(Opcode.RECV, cluster=2, dst=7, xfer_id=0),
        ]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[2][7] == 42


def test_out_of_range_load_raises():
    p = prog([
        VLIWInstruction([movi(0, 1, 0x7FFFFFFF)]),
        VLIWInstruction([Operation(Opcode.LDW, cluster=0, dst=2, srcs=(1,))]),
        halt(),
    ])
    vm = VM(p)
    with pytest.raises(VMError):
        vm.run()


def test_runaway_guard():
    p = prog([
        VLIWInstruction([Operation(Opcode.GOTO, cluster=0, target=0)]),
        halt(),
    ])
    vm = VM(p)
    with pytest.raises(VMError):
        vm.run(max_instructions=100)


def test_reset_restores_initial_state(axpy_program):
    vm = VM(axpy_program)
    vm.run()
    ops1, n1 = vm.op_count, vm.instr_count
    mem1 = bytes(vm.mem)
    vm.reset()
    vm.run()
    assert (vm.op_count, vm.instr_count) == (ops1, n1)
    assert bytes(vm.mem) == mem1


def test_trace_recorder_shapes(axpy_program):
    vm = VM(axpy_program)
    rec = TraceRecorder(4)
    n = vm.run(recorder=rec)
    assert len(rec.indices) == len(rec.taken) == n
    assert len(rec.addrs) == 4 * n
    assert max(rec.indices) < len(axpy_program)


# -- read-old-state and commit-order edge cases ----------------------------
def test_alu_swap_reads_old_values():
    """r3, r5 = r3 + r5, r3 - r5 in one instruction: both read the
    pre-instruction values (10, 3), not each other's results."""
    p = prog([
        VLIWInstruction([movi(0, 3, 10), movi(0, 5, 3)]),
        VLIWInstruction([
            Operation(Opcode.ADD, cluster=0, dst=3, srcs=(3, 5)),
            Operation(Opcode.SUB, cluster=0, dst=5, srcs=(3, 5)),
        ]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert (vm.regs[0][3], vm.regs[0][5]) == (13, 7)


def test_load_sees_old_memory_under_same_instruction_store():
    data = DataSegment()
    data.set_word(0x40, 0x11111111)
    p = prog([
        VLIWInstruction(
            [movi(0, 1, 0x40), movi(0, 2, 0x22), movi(1, 1, 0x40)]
        ),
        VLIWInstruction([
            Operation(Opcode.STW, cluster=0, srcs=(2, 1)),
            Operation(Opcode.LDW, cluster=1, dst=3, srcs=(1,)),
        ]),
        VLIWInstruction([Operation(Opcode.LDW, cluster=1, dst=4, srcs=(1,))]),
        halt(),
    ], data)
    vm = VM(p)
    rec = TraceRecorder(4)
    vm.run(recorder=rec)
    assert vm.regs[1][3] == 0x11111111  # old value, same instruction
    assert vm.regs[1][4] == 0x22  # the store committed afterwards
    assert rec.addrs[4:8] == [0x40, 0x40, -1, -1]  # row of instr 1


def test_branch_reads_old_branch_register():
    """A BR sees b0 as it was before its own instruction's CMPBR."""
    cmp_b0 = Operation(Opcode.CMPBR, cluster=0, dst=0, srcs=(0,), imm=0,
                       use_imm=True, cmp_kind=int(Opcode.CMPEQ))  # 1
    p = prog([
        VLIWInstruction(
            [cmp_b0, Operation(Opcode.BR, cluster=0, imm=0, target=3)]
        ),
        VLIWInstruction([Operation(Opcode.BR, cluster=0, imm=0, target=3)]),
        VLIWInstruction([movi(0, 2, 1)]),  # skipped by the second BR
        halt(),
    ])
    vm = VM(p)
    rec = TraceRecorder(4)
    vm.run(recorder=rec)
    assert rec.indices == [0, 1, 3]
    assert rec.taken == [False, True, False]
    assert vm.bregs[0] == 1 and vm.regs[0][2] == 0


def test_negative_immediate_logic_commits_masked():
    p = prog([
        VLIWInstruction([movi(0, 1, -1), movi(0, 4, 5)]),
        VLIWInstruction([
            Operation(Opcode.AND, cluster=0, dst=2, srcs=(1,), imm=-16,
                      use_imm=True),
            Operation(Opcode.OR, cluster=0, dst=3, srcs=(4,), imm=-16,
                      use_imm=True),
        ]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][1] == 0xFFFFFFFF
    assert vm.regs[0][2] == 0xFFFFFFF0
    assert vm.regs[0][3] == 0xFFFFFFF5


def test_out_of_range_store_raises_with_instruction_index():
    """Stores commit after the instruction's register writes, so the
    failing store's instruction has already written r5."""
    p = prog([
        VLIWInstruction([movi(0, 1, 0x7FFFFFFF)]),
        VLIWInstruction([
            Operation(Opcode.STW, cluster=0, srcs=(1, 1)),
            movi(0, 5, 9),
        ]),
        halt(),
    ])
    vm = VM(p)
    with pytest.raises(
        VMError, match="store out of range 0x7fffffff at pc instr 1"
    ):
        vm.run()
    assert (vm.pc, vm.instr_count, vm.op_count) == (1, 1, 1)
    assert vm.regs[0][5] == 9


def test_fall_through_past_last_instruction_raises():
    p = prog([
        VLIWInstruction([movi(0, 1, 1)]),
        VLIWInstruction([movi(0, 2, 2)]),
    ])
    vm = VM(p)
    with pytest.raises(VMError, match="fell off program end"):
        vm.run()
    # the last instruction completed before the check fired
    assert (vm.pc, vm.instr_count, vm.regs[0][2]) == (2, 2, 2)


def test_op_count_after_run():
    p = prog([
        VLIWInstruction([movi(0, 1, 5), movi(1, 2, 7), movi(2, 3, 9)]),
        VLIWInstruction([]),
        VLIWInstruction(
            [Operation(Opcode.ADD, cluster=0, dst=3, srcs=(1, 1))]
        ),
        halt(),
    ])
    vm = VM(p)
    assert vm.run() == 4
    assert vm.op_count == 3 + 0 + 1 + 1


def test_reset_then_run_reproduces_trace(axpy_program):
    vm = VM(axpy_program)
    first, second = TraceRecorder(4), TraceRecorder(4)
    vm.run(recorder=first)
    vm.reset()
    vm.run(recorder=second)
    for a, b in (
        (first.indices, second.indices),
        (first.taken, second.taken),
        (first.addrs, second.addrs),
    ):
        assert len(a) > 0 and a == b
        assert list(map(type, a)) == list(map(type, b))


def test_step_matches_run(axpy_program):
    ran, stepped = TraceRecorder(4), TraceRecorder(4)
    VM(axpy_program).run(recorder=ran)
    vm = VM(axpy_program)
    while vm.step(stepped):
        pass
    assert stepped.indices == ran.indices
    assert stepped.taken == ran.taken and stepped.addrs == ran.addrs
    assert vm.step() is False  # a halted VM stays halted


def test_cap_counts_the_halting_instruction():
    """A run that halts on exactly its max_instructions-th instruction
    completes; one instruction fewer is a runaway."""
    p = prog([VLIWInstruction([movi(0, 1, 1)]), VLIWInstruction([]), halt()])
    assert VM(p).run(max_instructions=3) == 3
    with pytest.raises(VMError, match="exceeded 2 instructions"):
        VM(p).run(max_instructions=2)


def test_trace_recorder_addresses_are_flat(axpy_program):
    vm = VM(axpy_program)
    rec = TraceRecorder(4)
    n = vm.run(recorder=rec)
    assert len(rec.addrs) == 4 * n and all(type(a) is int for a in rec.addrs)
    # the fingerprint hashes them as int64 / int8 / int64
    assert all(type(i) is int for i in rec.indices)
    assert all(type(t) is bool for t in rec.taken)
    assert all(-1 <= a < 2**31 for a in rec.addrs)
    assert any(a >= 0 for a in rec.addrs)


# -- memory bounds are checked by access width -----------------------------
@pytest.mark.parametrize(
    "opc,width", [(Opcode.LDB, 1), (Opcode.LDBU, 1), (Opcode.LDH, 2),
                  (Opcode.LDHU, 2), (Opcode.LDW, 4)]
)
def test_load_bounds_by_access_width(opc, width):
    data = DataSegment(size=16)
    data.set_word(12, 0x7F7F7F7F)

    def load_at(addr):
        return prog([
            VLIWInstruction([movi(0, 1, addr)]),
            VLIWInstruction([Operation(opc, cluster=0, dst=2, srcs=(1,))]),
            halt(),
        ], data)

    vm = VM(load_at(16 - width))  # the segment's last `width` bytes
    vm.run()
    assert vm.regs[0][2] == 0x7F7F7F7F & ((1 << 8 * width) - 1)
    with pytest.raises(VMError, match="load out of range 0x%x at pc instr 1"
                       % (17 - width)):
        VM(load_at(17 - width)).run()
    op = Operation(opc, cluster=0, dst=2, srcs=(1,))
    assert VM(load_at(0)).load(op, 16 - width) == vm.regs[0][2]
    with pytest.raises(VMError):
        VM(load_at(0)).load(op, 17 - width)


@pytest.mark.parametrize(
    "opc,width", [(Opcode.STB, 1), (Opcode.STH, 2), (Opcode.STW, 4)]
)
def test_store_bounds_by_access_width(opc, width):
    def store_at(addr):
        return prog([
            VLIWInstruction([movi(0, 1, addr), movi(0, 2, -1)]),
            VLIWInstruction([Operation(opc, cluster=0, srcs=(2, 1))]),
            halt(),
        ], DataSegment(size=16))

    vm = VM(store_at(16 - width))
    vm.run()
    assert bytes(vm.mem) == bytes(16 - width) + b"\xff" * width
    with pytest.raises(VMError, match="store out of range"):
        VM(store_at(17 - width)).run()
    op = Operation(opc, cluster=0, srcs=(2, 1))
    vm = VM(store_at(0))
    vm.store(op, 16 - width, 0xFFFFFFFF)
    assert bytes(vm.mem) == bytes(16 - width) + b"\xff" * width
    with pytest.raises(VMError):
        vm.store(op, 17 - width, 0)
