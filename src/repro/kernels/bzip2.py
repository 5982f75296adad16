"""``bzip2`` stand-in (SPECint 2000 256.bzip2): byte-stream compression.

Character reproduced:

* byte-at-a-time processing with a serial recurrence (run-length state);
* frequent data-dependent branches (run continue / run break) on
  pseudo-random input over a small alphabet, so the taken-branch penalty
  and branch shadows dominate — the paper measures bzip2 at IPC 0.81
  with essentially no cache sensitivity (0.81 / 0.83): the working set
  is a small block, so we keep all buffers cache-resident;
* a move-to-front-flavoured frequency table update.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder
from ..isa.opcodes import Opcode
from .common import prng_words, scaled


#: input block: 24 KB of bytes, alphabet of 4 symbols (runs are common)
N_IN = 24 * 1024


def build(scale: float = 1.0) -> KernelBuilder:
    b = KernelBuilder("bzip2", data_size=1 << 20)
    n_bytes = scaled(6000, scale)

    data = prng_words(N_IN // 4, seed=0xB212, lo=0, hi=1 << 32)
    # small alphabet: mask each byte to 2 bits -> long-ish runs
    in_base = b.alloc_words(N_IN // 4, "input")
    for k, w in enumerate(data):
        masked = (
            (w & 0x03)
            | ((w >> 8) & 0x03) << 8
            | ((w >> 16) & 0x03) << 16
            | ((w >> 24) & 0x03) << 24
        )
        b.data.set_word(in_base + 4 * k, masked)
    out_base = b.alloc_words(N_IN // 4 + 64, "output")
    freq_base = b.data_words([0] * 256, "freq")

    src = b.const(in_base)
    dst = b.const(out_base)
    prev = b.const(255)  # sentinel: never matches first byte
    run = b.const(0)
    total = b.const(0)

    with b.counted_loop(n_bytes) as _i:
        byte = b.ldbu(src, 0, region="input")
        b.inc(src, 1)
        # frequency table bump (load-modify-store through a small table)
        faddr = b.add(b.shl(byte, 2), freq_base)
        f = b.ldw(faddr, 0, region="freq")
        b.stw(b.add(f, 1), faddr, 0, region="freq")
        same = b.cmp_to_branch(Opcode.CMPEQ, byte, prev)
        b.br_if(same, "continue_run")
        # run broke: emit (prev, run) pair, restart the run
        b.stb(prev, dst, 0, region="output")
        b.stb(run, dst, 1, region="output")
        b.inc(dst, 2)
        b.assign(run, 0)
        b.assign(prev, byte)
        b.goto("advance")
        b.label("continue_run")
        b.inc(run, 1)
        # cap the run length the way bzip2 does (max 255)
        over = b.cmp_to_branch(Opcode.CMPLT, run, 255)
        b.br_if(over, "advance")
        b.stb(prev, dst, 0, region="output")
        b.stb(run, dst, 1, region="output")
        b.inc(dst, 2)
        b.assign(run, 0)
        b.label("advance")
        b.inc(total, 1)

    out = b.alloc_words(1, "sink")
    b.stw(total, b.addr(out), region="sink")
    return b
