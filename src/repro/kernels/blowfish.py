"""``blowfish`` stand-in (MediaBench pegwit/blowfish): Feistel cipher.

Character reproduced:

* 16 fully unrolled Feistel rounds per 8-byte block, each round a
  serial ``F(xl) ^ xr`` recurrence (low ILP across rounds, a little
  inside ``F``);
* the round function's four S-box lookups (4 x 1 KB tables — cache
  resident, so IPCr tracks IPCp as in the paper: 1.11 / 1.47);
* P-array round-key XORs.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder, Value
from .common import prng_words, scaled


N_ROUNDS = 16
#: plaintext buffer: 8 KB (cache resident)
N_BLOCKS_DATA = 1024


def build(scale: float = 1.0) -> KernelBuilder:
    b = KernelBuilder("blowfish", data_size=1 << 20)
    n_blocks = scaled(220, scale)

    sbox = []
    for s in range(4):
        vals = prng_words(256, seed=0x5B0C + s, lo=0, hi=1 << 32)
        sbox.append(b.data_words(vals, f"sbox{s}"))
    p_vals = prng_words(N_ROUNDS + 2, seed=0x9A57, lo=0, hi=1 << 32)
    text = b.data_words(
        prng_words(2 * N_BLOCKS_DATA, seed=0x7E57, lo=0, hi=1 << 32),
        "text",
    )

    def feistel_f(xl: Value) -> Value:
        # serial byte extraction (shift feeding shift), as generated for
        # a 2-read-port ALU cascade; keeps the round function's depth
        # close to the measured blowfish IPC of ~1.5
        s1 = b.shr(xl, 8)
        s2 = b.shr(s1, 8)
        s3 = b.shr(s2, 8)
        a = b.and_(s3, 0xFF)
        c = b.and_(s2, 0xFF)
        d = b.and_(s1, 0xFF)
        e = b.and_(xl, 0xFF)
        sa = b.ldw(b.add(b.shl(a, 2), sbox[0]), 0, region="sbox0")
        # the later lookups' address generation folds in the earlier
        # results (combined S-box addressing), staggering the loads the
        # way the ST200 code for blowfish does
        c2 = b.and_(b.xor(c, b.and_(sa, 0)), 0xFF)
        sc = b.ldw(b.add(b.shl(c2, 2), sbox[1]), 0, region="sbox1")
        d2 = b.and_(b.xor(d, b.and_(sc, 0)), 0xFF)
        sd = b.ldw(b.add(b.shl(d2, 2), sbox[2]), 0, region="sbox2")
        se = b.ldw(b.add(b.shl(e, 2), sbox[3]), 0, region="sbox3")
        return b.add(b.xor(b.add(sa, sc), sd), se)

    with b.counted_loop(n_blocks) as i:
        blk = b.and_(i, N_BLOCKS_DATA - 1)
        off = b.shl(blk, 3)
        base = b.add(off, text)
        xl = b.ldw(base, 0, region="text")
        xr = b.ldw(base, 4, region="text")
        for r in range(N_ROUNDS):
            xl = b.xor(xl, p_vals[r])
            xr = b.xor(xr, feistel_f(xl))
            xl, xr = xr, xl
        xl, xr = xr, xl
        xr = b.xor(xr, p_vals[N_ROUNDS])
        xl = b.xor(xl, p_vals[N_ROUNDS + 1])
        b.stw(xl, base, 0, region="text")
        b.stw(xr, base, 4, region="text")

    return b
