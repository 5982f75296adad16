"""``idct`` stand-in (ffmpeg inverse DCT, paper ref [21]).

Character reproduced (paper: 4.79 / 5.27 — high ILP):

* the fully unrolled fixed-point 2-D 8x8 inverse DCT: both the row and
  column passes are straight-line code over 64 register-resident
  values, so the eight per-row/per-column transforms are completely
  independent — the classic very-high-ILP VLIW showcase;
* blocks stream from a 96 KB coefficient buffer (some cache misses,
  matching the moderate IPCr/IPCp gap).
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder
from .common import prng_words, scaled
from .dctlib import idct8


N_COEF_WORDS = 12 * 1024  # 48 KB coefficient buffer (mostly resident)


def build(scale: float = 1.0) -> KernelBuilder:
    b = KernelBuilder("idct", data_size=1 << 21)
    n_blocks = scaled(65, scale)

    coefs = b.alloc_words(N_COEF_WORDS, "coefs")
    vals = prng_words(4096, seed=0x1DC7, lo=0, hi=1 << 10)
    for k, v in enumerate(vals):
        b.data.set_word(coefs + 4 * k, v)
    out = b.alloc_words(64, "pixels")

    src = b.const(coefs)
    buf_bytes = 4 * N_COEF_WORDS

    tmp = b.alloc_words(64, "tmp")

    with b.counted_loop(n_blocks) as _blk:
        # row pass: unrolled two rows per iteration — two independent
        # 8-point transforms in flight keeps the machine wide without the
        # register pressure of holding the whole 8x8 block live
        with b.counted_loop(4, name="rowpair") as rp:
            roff = b.shl(rp, 6)  # two rows = 16 words = 64 bytes
            base = b.add(src, roff)
            tbase = b.add(roff, tmp)
            for half in range(2):
                xs = [
                    b.ldw(base, 32 * half + 4 * c, region="coefs")
                    for c in range(8)
                ]
                ys = idct8(b, xs)
                for c in range(8):
                    b.stw(
                        ys[c], tbase, 32 * half + 4 * c, region="tmp"
                    )
        # column pass: two columns per iteration
        with b.counted_loop(4, name="colpair") as cp:
            coff = b.shl(cp, 3)
            tbase = b.add(coff, tmp)
            obase = b.add(coff, out)
            for half in range(2):
                xs = [
                    b.ldw(tbase, 32 * r + 4 * half, region="tmp")
                    for r in range(8)
                ]
                ys = idct8(b, xs)
                for r in range(8):
                    v = b.sra(ys[r], 6)
                    v = b.min_(b.max_(v, -256), 255)
                    b.stw(v, obase, 32 * r + 4 * half, region="pixels")
        b.inc(src, 4 * 64)
        wrap = b.cmpge(src, coefs + buf_bytes)
        back = b.mpy(wrap, buf_bytes)
        b.assign(src, b.sub(src, back))

    return b
