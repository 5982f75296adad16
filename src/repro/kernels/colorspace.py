"""``colorspace`` stand-in (production colour-space conversion used in
high-performance printers, paper ref [20]).

Character reproduced (paper: 5.47 / 8.88 — the highest-ILP benchmark,
and the most cache-sensitive of the high group):

* a fully unrolled 3x3 colour-matrix conversion (RGB -> CMY-ish) over
  eight pixels per iteration: each pixel is nine multiplies, six adds,
  three shifts and three clamps, and all eight pixel chains are
  independent — close to saturating the 16-issue machine;
* the image streams at 512 KB, so real-memory IPC drops hard (compulsory
  misses every line), reproducing the 8.88 -> 5.47 gap.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder, Value
from .common import prng_words, scaled


N_IMG_WORDS = 128 * 1024  # 512 KB streaming image
UNROLL = 8

# Q15 conversion matrix rows
M = [
    (9798, 19235, 3736),
    (-4784, 29045, 4683),
    (20218, -16941, 29491),
]


def _convert(b: KernelBuilder, rgb: Value) -> Value:
    """One packed pixel through the 3x3 matrix; returns packed result."""
    r = b.and_(rgb, 0xFF)
    g = b.and_(b.shr(rgb, 8), 0xFF)
    bl = b.and_(b.shr(rgb, 16), 0xFF)
    out_ch = []
    for row in M:
        t0 = b.mpy(r, row[0])
        t1 = b.mpy(g, row[1])
        t2 = b.mpy(bl, row[2])
        s = b.sra(b.add(b.add(t0, t1), t2), 15)
        out_ch.append(b.min_(b.max_(s, 0), 255))
    packed = b.or_(
        b.or_(out_ch[0], b.shl(out_ch[1], 8)), b.shl(out_ch[2], 16)
    )
    return packed


def build(scale: float = 1.0) -> KernelBuilder:
    b = KernelBuilder("colorspace", data_size=1 << 21)
    n_groups = scaled(260, scale)

    img = b.alloc_words(N_IMG_WORDS, "image")
    vals = prng_words(4096, seed=0xC540, lo=0, hi=1 << 24)
    for k, v in enumerate(vals):
        b.data.set_word(img + 4 * k, v)
    out = b.alloc_words(N_IMG_WORDS, "out")

    src = b.const(img)
    dst = b.const(out)
    img_bytes = 4 * N_IMG_WORDS

    with b.counted_loop(n_groups) as _g:
        for k in range(UNROLL):
            px = b.ldw(src, 4 * k, region="image")
            b.stw(_convert(b, px), dst, 4 * k, region="out")
        b.inc(src, 4 * UNROLL)
        b.inc(dst, 4 * UNROLL)
        wrap = b.cmpge(src, img + img_bytes)
        back = b.mpy(wrap, img_bytes)
        b.assign(src, b.sub(src, back))
        b.assign(dst, b.sub(dst, back))

    return b
