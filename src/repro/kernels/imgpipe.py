"""``imgpipe`` stand-in (HP imaging pipeline for high-performance
printers, paper ref [14]).

Character reproduced (paper: 3.81 / 4.05 — high ILP, mild cache
sensitivity):

* a three-stage per-pixel pipeline — bilinear-style interpolation,
  3-coefficient colour correction, and ordered dithering — unrolled
  four pixels wide, so the four pixel chains run in parallel across
  clusters;
* banded processing: printer pipelines work band-by-band out of a small
  resident band buffer, so (as the paper measures: 3.81 vs 4.05) the
  kernel is only mildly cache sensitive.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder, Value
from .common import prng_words, scaled


N_IMG_WORDS = 6 * 1024  # 24 KB band buffer (printer pipelines are banded)
UNROLL = 4


def _pixel(b: KernelBuilder, p0: Value, p1: Value, dm: Value) -> Value:
    """One pixel through the three pipeline stages."""
    # stage 1: horizontal interpolation between neighbours
    interp = b.sra(b.add(b.add(p0, p1), 1), 1)
    # stage 2: colour correction y = (a*x + b*x>>4 + c) >> 8-ish
    t1 = b.mpy(interp, 205)
    t2 = b.mpy(b.sra(interp, 4), 51)
    corrected = b.sra(b.add(b.add(t1, t2), 128), 8)
    # stage 3: ordered dither against the matrix entry
    dithered = b.add(corrected, dm)
    return b.min_(b.max_(dithered, 0), 255)


def build(scale: float = 1.0) -> KernelBuilder:
    b = KernelBuilder("imgpipe", data_size=1 << 21)
    n_groups = scaled(4200, scale)  # groups of UNROLL pixels

    img = b.alloc_words(N_IMG_WORDS, "image")
    vals = prng_words(4096, seed=0x1396, lo=0, hi=256)
    for k, v in enumerate(vals):
        b.data.set_word(img + 4 * k, v)
    dither = b.data_words(
        prng_words(16, seed=0xD17, lo=0, hi=16), "dither"
    )
    out = b.alloc_words(N_IMG_WORDS, "out")

    src = b.const(img)
    dst = b.const(out)
    img_bytes = 4 * N_IMG_WORDS

    with b.counted_loop(n_groups) as g:
        dmoff = b.shl(b.and_(g, 3), 4)
        for k in range(UNROLL):
            p0 = b.ldw(src, 4 * k, region="image")
            p1 = b.ldw(src, 4 * (k + 1), region="image")
            dm = b.ldw_ix(dither, b.add(dmoff, 4 * k), region="dither")
            px = _pixel(b, p0, p1, dm)
            b.stw(px, dst, 4 * k, region="out")
        b.inc(src, 4 * UNROLL)
        b.inc(dst, 4 * UNROLL)
        wrap = b.cmpge(src, img + img_bytes - 64)
        back = b.mpy(wrap, img_bytes - 128)
        b.assign(src, b.sub(src, back))
        b.assign(dst, b.sub(dst, back))

    return b
