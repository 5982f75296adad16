"""``cjpeg`` / ``djpeg`` stand-ins (MediaBench JPEG encoder/decoder).

Character reproduced (paper: cjpeg 1.12/1.66, djpeg 1.76/1.77):

* **cjpeg** — forward 8x8 DCT + quantisation per block.  The row/column
  passes run in *loops* (8 iterations each), so ILP is medium (the
  transform body is parallel but short, and loop overhead plus branch
  shadows cap it).  The encoder streams a large raw image (256 KB),
  giving the pronounced IPCr < IPCp gap the paper measures.
* **djpeg** — dequantisation + inverse DCT over a small resident
  coefficient buffer: same medium ILP, but almost no cache sensitivity.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder
from .common import prng_words, scaled
from .dctlib import dct8, idct8


#: cjpeg streams 64 K words = 256 KB of raw samples
N_IMG_WORDS = 64 * 1024
#: djpeg reuses a 16 KB coefficient buffer
N_COEF_WORDS = 4 * 1024


def build_cjpeg(scale: float = 1.0) -> KernelBuilder:
    b = KernelBuilder("cjpeg", data_size=1 << 21)
    n_blocks = scaled(110, scale)

    img = b.alloc_words(N_IMG_WORDS, "image")
    seed_vals = prng_words(2048, seed=0xC4E6, lo=0, hi=256)
    for k, v in enumerate(seed_vals):
        b.data.set_word(img + 4 * k, v)
    quant = b.data_words(
        prng_words(64, seed=0x0A7, lo=1, hi=32), "quant"
    )
    tmp = b.alloc_words(64, "tmp")
    out = b.alloc_words(64, "coefs")

    blk_words = 64  # one 8x8 block of words
    src = b.const(img)
    bits = b.const(0)  # entropy-coder bit reservoir (serial state)
    nzc = b.const(0)

    with b.counted_loop(n_blocks) as _blk:
        # row pass: 8 iterations, each loads a row, transforms, stores
        with b.counted_loop(8, name="rows") as r:
            roff = b.shl(r, 5)  # 8 words * 4 bytes
            base = b.add(src, roff)
            xs = [b.ldw(base, 4 * c, region="image") for c in range(8)]
            ys = dct8(b, xs)
            tbase = b.add(roff, tmp)
            for c in range(8):
                b.stw(ys[c], tbase, 4 * c, region="tmp")
        # column pass + quantisation
        with b.counted_loop(8, name="cols") as c:
            coff = b.shl(c, 2)
            tbase = b.add(coff, tmp)
            xs = [b.ldw(tbase, 32 * r, region="tmp") for r in range(8)]
            ys = dct8(b, xs)
            qbase = b.add(coff, quant)
            obase = b.add(coff, out)
            for r in range(8):
                q = b.ldw(qbase, 32 * r, region="quant")
                scaled_v = b.sra(ys[r], 3)
                b.stw(b.mpyshr15(scaled_v, q), obase, 32 * r, region="coefs")
        # entropy-coding stand-in: a strictly serial scan of the block
        # (real cjpeg spends comparable time in Huffman coding, which is
        # what pulls the whole encoder down to medium IPC)
        with b.counted_loop(64, name="entropy") as e:
            eoff = b.shl(e, 2)
            v = b.ldw_ix(out, eoff, region="coefs")
            nz = b.cmpne(v, 0)
            b.assign(bits, b.xor(b.shl(bits, 1), v))
            b.inc(nzc, nz)
        # advance the streaming source, wrapping at the image end
        b.inc(src, 4 * blk_words)
        wrap = b.cmpge(src, img + 4 * N_IMG_WORDS)
        back = b.mpy(wrap, 4 * N_IMG_WORDS)
        b.assign(src, b.sub(src, back))

    sink = b.alloc_words(2, "sink")
    b.stw(bits, b.addr(sink), region="sink")
    b.stw(nzc, b.addr(sink), 4, region="sink")
    return b


def build_djpeg(scale: float = 1.0) -> KernelBuilder:
    b = KernelBuilder("djpeg", data_size=1 << 20)
    n_blocks = scaled(110, scale)

    coefs = b.data_words(
        prng_words(N_COEF_WORDS, seed=0xD4E6, lo=0, hi=1 << 12), "coefs"
    )
    quant = b.data_words(
        prng_words(64, seed=0x0A8, lo=1, hi=32), "quant"
    )
    tmp = b.alloc_words(64, "tmp")
    out = b.alloc_words(64, "pixels")

    src = b.const(coefs)
    state = b.const(0x1357)  # bit-unpacker state (serial)

    with b.counted_loop(n_blocks) as _blk:
        # entropy-decoding stand-in: serial bit-unpacking scan (the
        # decoder's Huffman stage), run before the transforms
        with b.counted_loop(64, name="unpack") as e:
            eoff = b.shl(e, 2)
            v = b.ldw_ix(coefs, eoff, region="coefs")
            b.assign(state, b.add(b.shl(state, 1), b.xor(state, v)))
        # dequantise + row pass
        with b.counted_loop(8, name="rows") as r:
            roff = b.shl(r, 5)
            base = b.add(src, roff)
            qbase = b.add(roff, quant)
            xs = []
            for c in range(8):
                v = b.ldw(base, 4 * c, region="coefs")
                q = b.ldw(qbase, 4 * c, region="quant")
                xs.append(b.mpy(v, q))
            ys = idct8(b, xs)
            tbase = b.add(roff, tmp)
            for c in range(8):
                b.stw(ys[c], tbase, 4 * c, region="tmp")
        # column pass + range clamp
        with b.counted_loop(8, name="cols") as c:
            coff = b.shl(c, 2)
            tbase = b.add(coff, tmp)
            xs = [b.ldw(tbase, 32 * r, region="tmp") for r in range(8)]
            ys = idct8(b, xs)
            obase = b.add(coff, out)
            for r in range(8):
                v = b.sra(ys[r], 6)
                v = b.min_(b.max_(v, 0), 255)
                b.stw(v, obase, 32 * r, region="pixels")
        # advance within the resident buffer (wraps frequently)
        b.inc(src, 4 * 64)
        wrap = b.cmpge(src, coefs + 4 * N_COEF_WORDS)
        back = b.mpy(wrap, 4 * N_COEF_WORDS)
        b.assign(src, b.sub(src, back))

    sink = b.alloc_words(1, "sink")
    b.stw(state, b.addr(sink), region="sink")
    return b
