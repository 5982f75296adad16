"""``x264`` stand-in (H.264 encoder): SAD-based motion estimation.

Character reproduced (paper: 3.89 / 4.04 — high ILP, mild cache
sensitivity):

* the 16x16 SAD inner loop that dominates x264's encode time: per row,
  four packed word loads per frame, sixteen byte extractions, sixteen
  absolute differences, and a parallel accumulation tree — wide,
  independent work typical of high-ILP media code;
* a small motion-search pattern: each block is compared against 4
  candidate displacements and the best SAD is kept (branch-free min);
* current + reference frames of 128 KB each stream through the cache.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder, Value
from .common import emit_sat_add, prng_words, scaled


#: two 6 K-word (24 KB) search windows (motion search works on cached
#: windows around the current macroblock, hence x264's mild IPCr gap)
N_FRAME_WORDS = 6 * 1024
ROW_WORDS = 1  # 4 pixels per row, packed 4/word (H.264 4x4 SAD)
N_CANDIDATES = 4


def _sad_row(b: KernelBuilder, cur: Value, ref: Value, off: int) -> Value:
    """SAD of one 16-pixel row (4 packed words per frame)."""
    partials = []
    for w in range(ROW_WORDS):
        cw = b.ldw(cur, off + 4 * w, region="cur")
        rw = b.ldw(ref, off + 4 * w, region="ref")
        acc = None
        cs, rs = cw, rw
        for byte in range(4):
            # serial byte extraction: shift feeds shift (2-port ALU
            # cascade), which is what the ST200 scheduler emits
            cb = b.and_(cs, 0xFF)
            rb = b.and_(rs, 0xFF)
            if byte < 3:
                cs = b.shr(cs, 8)
                rs = b.shr(rs, 8)
            d = b.abs_(b.sub(cb, rb))
            acc = d if acc is None else b.add(acc, d)
        partials.append(acc)
    total = partials[0]
    for p in partials[1:]:
        total = b.add(total, p)
    return total


def build(scale: float = 1.0) -> KernelBuilder:
    """The search is a refining pattern: each candidate's displacement
    depends on the best SAD so far (diamond-search style), so candidates
    serialise while each candidate's 16x16 SAD runs wide — that tension
    is what pins real x264 near IPC 4 on a 16-issue machine."""
    b = KernelBuilder("x264", data_size=1 << 21)
    n_blocks = scaled(320, scale)

    cur_frame = b.alloc_words(N_FRAME_WORDS, "cur")
    ref_frame = b.alloc_words(N_FRAME_WORDS, "ref")
    for base, seed in ((cur_frame, 0x264C), (ref_frame, 0x264F)):
        vals = prng_words(4096, seed=seed, lo=0, hi=1 << 32)
        for k, v in enumerate(vals):
            b.data.set_word(base + 4 * k, v)
    best_out = b.alloc_words(n_blocks + 1, "best")

    cur = b.const(cur_frame)
    frame_bytes = 4 * N_FRAME_WORDS

    with b.counted_loop(n_blocks) as blk:
        best = b.const(1 << 20)
        for cand in range(N_CANDIDATES):
            # refining displacement: derived from the best SAD so far,
            # so candidate k+1 cannot start before candidate k finishes
            disp = b.and_(best, 0x3C)
            ref = b.add(
                b.add(cur, disp), (ref_frame - cur_frame) + 64 * cand
            )
            sad = None
            # 4 row-groups; the accumulator saturates (SAD16 semantics),
            # which chains the row sums
            for row in range(4):
                rs = _sad_row(b, cur, ref, 16 * row)
                sad = rs if sad is None else emit_sat_add(b, sad, rs, 15)
            best = b.min_(best, sad)
        off = b.shl(blk, 2)
        b.stw_ix(best, best_out, off, region="best")
        # stream to the next macroblock, wrapping at the frame end
        b.inc(cur, 256)
        wrap = b.cmpge(cur, cur_frame + frame_bytes - 256)
        back = b.mpy(wrap, frame_bytes - 512)
        b.assign(cur, b.sub(cur, back))

    return b
