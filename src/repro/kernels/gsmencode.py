"""``gsmencode`` stand-in (MediaBench GSM 06.10 encoder).

Character reproduced:

* the short-term analysis lattice filter: per sample, eight reflection
  stages whose saturating-accumulator recurrence is strictly serial
  (each stage's MIN/MAX clamp feeds the next) — the paper measures GSM
  at IPC 1.07 with *zero* cache sensitivity (1.07 / 1.07), so all
  buffers are small and cache-resident;
* 16-bit fixed-point arithmetic with explicit saturation.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder
from .common import emit_sat_add, prng_words, scaled


N_STAGES = 12
#: sample window: 4 KB (cache resident)
N_SAMPLES = 1024


def build(scale: float = 1.0) -> KernelBuilder:
    b = KernelBuilder("gsmencode", data_size=1 << 20)
    n = scaled(1700, scale)

    samples = b.data_words(
        prng_words(N_SAMPLES, seed=0x65E0, lo=0, hi=1 << 16), "samples"
    )
    coefs = prng_words(N_STAGES, seed=0xC0EF, lo=1, hi=1 << 14)
    out_base = b.alloc_words(N_SAMPLES, "residual")

    with b.counted_loop(n) as i:
        idx = b.and_(i, N_SAMPLES - 1)
        off = b.shl(idx, 2)
        s = b.ldw_ix(samples, off, region="samples")
        x = b.sxth(s)
        # serial lattice: dp = sat(dp + (coef * dp) >> 15) per stage
        dp = x
        for r in range(N_STAGES):
            contrib = b.mpyshr15(dp, coefs[r])
            dp = emit_sat_add(b, dp, contrib, bits=15)
        b.stw_ix(dp, out_base, off, region="residual")

    return b
