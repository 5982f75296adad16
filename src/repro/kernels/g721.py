"""``g721encode`` / ``g721decode`` stand-ins (MediaBench G.721 ADPCM).

Character reproduced (paper: both at IPC ~1.75, no cache sensitivity):

* the adaptive predictor: six pole/zero coefficient updates that are
  *mutually independent* per sample (medium ILP) feeding a serial
  quantise/reconstruct step;
* 16-bit fixed-point arithmetic on small cache-resident state.

Encoder and decoder share the predictor machinery; the encoder
additionally quantises the difference signal, the decoder reconstructs
from the quantised codes.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder
from .common import emit_clamp, emit_sat_add, prng_words, scaled


N_TAPS = 4
N_SAMPLES = 2048  # 8 KB, cache resident


def _build(name: str, decode: bool, scale: float) -> KernelBuilder:
    b = KernelBuilder(name, data_size=1 << 20)
    n = scaled(1500, scale)

    samples = b.data_words(
        prng_words(N_SAMPLES, seed=0xADC0 + decode, lo=0, hi=1 << 16),
        "samples",
    )
    out_base = b.alloc_words(N_SAMPLES, "out")

    # predictor state: delayed difference signal and coefficients
    dq = [b.const(v) for v in prng_words(N_TAPS, seed=0xD9, lo=1, hi=1 << 12)]
    coef = [b.const(v) for v in prng_words(N_TAPS, seed=0xCF, lo=1, hi=1 << 10)]

    with b.counted_loop(n) as i:
        idx = b.and_(i, N_SAMPLES - 1)
        off = b.shl(idx, 2)
        s = b.sxth(b.ldw_ix(samples, off, region="samples"))
        # signal estimate: the taps multiply in parallel but accumulate
        # through the *saturating* adder chain (G.72x semantics), which
        # serialises the sum — this is what keeps real ADPCM at IPC ~1.75
        prods = [b.mpyshr15(dq[k], coef[k]) for k in range(N_TAPS)]
        se = prods[0]
        for k in range(1, N_TAPS):
            se = emit_sat_add(b, se, prods[k], bits=15)
        if decode:
            # reconstruct: sr = se + dequantised code
            dqv = b.sxth(s)
            sr = b.add(se, dqv)
            result = emit_clamp(b, sr, -32768, 32767)
        else:
            # quantise the difference signal (serial clamp chain)
            d = b.sub(s, se)
            mag = b.abs_(d)
            code = b.shr(mag, 7)
            result = emit_clamp(b, code, 0, 15)
            dqv = d
        # coefficient adaptation feeds off the freshly quantised value
        # and each tap's step mixes in the previous tap's new value (the
        # pole-coefficient stability chain of G.72x), so the adaptation
        # is serial across taps
        mix = b.sra(result, 4)
        for k in range(N_TAPS):
            leak = b.sra(coef[k], 5)
            sign = b.sra(dq[k], 31)
            step = b.xor(b.add(mix, 8), sign)
            b.assign(coef[k], b.add(b.sub(coef[k], leak), step))
            mix = b.sra(coef[k], 7)
        # shift the delay line (register moves, serial-ish)
        for k in range(N_TAPS - 1, 0, -1):
            b.assign(dq[k], dq[k - 1])
        b.assign(dq[0], dqv)
        b.stw_ix(result, out_base, off, region="out")

    return b


def build_encode(scale: float = 1.0) -> KernelBuilder:
    return _build("g721encode", decode=False, scale=scale)


def build_decode(scale: float = 1.0) -> KernelBuilder:
    return _build("g721decode", decode=True, scale=scale)
