"""Shared helpers for benchmark kernels.

Each kernel module exposes a builder (``build`` unless the module
holds two kernels)::

    def build(scale: float = 1.0) -> KernelBuilder

and :data:`repro.kernels.suite.SUITE` pairs it with the kernel's
Fig. 13a row (:class:`~repro.kernels.suite.KernelMeta`).

``scale`` multiplies the main loop trip counts so tests can run tiny
versions while the experiment harness runs full-size traces.

Kernels are deterministic: all pseudo-random input data comes from
:func:`prng_words` (a fixed-seed xorshift), so traces are reproducible
across runs and machines.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder, Value
from ..isa.opcodes import Opcode


def prng_words(n: int, seed: int = 0x9E3779B9, lo: int = 0, hi: int = 1 << 32):
    """Deterministic 32-bit xorshift stream mapped into [lo, hi)."""
    x = seed & 0xFFFFFFFF or 1
    out = []
    span = hi - lo
    for _ in range(n):
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        out.append(lo + x % span)
    return out


def scaled(n: int, scale: float, minimum: int = 1) -> int:
    """Scale a trip count, keeping it at least ``minimum``."""
    return max(minimum, int(round(n * scale)))


def emit_clamp(b: KernelBuilder, v: Value, lo: int, hi: int) -> Value:
    """min(max(v, lo), hi) using the ISA's MIN/MAX immediate forms."""
    return b.min_(b.max_(v, lo), hi)


def emit_sat_add(b: KernelBuilder, x: Value, y: Value, bits: int = 15) -> Value:
    """Saturating signed add (GSM-style): clamp to +-(2^bits - 1)."""
    s = b.add(x, y)
    return emit_clamp(b, s, -(1 << bits) + 1, (1 << bits) - 1)


def emit_cond_update(
    b: KernelBuilder,
    pred: Value,
    dest: Value,
    if_true: Value,
) -> None:
    """Branch-free select: dest = pred ? if_true : dest.

    ``pred`` must be 0/1.  Used where real codecs use predication.
    """
    mask = b.sub(b.zero(), pred)  # 0 or 0xFFFFFFFF
    keep = b.and_(dest, b.not_(mask))
    take = b.and_(if_true, mask)
    b.assign(dest, b.or_(keep, take))


def branch_on_lt(b: KernelBuilder, a: Value, bound, target: str) -> None:
    cond = b.cmp_to_branch(Opcode.CMPLT, a, bound)
    b.br_if(cond, target)


def branch_on_eq(b: KernelBuilder, a: Value, bound, target: str) -> None:
    cond = b.cmp_to_branch(Opcode.CMPEQ, a, bound)
    b.br_if(cond, target)


def branch_on_ne(b: KernelBuilder, a: Value, bound, target: str) -> None:
    cond = b.cmp_to_branch(Opcode.CMPNE, a, bound)
    b.br_if(cond, target)
