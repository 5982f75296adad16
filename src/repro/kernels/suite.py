"""Benchmark registry and trace cache (the paper's Fig. 13a suite).

``SUITE`` maps benchmark name -> (:class:`KernelMeta`, build function).
The metadata table lives here; a kernel's builder module, the compiler
and the functional VM are imported the first time a kernel is built or
its trace recorded, so a command that only reads results loads none of
them.

:func:`get_trace` compiles and functionally executes a kernel once per
(process, scale, machine, instruction cap) and memoises the resulting
:class:`~repro.pipeline.trace.TraceBundle`, so the 150-run experiment
matrix reuses twelve functional runs.  Bundles are never stored: a
new process records the traces it needs again.

Result keys need only a bundle's fingerprint and length:
:func:`get_fingerprint` / :func:`trace_identity` serve those from the
store's fingerprint index, so a warm command compiles nothing and
records a trace only for a cell it actually simulates.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..arch.config import MachineConfig, MemoryConfig, PAPER_MACHINE

if TYPE_CHECKING:
    from ..compiler.builder import KernelBuilder
    from ..compiler.pipeline import CompileResult
    from ..engine.cache import ResultCache, TraceIdentity
    from ..isa.program import Program
    from ..pipeline.trace import TraceBundle


@dataclass(frozen=True)
class KernelMeta:
    """Descriptor mirroring one row of the paper's Fig. 13a."""

    name: str
    ilp_class: str  # 'l' | 'm' | 'h'
    description: str
    paper_ipcr: float
    paper_ipcp: float

    def __post_init__(self) -> None:
        if self.ilp_class not in ("l", "m", "h"):
            raise ValueError(f"bad ILP class {self.ilp_class!r}")


def _builder(module: str, function: str) -> Callable[[float], KernelBuilder]:
    """The kernel builder ``module.function``, imported on first call."""

    def build(scale: float = 1.0) -> KernelBuilder:
        mod = importlib.import_module(f".{module}", __package__)
        return getattr(mod, function)(scale)

    return build


#: Fig. 13a, in the paper's order: each row and the builder
#: (``module``, ``function``) of the kernel standing in for it
_FIG13A = (
    (KernelMeta("mcf", "l",
                "Minimum Cost Flow (pointer-chasing network simplex)",
                0.96, 1.34), "mcf", "build"),
    (KernelMeta("bzip2", "l",
                "Bzip2 Compression (RLE + MTF byte loop)",
                0.81, 0.83), "bzip2", "build"),
    (KernelMeta("blowfish", "l",
                "Blowfish encryption (16-round Feistel)",
                1.11, 1.47), "blowfish", "build"),
    (KernelMeta("gsmencode", "l",
                "GSM 06.10 encoder (saturating lattice filter)",
                1.07, 1.07), "gsmencode", "build"),
    (KernelMeta("g721encode", "m",
                "G.721 ADPCM encoder (adaptive predictor)",
                1.75, 1.76), "g721", "build_encode"),
    (KernelMeta("g721decode", "m",
                "G.721 ADPCM decoder (adaptive predictor)",
                1.75, 1.76), "g721", "build_decode"),
    (KernelMeta("cjpeg", "m",
                "JPEG encoder (8x8 fDCT + quantise, streaming input)",
                1.12, 1.66), "jpeg", "build_cjpeg"),
    (KernelMeta("djpeg", "m",
                "JPEG decoder (dequantise + 8x8 iDCT, resident buffers)",
                1.76, 1.77), "jpeg", "build_djpeg"),
    (KernelMeta("imgpipe", "h",
                "Printer imaging pipeline (interpolate+correct+dither)",
                3.81, 4.05), "imgpipe", "build"),
    (KernelMeta("x264", "h",
                "H.264 encoder (16x16 SAD motion estimation)",
                3.89, 4.04), "x264", "build"),
    (KernelMeta("idct", "h",
                "Inverse DCT (fully unrolled 8x8, fixed point)",
                4.79, 5.27), "idct", "build"),
    (KernelMeta("colorspace", "h",
                "Colorspace conversion (3x3 matrix, 8-pixel unroll)",
                5.47, 8.88), "colorspace", "build"),
)

SUITE: dict[str, tuple[KernelMeta, Callable[[float], KernelBuilder]]] = {
    meta.name: (meta, _builder(module, function))
    for meta, module, function in _FIG13A
}

#: Fig. 13a order
BENCH_ORDER = list(SUITE)

BY_CLASS: dict[str, list[str]] = {"l": [], "m": [], "h": []}
for _name, (_meta, _) in SUITE.items():
    BY_CLASS[_meta.ilp_class].append(_name)

_MemoKey = tuple[str, float, MachineConfig, int]

#: default cap on a recording's functional-VM instructions
_MAX_INSTRUCTIONS = 5_000_000

_trace_cache: dict[_MemoKey, TraceBundle] = {}

#: identities of the bundles this process built or its store's
#: fingerprint index served (same keys as ``_trace_cache``)
_identity_cache: dict[_MemoKey, TraceIdentity] = {}

#: canonical memory block for trace-memo keys: compilation and the
#: functional VM never see the memory hierarchy, so configs differing
#: only there must share one compile + trace
_FLAT_MEMORY = MemoryConfig()


def get_meta(name: str) -> KernelMeta:
    return SUITE[name][0]


def build_program(
    name: str, scale: float = 1.0, cfg: MachineConfig = PAPER_MACHINE
) -> CompileResult:
    """Compile one benchmark; returns its CompileResult."""
    from ..compiler.pipeline import compile_kernel

    meta, build = SUITE[name]
    return compile_kernel(build(scale), cfg)


def record_trace(
    program: Program, cfg: MachineConfig, max_instructions: int
) -> TraceBundle:
    """Functionally execute one compiled kernel into a bundle
    (:func:`repro.pipeline.trace.record_trace`, imported on first
    use)."""
    from ..pipeline import trace

    return trace.record_trace(program, cfg, max_instructions)


def _memo_key(
    name: str, scale: float, cfg: MachineConfig,
    max_instructions: int = _MAX_INSTRUCTIONS,
) -> _MemoKey:
    key_cfg = (
        cfg if cfg.memory == _FLAT_MEMORY
        else replace(cfg, memory=_FLAT_MEMORY)
    )
    return (name, scale, key_cfg, max_instructions)


def _record(key: _MemoKey) -> TraceBundle:
    """Compile and functionally execute the kernel of one memo key
    (through this module's :func:`build_program` and
    :func:`record_trace`)."""
    name, scale, cfg, max_instructions = key
    program = build_program(name, scale, cfg).program
    return record_trace(program, cfg, max_instructions)


def _install(
    key: _MemoKey, bundle: TraceBundle, store: ResultCache | None
) -> TraceBundle:
    """Memoise a recorded bundle; with a store, count it in
    ``traces_recorded`` and note its identity."""
    if store is not None:
        store.traces_recorded += 1
        _note_identity(key, bundle, store)
    _trace_cache[key] = bundle
    return bundle


def get_trace(
    name: str,
    scale: float = 1.0,
    cfg: MachineConfig = PAPER_MACHINE,
    max_instructions: int = _MAX_INSTRUCTIONS,
    store: ResultCache | None = None,
) -> TraceBundle:
    """Compile + functionally execute + memoise one benchmark trace.

    Memoised by config *value* (``MachineConfig`` is frozen/hashable)
    with the memory hierarchy normalised out (the compiler and the
    functional VM never see it), so configs that agree on the machine
    shape share a trace even across pickling boundaries — pool workers
    receive a fresh config object per cell but still compile each
    (benchmark, machine shape) once per process, whatever memory
    presets ride on it.

    With a ``store`` (a :class:`~repro.engine.cache.ResultCache`), the
    recording is counted in its ``traces_recorded``, and the bundle's
    identity replaces whatever the store's fingerprint index served for
    it, rewriting the index entry if they differ.
    """
    key = _memo_key(name, scale, cfg, max_instructions)
    bundle = _trace_cache.get(key)
    if bundle is None:
        bundle = _install(key, _record(key), store)
    return bundle


def _note_identity(
    key: _MemoKey, bundle: TraceBundle, store: ResultCache | None
) -> TraceIdentity:
    """Memoise the identity of a built bundle; with a store, rewrite
    its index entry when the memo held another (none yet, or a bad
    entry the index served)."""
    from ..engine.cache import TraceIdentity, index_key

    ident = TraceIdentity(bundle.fingerprint(), bundle.length)
    if _identity_cache.get(key) != ident:
        _identity_cache[key] = ident
        if store is not None:
            store.put_identity(index_key(*key), key[0], ident)
    return ident


def _served_identity(
    key: _MemoKey, store: ResultCache | None
) -> TraceIdentity | None:
    """The identity of ``key`` from the process memo or, memoised on a
    hit, from the store's fingerprint index; ``None`` when neither has
    it and only recording can tell."""
    ident = _identity_cache.get(key)
    if ident is None and store is not None:
        from ..engine.cache import index_key

        ident = store.get_identity(index_key(*key))
        if ident is not None:
            _identity_cache[key] = ident
    return ident


def trace_identity(
    name: str,
    scale: float = 1.0,
    cfg: MachineConfig = PAPER_MACHINE,
    max_instructions: int = _MAX_INSTRUCTIONS,
    store: ResultCache | None = None,
) -> TraceIdentity:
    """Fingerprint and length of one benchmark trace, without building
    the bundle when the store's fingerprint index has them.

    Looked up in the process memo, then in the index, then through
    :func:`get_trace` (compile and record), which writes the index
    entry."""
    key = _memo_key(name, scale, cfg, max_instructions)
    ident = _served_identity(key, store)
    if ident is not None:
        return ident
    return _note_identity(
        key, get_trace(name, scale, cfg, max_instructions, store), store
    )


def get_fingerprint(
    name: str,
    scale: float = 1.0,
    cfg: MachineConfig = PAPER_MACHINE,
    max_instructions: int = _MAX_INSTRUCTIONS,
    store: ResultCache | None = None,
) -> str:
    """:meth:`TraceBundle.fingerprint` of one benchmark trace, served
    like :func:`trace_identity`."""
    return trace_identity(name, scale, cfg, max_instructions, store).fingerprint


def clear_trace_cache() -> None:
    _trace_cache.clear()
    _identity_cache.clear()
