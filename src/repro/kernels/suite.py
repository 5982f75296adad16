"""Benchmark registry and trace cache (the paper's Fig. 13a suite).

``SUITE`` maps benchmark name -> (:class:`KernelMeta`, build function).
:func:`get_trace` compiles and functionally executes a kernel once per
(process, scale, machine, instruction cap) and memoises the resulting
:class:`~repro.pipeline.trace.TraceBundle`, so the 150-run experiment
matrix reuses twelve functional runs.  Given a result store, it loads
bundles an earlier process recorded instead of re-running the VM.

Result keys need only a bundle's fingerprint and length:
:func:`get_fingerprint` / :func:`trace_identity` serve those from the
store's fingerprint index, so a warm command compiles nothing and
builds a bundle only for a cell it actually simulates.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace
from typing import TYPE_CHECKING

from ..arch.config import MachineConfig, MemoryConfig, PAPER_MACHINE
from ..compiler.builder import KernelBuilder
from ..compiler.pipeline import compile_kernel
from ..pipeline.trace import TraceBundle, record_trace
from . import (
    blowfish,
    bzip2,
    colorspace,
    g721,
    gsmencode,
    idct,
    imgpipe,
    jpeg,
    mcf,
    x264,
)
from .common import KernelMeta

if TYPE_CHECKING:
    from ..engine.cache import ResultCache, TraceIdentity

SUITE: dict[str, tuple[KernelMeta, Callable[[float], KernelBuilder]]] = {
    "mcf": (mcf.META, mcf.build),
    "bzip2": (bzip2.META, bzip2.build),
    "blowfish": (blowfish.META, blowfish.build),
    "gsmencode": (gsmencode.META, gsmencode.build),
    "g721encode": (g721.META_ENCODE, g721.build_encode),
    "g721decode": (g721.META_DECODE, g721.build_decode),
    "cjpeg": (jpeg.META_CJPEG, jpeg.build_cjpeg),
    "djpeg": (jpeg.META_DJPEG, jpeg.build_djpeg),
    "imgpipe": (imgpipe.META, imgpipe.build),
    "x264": (x264.META, x264.build),
    "idct": (idct.META, idct.build),
    "colorspace": (colorspace.META, colorspace.build),
}

#: Fig. 13a order
BENCH_ORDER = list(SUITE)

BY_CLASS: dict[str, list[str]] = {"l": [], "m": [], "h": []}
for _name, (_meta, _) in SUITE.items():
    BY_CLASS[_meta.ilp_class].append(_name)

_MemoKey = tuple[str, float, MachineConfig, int]

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


def build_program(name: str, scale: float = 1.0, cfg: MachineConfig = PAPER_MACHINE):
    """Compile one benchmark; returns its CompileResult."""
    meta, build = SUITE[name]
    return compile_kernel(build(scale), cfg)


def _memo_key(
    name: str, scale: float, cfg: MachineConfig, max_instructions: int
) -> _MemoKey:
    key_cfg = (
        cfg if cfg.memory == _FLAT_MEMORY
        else replace(cfg, memory=_FLAT_MEMORY)
    )
    return (name, scale, key_cfg, max_instructions)


def get_trace(
    name: str,
    scale: float = 1.0,
    cfg: MachineConfig = PAPER_MACHINE,
    max_instructions: int = 5_000_000,
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

    With a ``store`` (a :class:`~repro.engine.cache.ResultCache`), a
    memo miss still compiles, then loads the bundle from the store's
    trace directory and only runs the functional VM (and persists its
    trace) when the store has no valid bundle for this program.  The
    built bundle's identity replaces whatever the fingerprint index
    served for it, and rewrites the index entry if they differ.
    """
    key = _memo_key(name, scale, cfg, max_instructions)
    bundle = _trace_cache.get(key)
    if bundle is None:
        program = build_program(name, scale, cfg).program
        if store is None:
            bundle = record_trace(program, cfg, max_instructions)
        else:
            # deferred: repro.engine imports this module
            from ..engine.cache import trace_key

            store_key = trace_key(program, key[2], max_instructions)
            bundle = store.get_trace(store_key, program, cfg)
            if bundle is None:
                bundle = record_trace(program, cfg, max_instructions)
                store.put_trace(store_key, bundle)
            _note_identity(key, bundle, store)
        _trace_cache[key] = bundle
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


def trace_identity(
    name: str,
    scale: float = 1.0,
    cfg: MachineConfig = PAPER_MACHINE,
    max_instructions: int = 5_000_000,
    store: ResultCache | None = None,
) -> TraceIdentity:
    """Fingerprint and length of one benchmark trace, without building
    the bundle when the store's fingerprint index has them.

    Looked up in the process memo, then in the index, then through
    :func:`get_trace` (compile, then load and verify or record), which
    writes the index entry."""
    key = _memo_key(name, scale, cfg, max_instructions)
    ident = _identity_cache.get(key)
    if ident is not None:
        return ident
    if store is not None:
        from ..engine.cache import index_key

        ident = store.get_identity(index_key(*key))
        if ident is not None:
            _identity_cache[key] = ident
            return ident
    return _note_identity(
        key, get_trace(name, scale, cfg, max_instructions, store), store
    )


def get_fingerprint(
    name: str,
    scale: float = 1.0,
    cfg: MachineConfig = PAPER_MACHINE,
    max_instructions: int = 5_000_000,
    store: ResultCache | None = None,
) -> str:
    """:meth:`TraceBundle.fingerprint` of one benchmark trace, served
    like :func:`trace_identity`."""
    return trace_identity(name, scale, cfg, max_instructions, store).fingerprint


def memoised_traces() -> list[TraceBundle]:
    """Every bundle in this process's trace memo (what a forked child
    inherits)."""
    return list(_trace_cache.values())


def clear_trace_cache() -> None:
    _trace_cache.clear()
    _identity_cache.clear()
