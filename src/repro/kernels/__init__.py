"""Benchmark kernels standing in for the paper's Fig. 13a suite."""

from .._lazy import lazy_exports

__all__ = [
    "KernelMeta",
    "prng_words",
    "BENCH_ORDER",
    "BY_CLASS",
    "SUITE",
    "build_program",
    "clear_trace_cache",
    "get_fingerprint",
    "get_meta",
    "get_trace",
    "trace_identity",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".common": ("prng_words",),
    ".suite": (
        "KernelMeta", "BENCH_ORDER", "BY_CLASS", "SUITE", "build_program",
        "clear_trace_cache", "get_fingerprint", "get_meta", "get_trace",
        "trace_identity",
    ),
})
