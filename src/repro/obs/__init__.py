"""Observability: cycle attribution, trace export, run telemetry.

Three independent answers to "what did that simulation actually do?":

* :mod:`~repro.obs.attribution` — *where every issue slot went*: the
  exhaustive per-cycle slot accounting behind ``repro why`` and
  ``repro fig why``;
* :mod:`~repro.obs.tracing` — *when everything happened*:
  :class:`TraceExporter` renders one run as Chrome trace-event JSON
  (``repro trace``, open in Perfetto);
* :mod:`~repro.obs.telemetry` — *what the engine did to get results*:
  per-cell source/wall-time ledger behind ``--telemetry`` and
  ``repro stats``.

Everything here observes; nothing here changes simulated results
(attribution runs pin the reference loop, but its counters are
bit-identical to the specialised tier — tests enforce it).
See ``docs/observability.md``.
"""

from .._lazy import lazy_exports

__all__ = [
    "CATEGORY_GLYPHS",
    "CATEGORY_LABELS",
    "attribution_bar",
    "attribution_fractions",
    "check_attribution",
    "render_why",
    "why_rows",
    "setup_logging",
    "TelemetryLedger",
    "load_jsonl",
    "render_summary",
    "summarize",
    "TraceExporter",
    "validate_trace_document",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".attribution": (
        "CATEGORY_GLYPHS", "CATEGORY_LABELS", "attribution_bar",
        "attribution_fractions", "check_attribution", "render_why", "why_rows",
    ),
    ".logcfg": ("setup_logging",),
    ".telemetry": (
        "TelemetryLedger", "load_jsonl", "render_summary", "summarize",
    ),
    ".tracing": ("TraceExporter", "validate_trace_document"),
})
