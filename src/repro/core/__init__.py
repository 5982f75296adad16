"""The paper's contribution: SMT merging + split-issue for clustered VLIWs."""

from .._lazy import lazy_exports

__all__ = [
    "RollbackToken",
    "SplitVM",
    "MergeEngine",
    "ALL_POLICIES",
    "BY_NAME",
    "CCSI_AS",
    "CCSI_NS",
    "COSI_AS",
    "COSI_NS",
    "CSMT",
    "OOSI_AS",
    "OOSI_NS",
    "SMT",
    "Policy",
    "get_policy",
    "FixedPriority",
    "RoundRobinPriority",
    "make_priority",
    "renaming_value",
    "renaming_vector",
    "PendingInstruction",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".buffers": ("RollbackToken", "SplitVM"),
    ".merging": ("MergeEngine",),
    ".policies": (
        "ALL_POLICIES", "BY_NAME", "CCSI_AS", "CCSI_NS", "COSI_AS", "COSI_NS",
        "CSMT", "OOSI_AS", "OOSI_NS", "SMT", "Policy", "get_policy",
    ),
    ".priority": ("FixedPriority", "RoundRobinPriority", "make_priority"),
    ".renaming": ("renaming_value", "renaming_vector"),
    ".splitstate": ("PendingInstruction",),
})
