"""Machine model: configuration and packed resource arithmetic."""

from .._lazy import lazy_exports

__all__ = [
    "MACHINE_PRESETS",
    "MEMORY_PRESETS",
    "PAPER_MACHINE",
    "ScenarioSpec",
    "get_scenario",
    "machine_fingerprint",
    "machine_from_dict",
    "machine_to_dict",
    "CacheConfig",
    "ClusterConfig",
    "DramConfig",
    "MachineConfig",
    "MemoryConfig",
    "get_memory_config",
    "CLUSTER_BITS",
    "OFF_ALU",
    "OFF_MEM",
    "OFF_MUL",
    "OFF_SLOTS",
    "capacity_packed",
    "cluster_lane_mask",
    "fits_packed",
    "guards_mask",
    "pack_cluster",
    "pack_usage",
    "unpack_usage",
    "usage_of_ops",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": (
        "MEMORY_PRESETS", "PAPER_MACHINE", "CacheConfig", "ClusterConfig",
        "DramConfig", "MachineConfig", "MemoryConfig", "get_memory_config",
    ),
    ".scenarios": (
        "MACHINE_PRESETS", "ScenarioSpec", "get_scenario",
        "machine_fingerprint", "machine_from_dict", "machine_to_dict",
    ),
    ".resources": (
        "CLUSTER_BITS", "OFF_ALU", "OFF_MEM", "OFF_MUL", "OFF_SLOTS",
        "capacity_packed", "cluster_lane_mask", "fits_packed", "guards_mask",
        "pack_cluster", "pack_usage", "unpack_usage", "usage_of_ops",
    ),
})
