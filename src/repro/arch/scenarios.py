"""Declarative machine scenarios (`repro.arch.scenarios`).

The paper evaluates one fixed machine (§IV/§VI-A).  This module turns
the *entire* :class:`~repro.arch.config.MachineConfig` — cluster count,
per-cluster issue width and FU mix, timeslice behaviour, memory
hierarchy — into a named, validated, sweepable **scenario**, in the
spirit of kerncraft's machine-model files: experiments select a machine
by name exactly like they select a policy, a workload, or a memory
preset.

:data:`MACHINE_PRESETS` declares the named machines.  A scenario name
also composes with any memory preset as ``"<machine>+<memory>"``
(``"narrow+l2"``, ``"wide+l2+prefetch"``): the part before the first
``+`` names the machine, the rest names a
:data:`~repro.arch.config.MEMORY_PRESETS` entry — which is why machine
preset names must not contain ``+``.

A :class:`ScenarioSpec` carries three things beyond the config itself:

* **validation** — the nested config dataclasses validate locally;
  the spec additionally enforces the simulator-wide envelope (the
  packed SWAR resource model's 3-bit fields, the 8-cluster mask limit)
  so an impossible machine fails at declaration, not mid-simulation;
* a canonical content **fingerprint** — a SHA-256 over the canonical
  JSON of the machine (cosmetic names excluded), used by the engine's
  disk cache to key results by *what the machine is*, not what it is
  called;
* **JSON round-trip** — :meth:`ScenarioSpec.to_dict` /
  :meth:`ScenarioSpec.from_dict` serialise the full nested config, so
  scenarios can live in result metadata or external files.

``timeslice_factor`` scales the experiment's OS timeslice (the
``fast-switch`` preset quarters it, multiplying context-switch
pressure) — it is part of the scenario's identity and therefore of the
fingerprint, and the engine applies it to whatever scale (quick or
default) the session runs at.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, replace

from .config import (
    CacheConfig,
    ClusterConfig,
    DramConfig,
    MachineConfig,
    MemoryConfig,
    PAPER_MACHINE,
    get_memory_config,
)

#: Per-field capacity limit of the packed SWAR resource model
#: (3 value bits per field; see :mod:`repro.arch.resources`).
_SWAR_FIELD_MAX = 7


# ----------------------------------------------------------- serialisation
def machine_to_dict(cfg: MachineConfig) -> dict:
    """Full nested ``MachineConfig`` as JSON-ready plain data."""
    return dataclasses.asdict(cfg)


def machine_from_dict(d: dict) -> MachineConfig:
    """Inverse of :func:`machine_to_dict` (rebuilds every nested
    config dataclass, re-running all their validation)."""
    mem = dict(d["memory"])
    if mem.get("l2") is not None:
        mem["l2"] = CacheConfig(**mem["l2"])
    if mem.get("dram") is not None:
        mem["dram"] = DramConfig(**mem["dram"])
    kw = dict(d)
    kw["cluster"] = ClusterConfig(**d["cluster"])
    kw["icache"] = CacheConfig(**d["icache"])
    kw["dcache"] = CacheConfig(**d["dcache"])
    kw["memory"] = MemoryConfig(**mem)
    return MachineConfig(**kw)


# memoised by value (the config is frozen and hashable); ``typed``
# keeps a factor of ``1`` apart from ``1.0``, which serialise apart
@functools.lru_cache(maxsize=None, typed=True)
def machine_fingerprint(
    cfg: MachineConfig, timeslice_factor: float = 1.0
) -> str:
    """Canonical content hash of a machine scenario.

    Hashes every field that changes simulation results — the whole
    nested config plus the timeslice factor — but *not* cosmetic names
    (``MemoryConfig.name`` is dropped), so a hand-built config that is
    field-for-field identical to a preset shares its fingerprint and
    its cached results.  Derived once per distinct
    ``(cfg, timeslice_factor)`` value in a process.
    """
    doc = machine_to_dict(cfg)
    doc["memory"].pop("name", None)
    doc["timeslice_factor"] = timeslice_factor
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------- spec
@dataclass(frozen=True)
class ScenarioSpec:
    """One named machine scenario: a validated ``MachineConfig`` plus
    the experiment-shape knobs that belong to the machine rather than
    to the workload (currently the timeslice factor)."""

    name: str
    machine: MachineConfig
    description: str = ""
    #: multiplier on the experiment scale's OS timeslice (1.0 = the
    #: paper's schedule; <1 switches contexts more often)
    timeslice_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if any(c.isspace() for c in self.name):
            raise ValueError(
                f"scenario name {self.name!r} must not contain "
                "whitespace"
            )
        if self.timeslice_factor <= 0:
            raise ValueError("timeslice_factor must be positive")
        cl = self.machine.cluster
        for label, v in (
            ("issue_width", cl.issue_width),
            ("n_alu", cl.n_alu),
            ("n_mul", cl.n_mul),
            ("n_mem", cl.n_mem),
        ):
            if v > _SWAR_FIELD_MAX:
                raise ValueError(
                    f"cluster {label}={v} exceeds the packed resource "
                    f"model's per-field limit of {_SWAR_FIELD_MAX}"
                )

    # -- identity ------------------------------------------------------
    def fingerprint(self) -> str:
        """Canonical content hash (name-independent; see
        :func:`machine_fingerprint`)."""
        return machine_fingerprint(self.machine, self.timeslice_factor)

    def timeslice(self, base_timeslice: int) -> int:
        """The scenario's OS timeslice under a given experiment scale
        (never collapses a multitasking scale to 0)."""
        if base_timeslice <= 0:
            return base_timeslice
        return max(1, int(base_timeslice * self.timeslice_factor))

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "timeslice_factor": self.timeslice_factor,
            "machine": machine_to_dict(self.machine),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        return cls(
            name=d["name"],
            machine=machine_from_dict(d["machine"]),
            description=d.get("description", ""),
            timeslice_factor=d.get("timeslice_factor", 1.0),
        )


# -------------------------------------------------------------- registry
#: Named machine scenarios (`repro run|sweep --machine <preset>`).
#: ``paper`` is the §IV/§VI-A evaluation machine and the default
#: everywhere — selecting it is bit-identical to not selecting anything.
MACHINE_PRESETS: dict[str, ScenarioSpec] = {
    "paper": ScenarioSpec(
        "paper",
        PAPER_MACHINE,
        "the paper's evaluation machine: 4 clusters x 4-issue, "
        "4 ALU / 2 MUL / 1 MEM per cluster (§IV, §VI-A)",
    ),
    "narrow": ScenarioSpec(
        "narrow",
        MachineConfig(n_clusters=2),
        "half the paper machine: 2 clusters x 4-issue (8-issue total)",
    ),
    "wide": ScenarioSpec(
        "wide",
        MachineConfig(n_clusters=8),
        "double the paper machine: 8 clusters x 4-issue (32-issue "
        "total, the packed resource model's cluster limit)",
    ),
    "fast-switch": ScenarioSpec(
        "fast-switch",
        PAPER_MACHINE,
        "the paper machine under 4x context-switch pressure "
        "(quarter-length OS timeslices)",
        timeslice_factor=0.25,
    ),
    "big-fu": ScenarioSpec(
        "big-fu",
        MachineConfig(
            cluster=ClusterConfig(
                issue_width=6, n_alu=6, n_mul=3, n_mem=2
            )
        ),
        "FU-rich clusters: 4 clusters x 6-issue, 6 ALU / 3 MUL / "
        "2 MEM per cluster",
    ),
}

# '+' is the machine/memory composition separator, so registered
# machine preset names must stay '+'-free for get_scenario's parse to
# be unambiguous
assert all("+" not in n for n in MACHINE_PRESETS)

#: Composed ``machine+memory`` specs, memoised so repeated resolution
#: returns the same object (the per-process trace memo keys on config
#: identity).
_composed: dict[str, ScenarioSpec] = {}


def get_scenario(name: str) -> ScenarioSpec:
    """Resolve a scenario name: a :data:`MACHINE_PRESETS` entry, or a
    ``"<machine>+<memory>"`` composition reusing
    :data:`~repro.arch.config.MEMORY_PRESETS`."""
    spec = MACHINE_PRESETS.get(name)
    if spec is not None:
        return spec
    spec = _composed.get(name)
    if spec is not None:
        return spec
    if "+" in name:
        mach_name, mem_name = name.split("+", 1)
        base = MACHINE_PRESETS.get(mach_name)
        if base is None:
            raise ValueError(
                f"unknown machine preset {mach_name!r} in scenario "
                f"{name!r}; choose one of {sorted(MACHINE_PRESETS)}"
            )
        memory = get_memory_config(mem_name)  # raises with the choices
        spec = ScenarioSpec(
            name=name,
            machine=replace(base.machine, memory=memory),
            description=f"{base.description} + memory preset "
            f"{mem_name!r}",
            timeslice_factor=base.timeslice_factor,
        )
        _composed[name] = spec
        return spec
    raise ValueError(
        f"unknown machine scenario {name!r}; choose one of "
        f"{sorted(MACHINE_PRESETS)} or compose '<machine>+<memory>' "
        "with a memory preset"
    )


def scenario_names() -> list[str]:
    """Base machine preset names (compositions excluded)."""
    return sorted(MACHINE_PRESETS)
