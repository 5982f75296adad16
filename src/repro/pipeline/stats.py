"""Simulation statistics.

IPC here is the paper's metric: *operations* issued per cycle (a VLIW
instruction is 1..16 RISC operations, §VI-A).  Vertical waste counts
cycles in which no operation issued; horizontal waste counts unused
issue slots in cycles where at least one operation issued (the standard
Tullsen-style decomposition the paper's introduction uses).

Counters are plain integers with no per-cycle semantics attached: the
simulator may fold a whole idle span into ``vertical_waste`` in one
addition (the specialised loop's idle skip) or accumulate events in
locals and flush them once per ``run()`` — only the final totals are defined, and
they are bit-identical whichever of the two run-loop tiers produced
them (that identity is what lets both share disk-cache entries; see
``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Exhaustive, mutually exclusive issue-slot × cycle attribution
#: categories (``docs/observability.md``).  Every simulated cycle
#: contributes exactly ``issue_width`` slots, split between ``useful``
#: (operations issued) and exactly one waste category for the rest:
#:
#: * ``merge_limited``  — a thread offered work the merge engine
#:   refused (or could only partially issue) this cycle, plus whole
#:   buffered-store port-conflict stall cycles (coherence limits);
#: * ``mem_stall``      — some thread sat in a data-miss stall or an
#:   instruction-miss fill wait at issue time;
#: * ``switch_drain``   — the timeslice expired and the scheduler is
#:   draining in-flight split instructions before switching (§VI-A);
#: * ``post_switch``    — post-timeslice idle: cycles after a context
#:   switch before the new thread set issues its first operation
#:   (refetch + cold-line warm-up attributed to the switch);
#: * ``empty``          — no ready thread at all: branch-redirect
#:   bubbles, unassigned hardware contexts, single-cycle fetch gaps.
ATTRIBUTION_CATEGORIES = (
    "useful",
    "merge_limited",
    "mem_stall",
    "switch_drain",
    "post_switch",
    "empty",
)


@dataclass
class BenchStats:
    """Per-benchmark counters (persistent across context switches)."""

    name: str
    instructions: int = 0  # dynamic VLIW instructions retired
    operations: int = 0
    respawns: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instructions": self.instructions,
            "operations": self.operations,
            "respawns": self.respawns,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchStats":
        return cls(
            name=d["name"],
            instructions=d["instructions"],
            operations=d["operations"],
            respawns=d["respawns"],
        )


@dataclass
class SimStats:
    """Whole-simulation counters."""

    cycles: int = 0
    operations: int = 0
    instructions: int = 0
    vertical_waste: int = 0
    stall_cycles: int = 0  # pipeline stalls from buffered-store conflicts
    #: histogram: number of threads contributing ops to a cycle -> count
    packet_threads: dict[int, int] = field(default_factory=dict)
    #: instructions that issued in >1 part
    split_instructions: int = 0
    icache_misses: int = 0
    dcache_misses: int = 0
    icache_accesses: int = 0
    dcache_accesses: int = 0
    context_switches: int = 0
    per_bench: dict[str, BenchStats] = field(default_factory=dict)
    issue_width: int = 16
    #: per-level memory-hierarchy counters as reported by
    #: :meth:`repro.memory.hierarchy.MemorySystem.stats_dict` —
    #: ``{"preset", "levels": {"l1i"/"l1d"/"l2": ...}, "dram"?,
    #: "prefetch"?}``; empty until a simulation populates it
    memory: dict = field(default_factory=dict)
    #: per-cycle issue-slot attribution (``docs/observability.md``):
    #: ``{"slots", "cycles", "loop_used", "categories": {...}}`` with
    #: the invariant ``sum(categories) == cycles * slots``.  Populated
    #: only by attribution runs (``Processor(attribute=True)``, always
    #: on the reference loop); empty otherwise, so non-attributed runs
    #: stay bit-identical across the two run-loop tiers.
    attribution: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.operations / self.cycles if self.cycles else 0.0

    @property
    def horizontal_waste(self) -> int:
        active = self.cycles - self.vertical_waste
        return active * self.issue_width - self.operations

    @property
    def vertical_waste_frac(self) -> float:
        return self.vertical_waste / self.cycles if self.cycles else 0.0

    @property
    def mshr_merges(self) -> int:
        """Secondary misses merged into an in-flight MSHR fill (0 for
        blocking-cache presets; see ``memory["mshr"]``)."""
        return self.memory.get("mshr", {}).get("merges", 0)

    @property
    def mshr_full_stall_cycles(self) -> int:
        """Cycles misses waited because every MSHR was occupied."""
        return self.memory.get("mshr", {}).get("full_stall_cycles", 0)

    @property
    def writeback_stall_cycles(self) -> int:
        """Cycles charged for dirty-eviction writeback traffic (0 when
        writebacks are free; see ``memory["writeback"]``)."""
        return self.memory.get("writeback", {}).get("stall_cycles", 0)

    def attribution_balance(self) -> int:
        """``sum(categories) - cycles * slots`` for an attributed run —
        0 exactly when the exhaustive-accounting invariant holds (and
        trivially 0 when no attribution was recorded)."""
        if not self.attribution:
            return 0
        a = self.attribution
        return sum(a["categories"].values()) - a["cycles"] * a["slots"]

    @property
    def merged_cycle_frac(self) -> float:
        """Fraction of issuing cycles whose packet mixes >= 2 threads."""
        total = sum(
            v for k, v in self.packet_threads.items() if k >= 1
        )
        multi = sum(v for k, v in self.packet_threads.items() if k >= 2)
        return multi / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-safe form (disk cache, worker-process IPC).

        ``packet_threads`` keys become strings (JSON objects only take
        string keys); :meth:`from_dict` restores them to ints.
        """
        return {
            "cycles": self.cycles,
            "operations": self.operations,
            "instructions": self.instructions,
            "vertical_waste": self.vertical_waste,
            "stall_cycles": self.stall_cycles,
            "packet_threads": {
                str(k): v for k, v in self.packet_threads.items()
            },
            "split_instructions": self.split_instructions,
            "icache_misses": self.icache_misses,
            "dcache_misses": self.dcache_misses,
            "icache_accesses": self.icache_accesses,
            "dcache_accesses": self.dcache_accesses,
            "context_switches": self.context_switches,
            "per_bench": {
                name: b.to_dict() for name, b in self.per_bench.items()
            },
            "issue_width": self.issue_width,
            "memory": self.memory,
            "attribution": self.attribution,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimStats":
        return cls(
            cycles=d["cycles"],
            operations=d["operations"],
            instructions=d["instructions"],
            vertical_waste=d["vertical_waste"],
            stall_cycles=d["stall_cycles"],
            packet_threads={
                int(k): v for k, v in d["packet_threads"].items()
            },
            split_instructions=d["split_instructions"],
            icache_misses=d["icache_misses"],
            dcache_misses=d["dcache_misses"],
            icache_accesses=d["icache_accesses"],
            dcache_accesses=d["dcache_accesses"],
            context_switches=d["context_switches"],
            per_bench={
                name: BenchStats.from_dict(b)
                for name, b in d["per_bench"].items()
            },
            issue_width=d["issue_width"],
            memory=d.get("memory") or {},
            # absent in pre-observability cache entries (still valid —
            # attribution is additive, results are unchanged)
            attribution=d.get("attribution") or {},
        )

    def summary(self) -> dict[str, float]:
        return {
            "cycles": float(self.cycles),
            "operations": float(self.operations),
            "instructions": float(self.instructions),
            "ipc": self.ipc,
            "vertical_waste_frac": self.vertical_waste_frac,
            "merged_cycle_frac": self.merged_cycle_frac,
            "split_instructions": float(self.split_instructions),
            "stall_cycles": float(self.stall_cycles),
            "icache_miss_rate": (
                self.icache_misses / self.icache_accesses
                if self.icache_accesses
                else 0.0
            ),
            "dcache_miss_rate": (
                self.dcache_misses / self.dcache_accesses
                if self.dcache_accesses
                else 0.0
            ),
            "mshr_merges": float(self.mshr_merges),
            "writeback_stall_cycles": float(self.writeback_stall_cycles),
        }
