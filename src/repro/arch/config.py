"""Machine configuration.

The paper's evaluation machine (§IV, §VI-A):

* 4 clusters, 4-issue per cluster (16-issue total);
* per cluster: 4 ALUs, 2 multipliers, 1 load/store unit;
* branch unit at cluster 0, no branch predictor (fall-through predicted),
  taken-branch penalty 1 cycle, 2-cycle compare-to-branch delay;
* memory/multiply latency 2 cycles, everything else 1;
* 64 KB 4-way set-associative ICache and DCache, 20-cycle miss penalty,
  no L2;
* fully connected inter-cluster network, partitioned register file.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ClusterConfig:
    """Per-cluster issue resources."""

    issue_width: int = 4
    n_alu: int = 4
    n_mul: int = 2
    n_mem: int = 1
    n_regs: int = 64

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if min(self.n_alu, self.n_mul, self.n_mem) < 0:
            raise ValueError("negative FU count")
        if self.n_alu < 1:
            raise ValueError("need at least one ALU per cluster")


@dataclass(frozen=True)
class CacheConfig:
    """One cache level (the paper uses a single level)."""

    size_bytes: int = 64 * 1024
    assoc: int = 4
    line_bytes: int = 32
    miss_penalty: int = 20

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("cache size not divisible into sets")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class DramConfig:
    """Banked-DRAM backend of the memory hierarchy.

    ``latency`` is the critical-word latency in core cycles; a request
    to a bank that is still busy (within ``bank_busy`` cycles of the
    previous request's start) waits until the bank frees up.  Banks are
    selected by interleaving ``interleave_bytes``-sized blocks.
    """

    latency: int = 20
    n_banks: int = 1
    bank_busy: int = 0
    interleave_bytes: int = 64

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bank_busy < 0:
            raise ValueError("DRAM latencies must be non-negative")
        if self.n_banks < 1 or self.n_banks & (self.n_banks - 1):
            raise ValueError("bank count must be a power of two")
        if (
            self.interleave_bytes < 1
            or self.interleave_bytes & (self.interleave_bytes - 1)
        ):
            raise ValueError("interleave size must be a power of two")


#: Prefetcher kinds understood by the memory hierarchy.
PREFETCH_KINDS = ("none", "nextline", "stride")


@dataclass(frozen=True)
class MemoryConfig:
    """Everything below the private L1s: optional shared L2, optional
    data prefetcher, optional banked DRAM, optional MSHRs and writeback
    traffic.

    The all-defaults configuration is the paper's flat §VI-A model: no
    L2, no prefetch, no DRAM timing — an L1 miss costs exactly that
    L1's ``miss_penalty``, bit-identical to the single-level simulator.
    With ``l2`` set, an L1 miss that hits L2 costs ``l2_hit_latency``;
    an L2 miss additionally pays DRAM (or ``l2.miss_penalty`` when
    ``dram`` is ``None``).  With ``dram`` set and no L2, every L1 miss
    goes straight to DRAM.

    ``mshr`` gives each L1 a miss-status-holding-register file of that
    many entries, making the caches non-blocking: the misses of one
    VLIW instruction overlap (the thread stalls for the slowest, not
    the sum), a second access to a line whose fill is still in flight
    merges into the existing MSHR and pays only the residual latency,
    and a miss arriving with every MSHR occupied waits for the earliest
    entry to retire.  ``mshr=0`` is the paper's blocking cache.

    ``writeback_penalty`` makes dirty-eviction *traffic* cost time: an
    L1D demand miss that evicts a dirty line pays this many extra
    cycles (victim-buffer drain) and the victim occupies the level
    below — installed dirty into L2, or holding its DRAM bank busy.
    ``0`` keeps writebacks free (the paper's flat model).
    """

    name: str = "paper"
    l2: CacheConfig | None = None
    l2_hit_latency: int = 8
    prefetch: str = "none"
    prefetch_degree: int = 1
    dram: DramConfig | None = None
    #: MSHR entries per L1 cache (0 = blocking caches, the paper model)
    mshr: int = 0
    #: extra cycles an L1D demand miss pays when it evicts a dirty line
    #: (0 = writeback traffic is free, the paper model)
    writeback_penalty: int = 0

    def __post_init__(self) -> None:
        if self.prefetch not in PREFETCH_KINDS:
            raise ValueError(
                f"unknown prefetcher {self.prefetch!r}; "
                f"choose one of {PREFETCH_KINDS}"
            )
        if self.prefetch_degree < 1:
            raise ValueError("prefetch_degree must be >= 1")
        if self.l2_hit_latency < 0:
            raise ValueError("l2_hit_latency must be non-negative")
        if self.mshr < 0:
            raise ValueError("mshr must be non-negative")
        if self.writeback_penalty < 0:
            raise ValueError("writeback_penalty must be non-negative")

    @property
    def is_flat(self) -> bool:
        """True for the paper's single-level fixed-penalty model."""
        return (
            self.l2 is None
            and self.dram is None
            and self.prefetch == "none"
            and self.mshr == 0
            and self.writeback_penalty == 0
        )


#: A 512 KB 8-way shared L2 over a 60-cycle 8-bank DRAM.
_L2 = CacheConfig(
    size_bytes=512 * 1024, assoc=8, line_bytes=32, miss_penalty=60
)
_DRAM = DramConfig(latency=60, n_banks=8, bank_busy=4)

#: Named memory scenarios (`repro run|sweep --memory <preset>`).
MEMORY_PRESETS: dict[str, MemoryConfig] = {
    "paper": MemoryConfig(),
    "slow-dram": MemoryConfig(
        name="slow-dram",
        dram=DramConfig(latency=60, n_banks=4, bank_busy=8),
    ),
    "l2": MemoryConfig(name="l2", l2=_L2, dram=_DRAM),
    "l2+prefetch": MemoryConfig(
        name="l2+prefetch",
        l2=_L2,
        dram=_DRAM,
        prefetch="nextline",
        prefetch_degree=2,
    ),
    "l2+stride": MemoryConfig(
        name="l2+stride",
        l2=_L2,
        dram=_DRAM,
        prefetch="stride",
        prefetch_degree=2,
    ),
    "mshr": MemoryConfig(
        name="mshr",
        dram=DramConfig(latency=60, n_banks=4, bank_busy=8),
        mshr=4,
        writeback_penalty=4,
    ),
    "l2+mshr": MemoryConfig(
        name="l2+mshr",
        l2=_L2,
        dram=_DRAM,
        mshr=8,
        writeback_penalty=4,
    ),
    "l2+pf+mshr": MemoryConfig(
        name="l2+pf+mshr",
        l2=_L2,
        dram=_DRAM,
        prefetch="nextline",
        prefetch_degree=2,
        mshr=8,
        writeback_penalty=4,
    ),
}


def get_memory_config(name: str) -> MemoryConfig:
    """Look up a memory-scenario preset by name."""
    try:
        return MEMORY_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown memory preset {name!r}; "
            f"choose one of {sorted(MEMORY_PRESETS)}"
        ) from None


@dataclass(frozen=True)
class MachineConfig:
    """Full machine description shared by compiler, VM and timing model."""

    n_clusters: int = 4
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    #: levels below the L1s (L2 / prefetch / DRAM); the default is the
    #: paper's flat model
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    taken_branch_penalty: int = 1
    cmp_to_branch_delay: int = 2
    n_branch_regs: int = 8
    #: latency of an inter-cluster copy (send->recv result available)
    icc_latency: int = 1

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("need at least one cluster")
        if self.n_clusters > 8:
            raise ValueError("packed resource model supports <= 8 clusters")

    @property
    def issue_width(self) -> int:
        """Total machine issue width."""
        return self.n_clusters * self.cluster.issue_width


#: The configuration used throughout the paper's evaluation.
PAPER_MACHINE = MachineConfig()
