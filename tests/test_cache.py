"""Cache model (repro.memory.cache)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.config import CacheConfig
from repro.memory.cache import Cache, PerfectCache, make_cache


def small_cache(assoc=2, lines=8, line_bytes=32) -> Cache:
    return Cache(
        CacheConfig(
            size_bytes=assoc * lines * line_bytes,
            assoc=assoc,
            line_bytes=line_bytes,
        )
    )


def test_paper_cache_geometry():
    c = Cache(CacheConfig())
    assert c.cfg.size_bytes == 64 * 1024
    assert c.cfg.assoc == 4
    assert c.n_sets == 512
    assert c.cfg.miss_penalty == 20


def test_first_access_misses_then_hits():
    c = small_cache()
    assert not c.access(0x100)
    assert c.access(0x100)
    assert c.access(0x11C)  # same 32-byte line
    assert c.misses == 1 and c.hits == 2


def test_distinct_lines_miss_independently():
    c = small_cache()
    c.access(0x000)
    assert not c.access(0x020)
    assert not c.access(0x040)


def test_lru_eviction_order():
    c = small_cache(assoc=2, lines=1)  # 1 set, 2 ways
    c.access(0 * 32)
    c.access(1 * 32)
    c.access(0 * 32)  # refresh line 0 -> MRU
    c.access(2 * 32)  # evicts line 1 (LRU)
    assert c.access(0 * 32)  # still resident
    assert not c.access(1 * 32)  # evicted


def test_capacity_working_set_fits():
    c = small_cache(assoc=2, lines=4)  # 8 lines total
    for rep in range(3):
        for line in range(8):
            c.access(line * 32)
    assert c.misses == 8  # compulsory only
    assert c.hits == 16


def test_cyclic_overflow_thrashes_lru():
    c = small_cache(assoc=2, lines=1)  # 2 lines capacity
    # cyclic access to 3 lines mapping to the same set: classic LRU 0% hit
    for _rep in range(4):
        for line in range(3):
            c.access(line * 32)
    assert c.hits == 0


def test_write_allocate_and_writeback_counting():
    c = small_cache(assoc=1, lines=1)
    c.access(0x000, is_write=True)  # dirty
    c.access(0x020, is_write=False)  # evicts dirty line
    assert c.writebacks == 1
    c.access(0x040)  # evicts clean line
    assert c.writebacks == 1


def test_flush_invalidates():
    c = small_cache()
    c.access(0x100)
    c.flush()
    assert not c.access(0x100)


def test_flush_keeps_stats():
    c = small_cache(assoc=1, lines=1)
    c.access(0x000, is_write=True)
    c.access(0x020)  # evicts the dirty line
    before = (c.hits, c.misses, c.writebacks)
    c.flush()
    assert (c.hits, c.misses, c.writebacks) == before
    # flushed lines were invalidated, not written back again
    assert not c.access(0x020)
    assert c.writebacks == before[2]


def test_reset_stats():
    c = small_cache()
    c.access(0)
    c.reset_stats()
    assert c.misses == 0 and c.hits == 0


def test_reset_stats_clears_all_counters():
    c = small_cache(assoc=1, lines=1)
    c.access(0x000, is_write=True)
    c.access(0x020)  # hit nothing, evict dirty -> writeback
    c.access(0x020)
    assert c.hits and c.misses and c.writebacks
    c.reset_stats()
    assert (c.hits, c.misses, c.writebacks) == (0, 0, 0)


def test_perfect_cache_reset_stats_clears_all_counters():
    p = PerfectCache(CacheConfig())
    p.access(0)
    # misses/writebacks stay zero in normal operation; the regression
    # was reset_stats() leaving them stale when set
    p.misses = 3
    p.writebacks = 2
    p.reset_stats()
    assert (p.hits, p.misses, p.writebacks) == (0, 0, 0)


def test_eviction_writeback_accounting_per_way():
    c = small_cache(assoc=2, lines=1)  # one set, two ways
    c.access(0 * 32, is_write=True)   # dirty
    c.access(1 * 32)                  # clean
    c.access(2 * 32)                  # evicts line 0 (dirty LRU)
    assert c.writebacks == 1
    c.access(3 * 32)                  # evicts line 1 (clean)
    assert c.writebacks == 1
    # a hit that writes re-dirties the resident line
    c.access(3 * 32, is_write=True)
    c.access(4 * 32)                  # evicts line 2 (clean)
    c.access(5 * 32)                  # evicts line 3 (dirty via hit)
    assert c.writebacks == 2


def test_non_power_of_two_set_count_rejected():
    # 3 sets: CacheConfig's divisibility check passes, Cache must refuse
    cfg = CacheConfig(size_bytes=3 * 2 * 32, assoc=2, line_bytes=32)
    assert cfg.n_sets == 3
    with pytest.raises(ValueError, match="power of two"):
        Cache(cfg)


def test_contains_does_not_perturb():
    c = small_cache(assoc=2, lines=1)
    assert not c.contains(0x000)
    c.access(0 * 32)
    c.access(1 * 32)
    # probing line 0 must not refresh it to MRU...
    assert c.contains(0 * 32)
    before = (c.hits, c.misses)
    c.access(2 * 32)  # ...so line 0 is still the LRU victim
    assert not c.contains(0 * 32)
    assert c.contains(1 * 32)
    # ...and contains() itself counted nothing
    assert (c.hits, c.misses) == (before[0], before[1] + 1)


def test_fill_installs_without_demand_stats():
    c = small_cache(assoc=2, lines=1)
    c.fill(0x000)
    assert (c.hits, c.misses) == (0, 0)
    assert c.access(0x000)  # the prefetched line hits on demand


def test_fill_eviction_still_counts_writebacks():
    c = small_cache(assoc=1, lines=1)
    c.access(0x000, is_write=True)  # dirty
    c.fill(0x020)                   # prefetch evicts the dirty line
    assert c.writebacks == 1
    assert (c.hits, c.misses) == (0, 1)


def test_fill_is_noop_on_resident_line():
    """Regression: a fill that installs nothing must not refresh the
    resident line's replacement state (prefetches were silently making
    L2 lines MRU that they did not install)."""
    c = small_cache(assoc=2, lines=1)  # one set, two ways
    c.access(0 * 32)  # LRU
    c.access(1 * 32)  # MRU
    c.fill(0 * 32)    # resident: must NOT refresh line 0 to MRU
    c.access(2 * 32)  # evicts the true LRU
    assert not c.contains(0 * 32)  # line 0 was still LRU -> evicted
    assert c.contains(1 * 32)


def test_fill_noop_keeps_dirty_state_and_counters():
    c = small_cache(assoc=2, lines=1)
    c.access(0 * 32, is_write=True)  # dirty
    before = (c.hits, c.misses, c.writebacks)
    c.fill(0 * 32)                   # resident no-op: stays dirty
    assert (c.hits, c.misses, c.writebacks) == before
    c.access(1 * 32)
    c.access(2 * 32)  # evicts dirty line 0
    assert c.writebacks == 1


def test_fill_dirty_installs_and_redirties():
    c = small_cache(assoc=1, lines=1)
    c.fill(0x000, dirty=True)  # writeback landing in this level
    c.fill(0x020)              # evicts the dirty fill
    assert c.writebacks == 1
    # a dirty fill on a resident clean line re-dirties it
    c.fill(0x020, dirty=True)
    c.fill(0x040)
    assert c.writebacks == 2


def test_victim_line_reports_dirty_demand_victims():
    c = small_cache(assoc=1, lines=1)
    c.access(0 * 32, is_write=True)   # miss, no victim
    assert c.victim_line is None
    c.access(1 * 32)                  # evicts dirty line 0
    assert c.victim_line == 0
    c.access(2 * 32)                  # evicts clean line 1
    assert c.victim_line is None
    c.fill(3 * 32)                    # clean fill eviction
    assert c.victim_line is None
    c.access(3 * 32, is_write=True)
    c.fill(4 * 32)                    # fill evicting a dirty line
    assert c.victim_line == 3


def test_miss_rate():
    c = small_cache()
    assert c.miss_rate == 0.0
    c.access(0)
    c.access(0)
    assert c.miss_rate == pytest.approx(0.5)


def test_perfect_cache_always_hits():
    p = PerfectCache(CacheConfig())
    for a in range(0, 1 << 20, 4096):
        assert p.access(a)
    assert p.miss_rate == 0.0


def test_make_cache_factory():
    assert isinstance(make_cache(CacheConfig(), perfect=True), PerfectCache)
    assert isinstance(make_cache(CacheConfig(), perfect=False), Cache)


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, assoc=3, line_bytes=32)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=64 * 1024, assoc=4, line_bytes=24)


def test_line_of():
    c = small_cache(line_bytes=32)
    assert c.line_of(0) == 0
    assert c.line_of(31) == 0
    assert c.line_of(32) == 1


@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300))
def test_occupancy_never_exceeds_assoc(addrs):
    c = small_cache(assoc=2, lines=4)
    for a in addrs:
        c.access(a)
    for ways in c.sets:
        assert len(ways) <= 2


@given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
def test_repeat_access_hits(addrs):
    """Accessing the same address twice in a row always hits the 2nd time."""
    c = small_cache()
    for a in addrs:
        c.access(a)
        assert c.access(a)


@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300))
def test_hits_plus_misses_equals_accesses(addrs):
    c = small_cache()
    for a in addrs:
        c.access(a)
    assert c.hits + c.misses == len(addrs) == c.accesses


@given(st.lists(st.tuples(st.integers(0, 1 << 12), st.booleans()),
                min_size=1, max_size=400))
def test_matches_list_lru_model(stream):
    """Every counter agrees with a plain list-based LRU (front = MRU)
    with write-allocate and dirty-victim writebacks."""
    c = small_cache(assoc=4, lines=4)
    sets = [[] for _ in range(4)]
    dirty = set()
    hits = misses = writebacks = 0
    for addr, write in stream:
        line = addr >> 5
        ways = sets[line & 3]
        if line in ways:
            hits += 1
            ways.remove(line)
        else:
            misses += 1
            if len(ways) == 4:
                victim = ways.pop()
                writebacks += victim in dirty
                dirty.discard(victim)
        ways.insert(0, line)
        if write:
            dirty.add(line)
        c.access(addr, write)
    assert (c.hits, c.misses, c.writebacks) == (hits, misses, writebacks)
