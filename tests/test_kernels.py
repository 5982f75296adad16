"""Benchmark kernel suite (repro.kernels): compilation, execution,
determinism, ILP-class sanity."""

import pytest

from repro.arch.config import PAPER_MACHINE
from repro.kernels import BENCH_ORDER, BY_CLASS, SUITE, get_meta
from repro.kernels.suite import build_program
from repro.pipeline.processor import run_single_thread
from repro.pipeline.trace import record_trace

SCALE = 0.06  # tiny but structurally complete


@pytest.fixture(scope="module")
def small_traces():
    out = {}
    for name in BENCH_ORDER:
        res = build_program(name, SCALE)
        out[name] = record_trace(res.program, PAPER_MACHINE)
    return out


def test_twelve_benchmarks():
    assert len(SUITE) == 12
    assert set(BENCH_ORDER) == set(SUITE)


def test_paper_table_values_recorded():
    # spot-check Fig. 13a values
    assert get_meta("mcf").paper_ipcr == 0.96
    assert get_meta("colorspace").paper_ipcp == 8.88
    assert get_meta("idct").ilp_class == "h"
    assert get_meta("bzip2").ilp_class == "l"


def test_class_partition():
    assert sorted(BY_CLASS["l"]) == sorted(
        ["mcf", "bzip2", "blowfish", "gsmencode"])
    assert sorted(BY_CLASS["m"]) == sorted(
        ["g721encode", "g721decode", "cjpeg", "djpeg"])
    assert sorted(BY_CLASS["h"]) == sorted(
        ["imgpipe", "x264", "idct", "colorspace"])


@pytest.mark.parametrize("name", BENCH_ORDER)
def test_kernel_compiles_and_runs(name, small_traces):
    tr = small_traces[name]
    assert tr.length > 50
    assert tr.total_ops > tr.length


@pytest.mark.parametrize("name", BENCH_ORDER)
def test_kernel_trace_deterministic(name):
    a = record_trace(build_program(name, SCALE).program, PAPER_MACHINE)
    b = record_trace(build_program(name, SCALE).program, PAPER_MACHINE)
    assert a.idx == b.idx
    assert a.addr_cols == b.addr_cols
    assert a.taken == b.taken


@pytest.mark.parametrize("name", BENCH_ORDER)
def test_kernel_scales_trip_count(name):
    small = build_program(name, SCALE).program
    # static code size is scale-independent; only the trace length grows
    big = build_program(name, SCALE * 2).program
    assert abs(len(small) - len(big)) <= 2


def test_high_beats_low_ipc(small_traces):
    """The ILP classes must be ordered: every h kernel out-IPCs every l
    kernel under perfect memory."""
    ipcs = {
        name: run_single_thread(tr, perfect_memory=True).ipc
        for name, tr in small_traces.items()
    }
    for lo in BY_CLASS["l"]:
        for hi in BY_CLASS["h"]:
            assert ipcs[hi] > ipcs[lo], (hi, lo, ipcs[hi], ipcs[lo])


def test_class_band_means(small_traces):
    ipcs = {
        name: run_single_thread(tr, perfect_memory=True).ipc
        for name, tr in small_traces.items()
    }
    mean = lambda names: sum(ipcs[n] for n in names) / len(names)
    assert mean(BY_CLASS["l"]) < mean(BY_CLASS["m"]) < mean(BY_CLASS["h"])


@pytest.mark.parametrize("name", BENCH_ORDER)
def test_kernel_branches_present(name, small_traces):
    """Every kernel loops, so the trace contains taken branches."""
    assert sum(small_traces[name].taken) > 0


@pytest.mark.parametrize("name", BENCH_ORDER)
def test_kernel_memory_traffic(name, small_traces):
    tr = small_traces[name]
    n_mem = sum(1 for col in tr.addr_cols for a in col if a >= 0)
    assert n_mem > 0


def test_trace_cache_memoises():
    from repro.kernels.suite import clear_trace_cache, get_trace

    clear_trace_cache()
    a = get_trace("gsmencode", 0.05)
    b = get_trace("gsmencode", 0.05)
    assert a is b
    clear_trace_cache()
    c = get_trace("gsmencode", 0.05)
    assert c is not a
