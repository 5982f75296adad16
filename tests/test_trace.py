"""Static/dynamic trace tables and cluster-renaming rotation."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import PAPER_MACHINE
from repro.arch.resources import op_usage_table, unpack_usage
from repro.arch.scenarios import get_scenario
from repro.engine import QUICK_SCALE
from repro.kernels.suite import BENCH_ORDER, get_trace
from repro.pipeline.trace import build_static_table, record_trace

from _kernels import make_axpy, make_wide
from repro.compiler.pipeline import compile_kernel


def test_static_table_lengths(axpy_program):
    t = build_static_table(axpy_program, PAPER_MACHINE)
    n = len(axpy_program)
    for field in (t.packed, t.cmask, t.bundle_packed, t.bundle_nops,
                  t.mem_cmask, t.store_cmask, t.icc, t.nops, t.ops_desc,
                  t.pc):
        assert len(field) == n


def test_cmask_consistent_with_bundles(axpy_program):
    t = build_static_table(axpy_program, PAPER_MACHINE)
    for i in range(len(axpy_program)):
        mask = 0
        for c in range(4):
            if t.bundle_nops[i][c]:
                mask |= 1 << c
        assert mask == t.cmask[i]


def test_nops_sum_of_bundles(axpy_program):
    t = build_static_table(axpy_program, PAPER_MACHINE)
    for i in range(len(axpy_program)):
        assert sum(t.bundle_nops[i]) == t.nops[i]


def test_packed_equals_sum_of_bundle_packed(axpy_program):
    t = build_static_table(axpy_program, PAPER_MACHINE)
    for i in range(len(axpy_program)):
        assert sum(t.bundle_packed[i]) == t.packed[i]


def test_mem_mask_subset_of_cmask(axpy_program):
    t = build_static_table(axpy_program, PAPER_MACHINE)
    for i in range(len(axpy_program)):
        assert t.mem_cmask[i] & ~t.cmask[i] == 0
        assert t.store_cmask[i] & ~t.mem_cmask[i] == 0


def test_pcs_increasing(axpy_program):
    t = build_static_table(axpy_program, PAPER_MACHINE)
    assert all(b > a for a, b in zip(t.pc, t.pc[1:]))


def test_trace_records_dynamic_stream(axpy_trace):
    assert axpy_trace.length > 0
    assert axpy_trace.total_ops > axpy_trace.length  # >1 op/instr avg
    cols = axpy_trace.addr_cols
    assert len(cols) == PAPER_MACHINE.n_clusters
    assert all(len(col) == axpy_trace.length for col in cols)


@given(st.integers(0, 3))
@settings(max_examples=4, deadline=None)
def test_rotation_preserves_totals(r):
    tr = record_trace(compile_kernel(make_wide()).program, PAPER_MACHINE)
    st0, cols0 = tr.rotated(0)
    str_, cols_r = tr.rotated(r)
    for i in range(len(st0.nops)):
        assert st0.nops[i] == str_.nops[i]
        assert sorted(st0.bundle_nops[i]) == sorted(str_.bundle_nops[i])
        assert st0.cmask[i].bit_count() == str_.cmask[i].bit_count()
        assert sorted(unpack_usage(st0.packed[i], 4)) == sorted(
            unpack_usage(str_.packed[i], 4)
        )
    # address rows are rolled, never lost
    rows0, rows_r = list(zip(*cols0)), list(zip(*cols_r))
    assert len(rows0) == len(rows_r) == tr.length
    for a, b in zip(rows0, rows_r):
        assert sorted(a) == sorted(b)


def test_rotation_shares_address_columns(wide_trace):
    """Renaming permutes references to the address columns: rotated
    column ``c`` is the unrotated column ``(c - r) % n`` itself, so no
    address is copied, and every rebuilt row is the unrotated row
    rolled by ``r``."""
    n = PAPER_MACHINE.n_clusters
    _, cols0 = wide_trace.rotated(0)
    rows0 = list(zip(*cols0))
    assert any(a >= 0 for row in rows0 for a in row)
    for r in range(n):
        _, cols_r = wide_trace.rotated(r)
        assert len(cols_r) == n
        for c in range(n):
            assert cols_r[c] is cols0[(c - r) % n]
        assert list(zip(*cols_r)) == [
            tuple(row[(c - r) % n] for c in range(n)) for row in rows0
        ]


def test_rotation_by_cluster_count_is_identity(wide_trace):
    st0, rows0 = wide_trace.rotated(0)
    st4, rows4 = wide_trace.rotated(4)
    assert st0 is st4 and rows0 is rows4


def test_rotation_maps_cluster_c_to_c_plus_r(wide_trace):
    st0, _ = wide_trace.rotated(0)
    st1, _ = wide_trace.rotated(1)
    for i in range(len(st0.nops)):
        for c in range(4):
            assert st0.bundle_nops[i][c] == st1.bundle_nops[i][(c + 1) % 4]


def test_rotation_cache(wide_trace):
    a = wide_trace.rotated(2)
    b = wide_trace.rotated(2)
    assert a[0] is b[0]


def test_ops_desc_rotation(wide_trace):
    st0, _ = wide_trace.rotated(0)
    st2, _ = wide_trace.rotated(2)
    for d0, d2 in zip(st0.ops_desc, st2.ops_desc):
        assert len(d0) == len(d2)
        for (c0, fu0, m0), (c2, fu2, m2) in zip(d0, d2):
            assert c2 == (c0 + 2) % 4 and fu0 == fu2 and m0 == m2


@pytest.mark.parametrize("r", range(4))
def test_ops_use_matches_ops_desc_under_rotation(wide_trace, r):
    """The op-split loop's ``(usage, mem bit)`` pairs are exactly the
    merge engine's ``op_usage[c][fu]`` and the op's cluster bit, for
    every rotation, and each distinct pair is one shared tuple."""
    st_r, _ = wide_trace.rotated(r)
    usage = op_usage_table(4)
    interned = {}
    for desc, use in zip(st_r.ops_desc, st_r.ops_use):
        assert len(desc) == len(use)
        for (c, fu, is_mem), pair in zip(desc, use):
            assert pair == (usage[c][fu], (1 << c) if is_mem else 0)
            assert interned.setdefault(pair, pair) is pair


@pytest.mark.parametrize("r", range(4))
def test_bundle_sum_is_sum_of_bundle_packed(wide_trace, r):
    st_r, _ = wide_trace.rotated(r)
    assert st_r.bundle_sum == [sum(b) for b in st_r.bundle_packed]


@pytest.mark.xfail(
    strict=True,
    reason="known defect, ROADMAP item 3 (a): _rot_static rolls "
    "bundle_packed without lane-shifting its values, so COSI charges "
    "cluster c's bundle to lane c - r; fixing it moves the pinned "
    "result digests",
)
def test_rotated_bundle_usage_sums_to_packed(wide_trace):
    for r in (1, 2, 3):
        st_r, _ = wide_trace.rotated(r)
        assert all(
            sum(b) == p for b, p in zip(st_r.bundle_packed, st_r.packed)
        ), r


def test_icc_flag_rotation_invariant(wide_trace):
    st0, _ = wide_trace.rotated(0)
    st3, _ = wide_trace.rotated(3)
    assert st0.icc == st3.icc


# ----------------------------------------------------- golden fingerprints
_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_trace_fingerprints.json").read_text()
)


@pytest.mark.parametrize(
    "machine,name",
    [(m, n) for m in sorted(_GOLDEN["fingerprints"]) for n in BENCH_ORDER],
)
def test_trace_fingerprint_golden(machine, name):
    """The functional VM's traces are pinned: result keys and the
    fingerprint index derive from these fingerprints, so drift would
    also orphan every store filled earlier."""
    assert QUICK_SCALE.kernel_scale == _GOLDEN["kernel_scale"]
    cfg = get_scenario(machine).machine
    bundle = get_trace(name, QUICK_SCALE.kernel_scale, cfg)
    assert bundle.fingerprint() == _GOLDEN["fingerprints"][machine][name]
