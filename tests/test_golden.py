"""Simulated results are pinned: a per-cell ``SimStats`` digest for the
quick Fig. 13b matrix, one cell per memory and machine preset and two
small-L1 cells, so a change to the simulator or the memory model names
the cells it moves.  Regenerate with
``PYTHONPATH=src python tests/_golden.py``."""

import json
from pathlib import Path

import pytest

from _golden import GOLDEN_PATH, cell_digests

_GOLDEN = json.loads(GOLDEN_PATH.read_text())
_PERFBENCH = Path(__file__).parent.parent / "perfbench" / "expected.json"


@pytest.fixture(scope="module")
def digests(quick_session):
    return cell_digests(quick_session)


def test_cell_digests_match_golden(digests):
    cells, _ = digests
    assert set(cells) == set(_GOLDEN["cells"])
    drifted = sorted(k for k, d in cells.items() if d != _GOLDEN["cells"][k])
    assert not drifted, f"{len(drifted)} cells moved: {drifted}"


def test_matrix_digest_matches_perfbench(digests):
    """The golden file and the end-to-end benchmark pin the same
    results, so the two cannot drift apart."""
    _, whole = digests
    assert whole == _GOLDEN["matrix_sha256"]
    for workload in json.loads(_PERFBENCH.read_text()).values():
        assert whole == workload["stats_sha256"]
