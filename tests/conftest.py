"""Shared fixtures: tiny compiled programs and traces."""

from __future__ import annotations

import pytest

from repro.arch.config import PAPER_MACHINE, ClusterConfig, MachineConfig
from repro.compiler.pipeline import compile_kernel
from repro.engine import QUICK_SCALE, SimulationSession
from repro.pipeline.trace import record_trace

from _kernels import make_axpy, make_wide


@pytest.fixture(scope="session")
def quick_session():
    """One session that holds the quick Fig. 13b matrix (swept on two
    workers), shared by the golden-digest and figure-shape tests."""
    session = SimulationSession(QUICK_SCALE, jobs=2)
    session.sweep()
    yield session
    session.close()


@pytest.fixture(scope="session")
def axpy_result():
    return compile_kernel(make_axpy())


@pytest.fixture(scope="session")
def axpy_program(axpy_result):
    return axpy_result.program


@pytest.fixture(scope="session")
def axpy_trace(axpy_program):
    return record_trace(axpy_program, PAPER_MACHINE)


@pytest.fixture(scope="session")
def wide_trace():
    return record_trace(
        compile_kernel(make_wide()).program, PAPER_MACHINE
    )


@pytest.fixture(scope="session")
def tiny_traces(axpy_trace, wide_trace):
    return [axpy_trace, wide_trace]


@pytest.fixture(scope="session")
def slots_only_machine() -> MachineConfig:
    """Paper Fig. 5/6 example machine: 2 clusters x 3 issue, issue slots
    the only critical resource."""
    return MachineConfig(
        n_clusters=2,
        cluster=ClusterConfig(issue_width=3, n_alu=3, n_mul=3, n_mem=3),
    )


@pytest.fixture(scope="session")
def fig1_machine() -> MachineConfig:
    """Paper Fig. 1 example machine: 4 clusters x 2 issue."""
    return MachineConfig(
        n_clusters=4,
        cluster=ClusterConfig(issue_width=2, n_alu=2, n_mul=2, n_mem=2),
    )
