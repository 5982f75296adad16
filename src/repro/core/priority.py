"""Thread merge-priority policies.

The paper rotates priorities round-robin every cycle: "A different
priority is assigned to each selected thread in a round robin way every
cycle" (§VI-A).  A fixed-priority variant is provided for the ablation
bench (it starves low-priority threads and biases speedups).
"""

from __future__ import annotations


class RoundRobinPriority:
    """Cycle ``t``: order = [t % n, (t % n)+1, ..., wrapping].

    ``orders`` is the full precomputed rotation table; cycle ``t`` uses
    ``orders[t % len(orders)]``.  The specialiser inlines the table into
    the generated loop (no method call per cycle); :meth:`order`
    remains for the reference loop.
    """

    name = "round-robin"

    def __init__(self, n_threads: int):
        self.n = n_threads
        # precompute all rotations; the per-cycle cost is one indexing
        self.orders = tuple(
            tuple((r + k) % n_threads for k in range(n_threads))
            for r in range(n_threads)
        )

    def order(self, cycle: int) -> tuple[int, ...]:
        return self.orders[cycle % self.n]


class FixedPriority:
    """Thread 0 always wins (ablation only)."""

    name = "fixed"

    def __init__(self, n_threads: int):
        self.orders = (tuple(range(n_threads)),)

    def order(self, cycle: int) -> tuple[int, ...]:
        return self.orders[0]


def make_priority(kind: str, n_threads: int):
    if kind == "round-robin":
        return RoundRobinPriority(n_threads)
    if kind == "fixed":
        return FixedPriority(n_threads)
    raise ValueError(f"unknown priority policy {kind!r}")
