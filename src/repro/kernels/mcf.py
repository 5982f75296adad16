"""``mcf`` stand-in (SPECint 2000 181.mcf): minimum-cost-flow network
simplex — in practice a pointer-chasing, cache-hostile, serial workload.

Character reproduced:

* a long pointer chase over a node pool (hot cycle that fits the cache)
  with a cold *streaming* auxiliary array whose lines miss on every
  pass — mixing hit- and miss-dominated accesses to land near the
  paper's IPCr/IPCp ratio (0.96 / 1.34);
* a serial ``cur = node.next`` recurrence (loads feed loads, latency 2);
* data-dependent potential updates done branch-free plus a
  data-dependent exit-class branch, as in the simplex pricing loop.
"""

from __future__ import annotations

from ..compiler.builder import KernelBuilder
from .common import prng_words, scaled


#: hot node pool: 2048 nodes x 16 B = 32 KB (cache resident)
N_NODES = 2048
#: cold array: 128 K words = 512 KB (streams through the cache)
N_COLD = 128 * 1024


def build(scale: float = 1.0) -> KernelBuilder:
    b = KernelBuilder("mcf", data_size=1 << 21)
    iters = scaled(5000, scale)

    # node pool: one random Hamiltonian cycle through the pool so the
    # chase is a single long irregular walk.  node = [next_addr, cost,
    # flow, potential]
    perm = prng_words(N_NODES, seed=0xC0FFEE, lo=0, hi=1 << 30)
    order = sorted(range(N_NODES), key=lambda k: perm[k])
    node_base = b.alloc_words(4 * N_NODES, "nodes")
    costs = prng_words(N_NODES, seed=0xFEED, lo=0, hi=1000)
    for k in range(N_NODES):
        here = order[k]
        nxt = order[(k + 1) % N_NODES]
        addr = node_base + 16 * here
        b.data.set_word(addr, node_base + 16 * nxt)
        b.data.set_word(addr + 4, costs[here])
        b.data.set_word(addr + 8, costs[(here * 7 + 1) % N_NODES])
        b.data.set_word(addr + 12, 0)

    cold_base = b.alloc_words(N_COLD, "cold")
    cold_vals = prng_words(4096, seed=0xD00D, lo=0, hi=512)
    for k in range(4096):
        b.data.set_word(cold_base + 4 * k, cold_vals[k])

    cur = b.addr(node_base + 16 * order[0])
    cold_off = b.const(0)
    acc = b.const(0)
    potential = b.const(0)

    with b.counted_loop(iters) as _i:
        # three-level chase: arc -> node -> arc -> node (serial loads,
        # latency 2 each: this recurrence is what makes real mcf IPC ~1)
        n1 = b.ldw(cur, 0, region="nodes")
        n2 = b.ldw(n1, 0, region="nodes")
        nxt = b.ldw(n2, 0, region="nodes")
        cost = b.ldw(nxt, 4, region="nodes")
        # streaming cold access: 4-byte stride => one miss per 32 B line
        cold = b.ldw_ix(cold_base, cold_off, region="cold")
        b.inc(acc, b.add(cost, cold))
        # branch-free pricing update: if cost < 500, fold it in
        pred = b.cmplt(cost, 500)
        b.inc(potential, b.mpy(pred, cost))
        # advance the cold stream, wrapping with an AND mask
        b.inc(cold_off, 4)
        b.assign(cold_off, b.and_(cold_off, 4 * N_COLD - 1))
        b.assign(cur, nxt)

    out = b.alloc_words(2, "out")
    b.stw(acc, b.addr(out), region="out")
    b.stw(potential, b.addr(out), 4, region="out")
    return b
