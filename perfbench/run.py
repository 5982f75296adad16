"""End-to-end benchmark of the ``repro`` command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed command is the real CLI in a fresh process on a fresh
store, so import, trace recording, cache keys, store I/O, loop codegen
and verification, simulation and pool IPC all sit inside the wall time
a user sees.  The commands repeat for ``--seconds``, so a run takes
about the same time on a slow host as on a fast one.  The workloads,
and why each exists, are listed in ``BENCHMARK.json``.

Reported times are host-normalised.  On a shared 2-vCPU Xeon VM the
speed of the whole machine drifts by 20-40% over minutes, which no run
length averages out.  So before every set-up step and around every
command the run times ``host_probe``, a fixed pure-Python loop on each vCPU,
and scales its times by ``PROBE_REF_S`` / (mean probe time): a time is
the seconds the command would take at the reference host's speed.
Over six runs per workload this cut the spread (standard deviation
over mean) of the wall time from 10% to 3% on ``claims-warm`` and
from 9% to 5% on ``sweep-jobs2``.  The unscaled wall time and the
probe time are the traced run's ``host.raw_wall_s`` and
``host.probe_s``.  The wall time of a run is the mean over its
commands, not their median: consecutive commands fall into a fast and
a slow band, and the median of ten jumps between them.

The input is fixed: the paper's Fig. 13b matrix (8 policies x 9
workloads x {2, 4} threads = 144 cells) at ``QUICK_SCALE`` with the
program's fixed seed 12345.  The CLI takes no seed, so ``--seed`` only
names the run's scratch directory.

End-to-end metrics (normalised host time): ``wall_s`` per command;
``sim_cycles_per_s``, the simulated cycles of the matrix per wall
second (on ``claims-warm`` the cycles are served from the store);
``peak_rss_mb``, the median over commands of the largest peak RSS in
the command's process tree, pool workers included; ``setup_s``, the
median time to prepare the starting state; ``paper_gap_pts``, the
mean absolute gap between the paper's and the measured value over the
claims table of the run's results.

Correctness, checked on every run:

* each timed command's printed IPC or claims table must match the
  digest committed in ``perfbench/expected.json``; a ``claims`` exit
  status of 1 with a complete table is a verdict (some claim DIFFERS),
  not a failure;
* ``perfbench/check.py`` reads the run's store back through the public
  ``SimulationSession`` API; every cell's ``SimStats`` must match the
  committed digest and none may be missing.

A mismatch counts the cells of that command (or, for the store check,
of the whole run) as failed.

``--trace 1`` adds one command run under ``perfbench/tracer.py`` and
reports per-layer self times and counts instead of the end-to-end
metrics.  ``--record-expected`` rewrites this workload's committed
digests from the run; use it only with a change that moves simulated
results on purpose.

Scratch stores live under ``.bench_build/perfbench/`` in the checkout
and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SCRATCH = ROOT / ".bench_build" / "perfbench"

#: cells of the quick Fig. 13b matrix every workload resolves
CELLS = 144
#: a run sets up at least ``SETUP_REPS`` times and until ``SETUP_S``
#: was timed, and reports the median: an empty store takes ~0.3 s, so
#: it is prepared about seven times; a filled one takes a whole sweep,
#: so it is prepared twice
SETUP_S = 2.0
SETUP_REPS = 2
#: a single command may not take longer than this
COMMAND_TIMEOUT_S = 170.0
#: what ``host_probe`` took on the reference host (a shared 2-vCPU
#: Xeon VM, CPython 3.11); reported times are scaled to its speed
PROBE_REF_S = 0.0125


@dataclass(frozen=True)
class Workload:
    #: ``repro`` arguments; ``{store}`` is the command's fresh store
    args: tuple[str, ...]
    #: start from a store that a cold sweep of the matrix filled
    warm: bool = False


_SWEEP = ("--quick", "--jobs", "2", "--cache-dir", "{store}", "sweep")
WORKLOADS = {
    "claims-warm": Workload(
        ("--quick", "--cache-dir", "{store}", "claims"), warm=True
    ),
    "sweep-jobs2": Workload(_SWEEP),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------- processes
@dataclass
class Result:
    rc: int
    wall_s: float
    rss_mb: float
    out: str
    err: str


def clean_env() -> dict[str, str]:
    """The program's environment: no fault injection, no strict or
    verify switches (every ``REPRO_*`` variable goes), and only the
    checkout's sources on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def execute(cmd: list[str], logs: Path) -> Result:
    """Run ``cmd`` to completion and measure it: wall time from spawn
    to reap, and the largest peak RSS of the command's process tree
    (its own or a reaped pool worker's)."""
    out_path, err_path = logs.with_suffix(".out"), logs.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=clean_env(), stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(
            COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
        )
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        try:  # pool workers a crashed command left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        rc=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        out=out_path.read_text(),
        err=err_path.read_text(),
    )


def repro(args: tuple[str, ...], store: Path, logs: Path) -> Result:
    argv = [a.replace("{store}", str(store)) for a in args]
    return execute([sys.executable, "-m", "repro", *argv], logs)


# ------------------------------------------------------------ host speed
class _Node:
    __slots__ = ("key", "val")

    def __init__(self, key: int, val: int):
        self.key = key
        self.val = val


def _probe_loop() -> float:
    """Seconds of a fixed interpreter-bound loop: attribute loads,
    dict stores and lookups, integer arithmetic."""
    t0 = time.perf_counter()
    nodes = [_Node(i, i * 3) for i in range(4096)]
    table: dict[int, int] = {}
    acc = 0
    for _ in range(12):
        for n in nodes:
            table[n.key & 1023] = n.val
            acc += table.get((n.val * 7) & 1023, 0)
    return time.perf_counter() - t0


def host_probe() -> float:
    """The host's current speed: the best of three ``_probe_loop``
    times on each vCPU this process may run on, averaged over them
    (a pool command runs on all of them).  Takes ~0.1 s."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(min(_probe_loop() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


# ------------------------------------------------------------ validation
_CLAIM = re.compile(
    r"^\[(?:HOLDS|DIFFERS)\s*\] .+\n\s+paper\s+(\S+)\s+measured\s+(\S+)",
    re.M,
)


def sweep_rows(out: str) -> list[str] | None:
    """The printed IPC table, whitespace-normalised; ``None`` unless it
    has a header and one row per cell."""
    lines = [" ".join(line.split()) for line in out.splitlines()]
    lines = [line for line in lines if line]
    if not lines or not lines[0].startswith("T policy"):
        return None
    return lines[1:] if len(lines) == CELLS + 1 else None


def claims_rows(out: str) -> list[list[str]] | None:
    """The ``paper X measured Y`` pairs of a claims table; ``None``
    when the table is missing or a verdict line lacks its numbers."""
    rows = [list(m) for m in _CLAIM.findall(out)]
    verdicts = len(re.findall(r"^\[(?:HOLDS|DIFFERS)", out, re.M))
    return rows if rows and len(rows) == verdicts else None


def table_digest(wl: Workload, res: Result) -> str | None:
    """Digest of the command's printed table, or ``None`` if the
    command failed.  ``claims`` exits 1 when some claim DIFFERS: with a
    complete table that is a verdict, not a failure."""
    if "claims" in wl.args:
        rows = claims_rows(res.out) if res.rc in (0, 1) else None
    else:
        rows = sweep_rows(res.out) if res.rc == 0 else None
    if rows is None:
        return None
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def paper_gap(claims_text: str) -> float:
    """Mean absolute gap, in percentage points, between the paper's and
    the measured value over the claims that state a paper value."""
    rows = claims_rows(claims_text) or []
    gaps = [abs(float(p) - float(m)) for p, m in rows if p != "n/a"]
    if not gaps:
        raise ValueError("claims table has no paper values")
    return statistics.fmean(gaps)


# ------------------------------------------------------------------ runs
class Run:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.work = SCRATCH / f"{name}-s{seed}-{os.getpid()}"
        self.n = 0
        self.expected = json.loads(EXPECTED.read_text()).get(name, {})
        self.observed: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.probes: list[float] = []

    def path(self, label: str) -> Path:
        self.n += 1
        return self.work / f"{self.n:03d}-{label}"

    def setup(self) -> tuple[float, Path | None]:
        """Prepare the starting state (see ``SETUP_S``); return the
        median time, normalised by the probes taken before each step,
        and the prepared store a warm workload copies.

        A cold workload starts from an empty store, which the program
        creates and verifies (``cache verify``).  A warm workload starts
        from a store that a cold ``--jobs 2`` sweep of the matrix
        filled."""
        times: list[float] = []
        probes: list[float] = []
        store = None
        while len(times) < SETUP_REPS or sum(times) < SETUP_S:
            if store is not None:
                shutil.rmtree(store)
            store = self.path("setup")
            probes.append(host_probe())
            if self.wl.warm:
                res = repro(_SWEEP, store, store)
                ok = res.rc == 0
            else:
                res = repro(("--cache-dir", "{store}", "cache", "verify"),
                            store, store)
                ok = res.rc == 0 and res.out.startswith("0 ok")
            if not ok:
                raise SystemExit(
                    f"set-up failed (exit {res.rc}):\n{res.err[-2000:]}"
                )
            times.append(res.wall_s)
        setup_s = statistics.median(times) * PROBE_REF_S / statistics.fmean(
            probes
        )
        return setup_s, store if self.wl.warm else None

    def fresh_store(self, template: Path | None) -> Path:
        store = self.path("store")
        if template is not None:
            shutil.copytree(template, store)
        return store

    def judge(self, res: Result) -> None:
        """Count one command's cells; all of them fail on a table that
        is missing, garbled or not the committed one."""
        digest = table_digest(self.wl, res)
        self.observed.setdefault("table_sha256", digest or "")
        self.attempted += CELLS
        if digest is None or digest != self.expected.get("table_sha256"):
            self.failed += CELLS
            log(f"{self.name}: wrong output (exit {res.rc}):\n"
                f"{res.err[-2000:]}")

    def timed(self, seconds: float, template: Path | None):
        """Repeat the command on fresh stores for about ``seconds``,
        starting no command that would likely end more than half a
        command past them; return the results and the last command's
        store."""
        results: list[Result] = []
        store = None
        deadline = time.perf_counter() + seconds

        def fits() -> bool:
            mean = statistics.fmean(r.wall_s for r in results)
            return time.perf_counter() + mean / 2 <= deadline

        while not results or fits():
            if store is not None:
                shutil.rmtree(store)
            store = self.fresh_store(template)
            self.probes.append(host_probe())
            res = repro(self.wl.args, store, store)
            self.judge(res)
            results.append(res)
        # probes bracket every command
        self.probes.append(host_probe())
        return results, store

    def check(self, store: Path) -> dict:
        """Read ``store`` back through the library; a wrong or missing
        cell fails the whole run."""
        res = execute([sys.executable, str(HERE / "check.py"), str(store)],
                      self.path("check"))
        if res.rc != 0:
            raise SystemExit(f"store check failed:\n{res.err[-2000:]}")
        doc = json.loads(res.out.splitlines()[-1])
        self.observed["stats_sha256"] = doc["stats_sha256"]
        if (
            doc["cells"] != CELLS
            or doc["simulated"] != 0
            or doc["stats_sha256"] != self.expected.get("stats_sha256")
        ):
            log(f"{self.name}: store check mismatch: cells {doc['cells']},"
                f" re-simulated {doc['simulated']}, stats digest "
                f"{doc['stats_sha256']}")
            self.failed = self.attempted
        return doc

    def traced(self, template: Path | None) -> tuple[Result, list[dict]]:
        spans = self.path("spans")
        spans.mkdir()
        store = self.fresh_store(template)
        argv = [a.replace("{store}", str(store)) for a in self.wl.args]
        res = execute(
            [sys.executable, str(HERE / "tracer.py"), str(spans), *argv],
            spans,
        )
        self.judge(res)
        docs = [json.loads(p.read_text()) for p in spans.glob("spans-*")]
        return res, docs


# ------------------------------------------------------------ per-layer
#: layers whose metrics are reported; a dotted layer name joins its
#: metric with "_" (``cache.key_self_s``), a plain one with "."
LAYERS = (
    "compiler", "trace", "cache.key", "cache.get", "cache.put",
    "specialize", "loopcheck", "processor", "memory", "harness",
)


def layer_metrics(docs: list[dict], traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from every process's spans.  Layer totals add
    pool workers to the parent; the wall-time accounting (``other``
    and coverage) is the parent's, whose span tree spans its wall."""
    parents = [d for d in docs if d["role"] == "parent"]
    if not parents:
        raise SystemExit("the traced command left no spans")
    parent = parents[0]
    workers = [d for d in docs if d["role"] != "parent"]

    def total(field: str, layer: str, procs=docs) -> float:
        return sum(d[field].get(layer, 0) for d in procs)

    m: dict[str, tuple[float, str]] = {
        "import.wall_s": (parent["self_s"].get("import", 0.0), "s"),
    }
    for layer in LAYERS:
        sep = "_" if "." in layer else "."
        m[f"{layer}{sep}self_s"] = (total("self_s", layer), "s")
        m[f"{layer}{sep}calls"] = (total("calls", layer), "count")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cycles = total("counts", "processor.sim_cycles")
    m["trace.instructions"] = (total("counts", "trace.instructions"), "count")
    m["trace.worker_calls"] = (total("calls", "trace", workers), "count")
    m["cache.get_hit_ratio"] = (ratio(
        total("counts", "cache.get_hits"), total("calls", "cache.get")
    ), "ratio")
    hits = sum(d["memo_hits"] for d in docs)
    m["specialize.memo_hit_ratio"] = (
        ratio(hits, hits + sum(d["memo_misses"] for d in docs)), "ratio"
    )
    m["processor.sim_cycles"] = (cycles, "count")
    m["processor.host_ns_per_cycle"] = (
        1e9 * ratio(total("self_s", "processor"), cycles), "ns"
    )
    m["memory.host_ns_per_call"] = (1e9 * ratio(
        total("self_s", "memory"), total("calls", "memory")
    ), "ns")
    m["runner.parent_wait_s"] = (parent["total_s"].get("runner.wait", 0.0),
                                 "s")
    m["runner.worker_busy_s"] = (total("total_s", "runner.cell", workers),
                                 "s")
    m["runner.worker_cells"] = (total("calls", "runner.cell", workers),
                                "count")
    wall = parent["wall_s"]
    named = sum(parent["self_s"].values())
    m["other.self_s"] = (wall - named, "s")
    m["tracing.wall_s"] = (wall, "s")
    m["tracing.coverage_ratio"] = (named / wall, "ratio")
    m["tracing.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    m["tracing.absent_layers"] = (len(parent["absent"]), "count")

    # self times are disjoint by construction, so they can only exceed
    # the wall if the span stack was corrupted
    if named > wall:
        log("WARNING: layer self times exceed the traced wall")
    if named < 0.9 * wall:
        log(f"WARNING: named layers cover {named / wall:.1%} of the "
            "traced wall (< 90%)")
    if parent["absent"]:
        log(f"absent wrap points: {', '.join(parent['absent'])}")
    return m


# ------------------------------------------------------------------ main
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite this workload's committed digests")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program to benchmark: {SRC / 'repro'} is missing")
        return 2
    # bytecode is compiled once per checkout, not on every user run
    warm = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        cwd=ROOT, env=clean_env(), stdout=subprocess.DEVNULL,
    )
    if warm.returncode != 0:
        return 2

    run = Run(args.workload, args.seed)
    run.work.mkdir(parents=True)
    try:
        setup_s, template = run.setup()
        results, store = run.timed(args.seconds, template)
        wall = statistics.fmean(r.wall_s for r in results)
        probe = statistics.fmean(run.probes)
        # seconds on this host -> seconds at the reference host's speed
        norm = PROBE_REF_S / probe
        if args.trace:
            res, spans = run.traced(template)
            metrics = layer_metrics(spans, res.wall_s, wall)
            metrics["host.raw_wall_s"] = (wall, "s")
            metrics["host.probe_s"] = (probe, "s")
        doc = run.check(template or store)
        if not args.trace:
            metrics = {
                "wall_s": (wall * norm, "s"),
                "sim_cycles_per_s": (doc["sim_cycles"] / (wall * norm),
                                     "1/s"),
                "peak_rss_mb": (
                    statistics.median(r.rss_mb for r in results), "MB"
                ),
                "setup_s": (setup_s, "s"),
                "paper_gap_pts": (paper_gap(doc["claims"]), "pts"),
            }
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if args.record_expected:
        expected = json.loads(EXPECTED.read_text())
        expected[args.workload] = run.observed
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True)
                            + "\n")
        log(f"recorded expected digests for {args.workload}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
