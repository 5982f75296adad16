"""Fault-tolerant parallel executor for the experiment matrix.

Each matrix cell is an independent deterministic simulation (its own
``random.Random(seed)``, its own caches), so cells can run on a process
pool in any order and produce bit-identical counters to a serial sweep.
Each sweep forks a pool of its own and shuts it down when it ends.
Workers get everything by fork: before the first task the parent
holds the pending cells' traces, has generated and verified their
run loops, and has installed the session's fault plan, so each
worker inherits the trace memo, the verified loop sources and the
plan.  The traces a sweep lacks are recorded on a short-lived pool of
recorders, forked before the lookups (and again before the
simulation pool, for bundles whose identity the store's fingerprint
index served), while the parent verifies the loops of the cells that
lack them; each finished bundle comes back by pickle, which rebuilds
it through its constructors, and the parent installs it in the trace
memo (:func:`_record_traces`).  A task is
the cell the parent resolved — a small picklable
:class:`~repro.engine.session.Cell` carrying policy, benchmark names,
machine config and simulation parameters — and its attempt number;
trace bundles (megabytes of flattened tables) and loop source never
cross the process boundary.  Results come back as
``{"stats": SimStats.to_dict(), "telemetry": <ledger record>}``
payloads; stats are folded into the parent session's memo and disk
cache, and the worker's telemetry record (tagged with the worker's
PID) into the parent's ledger.

Unlike a bare ``pool.map``, one sick cell cannot destroy the sweep
(``docs/robustness.md``):

* every cell is a ``submit()`` future with a per-cell timeout
  (:class:`RetryPolicy.cell_timeout`) and a bounded retry budget with
  deterministic exponential backoff;
* without a per-cell timeout the pool keeps one queued cell per
  worker (``2 × jobs`` futures in flight), so a worker that finishes
  a cell starts the next while the parent adopts the result; with a
  timeout at most ``jobs`` are in flight, so a deadline starts at
  about the time its cell starts;
* a worker crash (``BrokenProcessPool``) respawns the pool and
  re-enqueues the in-flight cells — a crash is never attributable to
  one cell, so nobody *fails* on crash evidence alone (the oldest
  ``jobs`` in-flight cells, the ones running, have their attempt
  numbers advance, so attempt-matched transient faults make progress;
  cells still queued behind them are refunded);
  a cell that trips its own timeout *is* attributable and can exhaust
  its budget; after :attr:`RetryPolicy.pool_death_limit` pool deaths
  the sweep degrades to in-process execution, where every remaining
  cell gets an attributable attempt and persistent crashers are
  finally convicted;
* a cell that exhausts its budget becomes a recorded
  :class:`CellFailure` (category, attempts, tracebacks) in
  ``session.failures``, the telemetry ledger (``source="failed"``) and
  the sweep journal — not an exception — unless the failure count
  exceeds :attr:`RetryPolicy.max_failures`, which aborts the sweep
  with :class:`SweepAborted` after recording what it has;
* results that did complete are adopted (memo + store + journal) the
  moment their future resolves, so an interrupt loses nothing that
  finished.

The fault-free path is bit-identical to the pre-fault-tolerance
engine: same simulations, same adoption order effects, same telemetry
sources.
"""

from __future__ import annotations

import logging
import os
import time
import traceback as tb_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass

from ..pipeline.stats import SimStats
from . import faults

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance knobs for one sweep (``docs/robustness.md``)."""

    #: seconds a pooled cell may run before its worker is declared hung
    #: (pool is killed + respawned, the cell re-enqueued or failed);
    #: ``None`` disables timeouts.  Serial/in-process cells cannot be
    #: preempted and ignore this.
    cell_timeout: float | None = None
    #: retry budget per cell: a cell may run ``retries + 1`` times
    retries: int = 2
    #: base of the deterministic exponential backoff between a cell's
    #: attempts (attempt *k* waits ``backoff_s * 2**(k-1)``); other
    #: cells keep executing during the wait
    backoff_s: float = 0.25
    #: recorded failures tolerated before the sweep aborts with
    #: :class:`SweepAborted`; ``None`` tolerates any number (the
    #: completed cells and the journal are the product), ``0`` is
    #: strict mode (first failure aborts)
    max_failures: int | None = None
    #: pool respawns tolerated before degrading to in-process execution
    pool_death_limit: int = 3


DEFAULT_RETRY = RetryPolicy()


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted its retry budget."""

    spec: tuple
    cell: str
    #: ``"crash"`` (worker death / injected crash), ``"timeout"``
    #: (per-cell deadline), or ``"error"`` (simulation raised)
    category: str
    attempts: int
    error: str
    tracebacks: tuple[str, ...] = ()


class SweepAborted(RuntimeError):
    """Raised when recorded failures exceed ``max_failures``; carries
    every failure recorded up to the abort."""

    def __init__(self, failures: list[CellFailure]):
        self.failures = list(failures)
        worst = ", ".join(f.cell for f in self.failures[:4])
        more = len(self.failures) - 4
        super().__init__(
            f"sweep aborted: {len(self.failures)} cell(s) failed "
            f"({worst}{f', +{more} more' if more > 0 else ''})"
        )


def cell_label(spec: tuple) -> str:
    """Human/journal/fault-matcher id of one cell:
    ``policy/workload/nT[/memory][/machine]``."""
    policy, workload, n_threads, *coords = spec
    w = workload if isinstance(workload, str) else "+".join(workload)
    return "/".join(
        [str(policy), w, str(n_threads), *(str(c) for c in coords if c)]
    )


#: One worker task: ``(cell, attempt)``.  The
#: :class:`~repro.engine.session.Cell` is simulated as received; its
#: label and ``attempt`` drive deterministic fault injection
#: (:mod:`repro.engine.faults`).
_CellPayload = tuple


def _simulate_cell(payload: _CellPayload) -> dict:
    """Pool worker: run one matrix cell, return serialized stats plus
    the cell's telemetry record (stamped with this worker's PID).

    An ordinary simulation error comes back as an ``{"error": ...}``
    payload (category, message, traceback) instead of an unpicklable
    exception, so the parent can charge the attempt and retry; only a
    real crash (or injected ``os._exit``) breaks the pool.
    """
    cell, attempt = payload
    faults.begin_cell(cell.label, attempt)
    try:
        faults.maybe_crash_or_hang(cell.label, attempt)
        t0 = time.perf_counter()
        stats, proc = cell.simulate()
    except Exception as e:
        return {"error": {
            "category": "error",
            "message": f"{type(e).__name__}: {e}",
            "traceback": tb_module.format_exc(),
        }}
    finally:
        faults.end_cell()
    telemetry = cell.telemetry(
        "simulated", time.perf_counter() - t0, proc.spec_seconds,
        worker=os.getpid(),
    )
    log.debug(
        "simulated %s / %s / %dT (%.0f ms)",
        cell.policy.name, "+".join(cell.members), cell.n_threads,
        1e3 * telemetry["wall_s"],
    )
    return {"stats": stats.to_dict(), "telemetry": telemetry}


def _kill_pool(pool) -> None:
    """Terminate a pool whose workers may be hung (a plain shutdown
    would join them for ever)."""
    procs = getattr(pool, "_processes", None) or {}
    for p in list(procs.values()):
        try:
            p.terminate()
        except Exception:  # repro-lint: ignore[silent-except]
            pass  # best-effort: the process may already be dead
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # repro-lint: ignore[silent-except]
        pass  # best-effort: the executor may already be broken


class _MatrixRun:
    """State of one fault-tolerant matrix execution, keyed by cell."""

    def __init__(self, session, retry: RetryPolicy):
        self.session = session
        self.retry = retry
        self.journal = session.journal
        self.results: dict[tuple, SimStats] = {}
        self.failures: list[CellFailure] = []
        self.attempts: dict = {}
        self.tracebacks: dict = {}
        self.not_before: dict = {}

    # ------------------------------------------------------- accounting
    def charge(self, cell) -> int:
        self.attempts[cell] = self.attempts.get(cell, 0) + 1
        return self.attempts[cell]

    def refund(self, cell) -> None:
        self.attempts[cell] = max(0, self.attempts.get(cell, 1) - 1)

    def exhausted(self, cell) -> bool:
        return self.attempts.get(cell, 0) > self.retry.retries

    def note_error(self, cell, category: str, message: str,
                   traceback: str | None = None) -> None:
        entry = f"[attempt {self.attempts.get(cell, 1)}: {category}] " + (
            traceback or message
        )
        self.tracebacks.setdefault(cell, []).append(entry)
        log.warning(
            "cell %s attempt %d failed (%s): %s",
            cell.label, self.attempts.get(cell, 1), category, message,
        )

    def backoff(self, cell) -> None:
        """Schedule the cell's next attempt (deterministic exponential
        backoff); pooled execution keeps other cells running while this
        one waits."""
        used = self.attempts.get(cell, 1)
        delay = self.retry.backoff_s * (2 ** (used - 1))
        if delay > 0:
            self.not_before[cell] = time.monotonic() + delay

    def done(self, cell, stats: SimStats, key: str | None,
             source: str) -> None:
        """Record one completed cell: its result, and its journal line
        (``source`` is ``"simulated"`` or ``"cached"``) under the store
        key its resolution derived (a memo hit derives it here)."""
        if self.journal is not None:
            self.journal.record_done(
                key or self.session._disk_key(cell), cell.label, source
            )
        self.results[cell.spec] = stats

    def adopt(self, cell, stats: SimStats, attempt: int,
              telemetry: dict) -> None:
        """Fold one cell a pool worker simulated into the session (memo
        + store + journal + the worker's telemetry record) the moment
        it completes."""
        session = self.session
        faults.begin_cell(cell.label, attempt)  # store faults key off cells
        try:
            key = session._adopt(cell, stats)
        finally:
            faults.end_cell()
        session.telemetry.adopt(telemetry)
        session.simulations += 1
        self.done(cell, stats, key, "simulated")

    def fail(self, cell, category: str, message: str) -> None:
        """Record one exhausted cell; abort the sweep if the failure
        budget is spent."""
        session = self.session
        failure = CellFailure(
            spec=cell.spec,
            cell=cell.label,
            category=category,
            attempts=self.attempts.get(cell, 1),
            error=message,
            tracebacks=tuple(self.tracebacks.get(cell, ())),
        )
        self.failures.append(failure)
        session.failures.append(failure)
        # a source="failed" ledger record carrying the error category
        # and attempt count (surfaced by the sweep digest and `repro
        # stats`)
        session.telemetry.record(**cell.telemetry(
            "failed", error=category, attempts=failure.attempts
        ))
        if self.journal is not None:
            self.journal.record_failed(
                session._disk_key(cell), failure.cell,
                category, failure.attempts, message,
            )
        log.error(
            "cell %s FAILED after %d attempt(s): %s: %s",
            failure.cell, failure.attempts, category, message,
        )
        limit = self.retry.max_failures
        if limit is not None and len(self.failures) > limit:
            if self.journal is not None:
                self.journal.checkpoint(
                    "aborted", failures=len(self.failures),
                    completed=len(self.results),
                )
            raise SweepAborted(self.failures)


def _run_serial(run: _MatrixRun, cells: list) -> None:
    """In-process execution with the same retry/record semantics as the
    pool (also the degraded mode after repeated pool deaths).  Per-cell
    timeouts cannot preempt in-process code and do not apply.  A cell
    whose run loop fails verification fails on its first attempt:
    generation is deterministic, so a retry would be rejected again."""
    session, retry = run.session, run.retry
    for cell in cells:
        if cell.spec in run.results:
            continue
        while True:
            attempt = run.charge(cell)
            if attempt > 1:
                delay = retry.backoff_s * (2 ** (attempt - 2))
                if delay > 0:
                    time.sleep(delay)
            faults.begin_cell(cell.label, attempt)
            try:
                faults.maybe_crash_or_hang(cell.label, attempt)
                stats, source, key = session._run_cell(cell)
            except faults.InjectedCrash as e:
                run.note_error(cell, "crash", str(e))
                category, message = "crash", str(e)
            except Exception as e:
                from ..analysis.loopcheck import LoopVerificationError

                message = f"{type(e).__name__}: {e}"
                run.note_error(cell, "error", message,
                               tb_module.format_exc())
                category = "error"
                if isinstance(e, LoopVerificationError):
                    # the same shape is rejected on every attempt
                    run.fail(cell, category, message)
                    break
            else:
                run.done(
                    cell, stats, key,
                    "simulated" if source == "simulated" else "cached",
                )
                break
            finally:
                faults.end_cell()
            if run.exhausted(cell):
                run.fail(cell, category, message)
                break


def _verify_loop(cell) -> None:
    """Generate and verify the cell's run loop in this process (memoised
    by loop shape), so pool workers inherit it."""
    from ..pipeline import specialize

    specialize.verified_source(
        cell.policy, cell.cfg, cell.params, cell.n_threads,
        len(cell.members),
    )


def _record_bundle(key: tuple):
    """Recorder task: compile and record the kernel of one trace-memo
    key.  The bundle is returned by pickle, which rebuilds it through
    its constructors; it keeps no compiled program."""
    from ..kernels import suite

    return suite._record(key)


def _record_traces(session, cells: list, jobs: int, bundles: bool) -> None:
    """Record the traces ``cells`` lack on a short-lived fork pool of
    recorders while this process verifies the loops of the cells that
    lack one.

    A trace is lacking when the trace memo holds no bundle for it and,
    unless ``bundles`` (the cells simulate and need every bundle),
    neither the identity memo nor the store's fingerprint index serves
    its identity.  With fewer than two lacking this does nothing and
    the caller records on demand, as it also does for the traces a
    dead recorder left.  Each finished bundle is installed as
    :func:`~repro.kernels.suite.get_trace` installs what it records
    (memo, ``traces_recorded``, index entry)."""
    from ..kernels import suite

    store = session.cache
    lacking: dict = {}  # trace-memo keys, in the cells' order
    verify = []  # the cells that lack a trace
    for cell in cells:
        found = False
        for name in cell.members:
            key = suite._memo_key(name, cell.kernel_scale, cell.cfg)
            if key in suite._trace_cache:
                continue
            if (
                key in lacking or bundles
                or suite._served_identity(key, store) is None
            ):
                lacking[key] = found = True
        if found:
            verify.append(cell)
    if len(lacking) < 2:
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # imported before the fork, so each recorder inherits the compiler
    # and the VM instead of importing them
    from ..compiler import pipeline  # noqa: F401
    from ..pipeline import trace  # noqa: F401

    pool = ProcessPoolExecutor(
        min(jobs, len(lacking)),
        mp_context=multiprocessing.get_context("fork"),
    )
    try:
        todo = {pool.submit(_record_bundle, key): key for key in lacking}
        for cell in verify:
            _verify_loop(cell)
        while todo:
            done, _ = wait(todo, return_when=FIRST_COMPLETED)
            # every bundle that finished is kept before a dead
            # recorder's future raises
            for fut in sorted(done, key=lambda f: f.exception() is not None):
                suite._install(todo.pop(fut), fut.result(), store)
    except BrokenProcessPool:
        # the caller records what is still lacking on demand
        log.warning(
            "a trace recorder died; the remaining traces are recorded "
            "in this process"
        )
    finally:
        pool.shutdown(cancel_futures=True)


def _run_pooled(run: _MatrixRun, pending: list, jobs: int) -> None:
    """Drive ``pending`` cells through a self-healing process pool that
    lives for this call.  Its workers are forked (and respawned) from
    this process, so they inherit whatever it prepared for them."""
    # multiprocessing is loaded only by a sweep that has cells to ship
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # imported before the fork, so workers inherit the simulator's
    # modules instead of importing them each
    from ..pipeline import processor, specialize  # noqa: F401

    session, retry = run.session, run.retry
    # workers have no store and run no loopcheck: they inherit this
    # process's trace memo and verified loop sources, so every bundle
    # and loop they need is built here (once each: both are memoised)
    _record_traces(session, pending, jobs, bundles=True)
    for cell in pending:
        cell.bundles(session.cache)
        _verify_loop(cell)
    # fork, not the platform default (forkserver on Linux from Python
    # 3.14): a worker that did not inherit the parent's traces and
    # loops would record and verify them again
    context = multiprocessing.get_context("fork")

    def spawn():
        return ProcessPoolExecutor(
            jobs, mp_context=context, initializer=faults.enter_worker
        )

    queue: deque = deque(pending)
    pool = spawn()
    pool_deaths = 0
    # without a deadline to keep honest, one queued cell per worker
    # lets a worker start its next cell while the parent adopts the
    # last one; with one, a submitted cell must be (approximately) a
    # *running* cell, so its timeout clock does not start while queued
    cap = jobs if retry.cell_timeout is not None else 2 * jobs
    inflight: dict = {}          # future -> cell, in submission order
    deadlines: dict = {}         # future -> monotonic deadline
    # the pool phase, first submit to last adoption, and the worker
    # seconds its adopted cells took (the digest's ``pool busy``)
    phase_start: float | None = None
    phase_end: float | None = None
    busy_s = 0.0

    def submit(cell) -> bool:
        nonlocal phase_start
        attempt = run.charge(cell)
        try:
            fut = pool.submit(_simulate_cell, (cell, attempt))
        except BrokenProcessPool:
            run.refund(cell)
            queue.appendleft(cell)
            return False
        if phase_start is None:
            phase_start = time.monotonic()
        inflight[fut] = cell
        if retry.cell_timeout is not None:
            deadlines[fut] = time.monotonic() + retry.cell_timeout
        return True

    def on_pool_death(kind: str, culprits: list,
                      bystanders: list = ()) -> None:
        """Handle one pool death and respawn (or signal degrade).

        ``culprits`` were plausibly at fault: a timed-out cell is
        attributable (its own deadline expired) and may exhaust its
        budget here; a crash is *not* attributable to any one cell, so
        crash culprits are charged (their attempt number advances —
        transient attempt-matched faults make progress) but never
        failed on crash evidence alone — a persistent crasher is
        convicted by the attributable in-process attempt after
        ``pool_death_limit`` deaths degrade the sweep.  ``bystanders``
        (cells sharing a pool with a hung worker, or queued behind the
        running cells of a crashed one) get their attempt refunded and
        re-enqueued."""
        nonlocal pool, pool_deaths
        pool_deaths += 1
        _kill_pool(pool)
        for cell in culprits:
            run.note_error(
                cell, kind,
                f"worker pool died ({kind}) with the cell aboard",
            )
            if kind != "crash" and run.exhausted(cell):
                run.fail(
                    cell, kind,
                    f"cell was aboard {run.attempts[cell]} pool "
                    f"death(s) ({kind})",
                )
            else:
                run.backoff(cell)
                queue.append(cell)
        for cell in bystanders:
            run.refund(cell)
            queue.append(cell)
        inflight.clear()
        deadlines.clear()
        if pool_deaths >= retry.pool_death_limit:
            log.warning(
                "pool died %d times; degrading to in-process execution "
                "for the %d remaining cell(s)",
                pool_deaths, len(queue),
            )
            pool = None
        else:
            log.warning(
                "pool died (%s); respawned (%d/%d deaths tolerated)",
                kind, pool_deaths, retry.pool_death_limit,
            )
            pool = spawn()

    def on_crash() -> None:
        """A worker died: the executor dispatches FIFO, so the oldest
        ``jobs`` in-flight cells were the running ones and the rest
        were still queued behind them."""
        aboard = list(inflight.values())
        on_pool_death("crash", aboard[:jobs], aboard[jobs:])

    ok = False
    try:
        while queue or inflight:
            if pool is None:  # degraded: no more pools this sweep
                _run_serial(run, list(queue))
                queue.clear()
                break
            now = time.monotonic()
            blocked_until: list[float] = []
            while queue and len(inflight) < cap:
                cell = queue[0]
                nb = run.not_before.get(cell)
                if nb is not None and nb > now:
                    # head cell is backing off; rotate it away so it
                    # cannot starve the rest of the queue
                    blocked_until.append(nb)
                    queue.rotate(-1)
                    if all(
                        run.not_before.get(c, 0) > now for c in queue
                    ):
                        break
                    continue
                queue.popleft()
                run.not_before.pop(cell, None)
                if not submit(cell):
                    # the pool broke between waits: everything already
                    # in flight rode it down (the cell we tried to
                    # submit was refunded and re-queued by submit())
                    on_crash()
                    break
                now = time.monotonic()
            if not inflight:
                if blocked_until:
                    time.sleep(
                        max(0.0, min(blocked_until) - time.monotonic())
                    )
                continue
            timeout = None
            waits = list(deadlines.values()) + blocked_until
            if waits:
                timeout = max(0.0, min(waits) - time.monotonic())
            done, _ = wait(
                list(inflight), timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # a deadline (or a backoff) expired with nothing
                # finished; hunt for hung workers
                now = time.monotonic()
                expired = [
                    f for f, dl in deadlines.items() if dl <= now
                ]
                if expired:
                    hung = [inflight[f] for f in expired]
                    bystanders = [
                        c for f, c in inflight.items()
                        if f not in expired
                    ]
                    log.warning(
                        "cell(s) %s exceeded the %.1fs per-cell "
                        "timeout; killing the pool",
                        ", ".join(c.label for c in hung),
                        retry.cell_timeout,
                    )
                    on_pool_death("timeout", hung, bystanders)
                continue
            broken = False
            for fut in done:
                cell = inflight[fut]
                try:
                    result = fut.result()
                except BrokenProcessPool:
                    # stays in flight: on_crash() needs its place in
                    # the submission order
                    broken = True
                    continue
                except Exception as e:  # pickling error etc.
                    result = {"error": {
                        "category": "error",
                        "message": f"{type(e).__name__}: {e}",
                    }}
                del inflight[fut]
                deadlines.pop(fut, None)
                if "error" in result:
                    err = result["error"]
                    run.note_error(
                        cell, err["category"], err["message"],
                        err.get("traceback"),
                    )
                    if run.exhausted(cell):
                        run.fail(cell, err["category"], err["message"])
                    else:
                        run.backoff(cell)
                        queue.append(cell)
                    continue
                run.adopt(
                    cell, SimStats.from_dict(result["stats"]),
                    run.attempts.get(cell, 1), result["telemetry"],
                )
                phase_end = time.monotonic()
                busy_s += result["telemetry"].get("wall_s", 0.0)
            if broken:
                # one worker death breaks every outstanding future;
                # everything still inflight rode the same dead pool
                on_crash()
        ok = True
    finally:
        if phase_start is not None and phase_end is not None:
            session.telemetry.note_pool_phase(
                jobs, phase_end - phase_start, busy_s
            )
        # an abort/interrupt may strand running workers, so the pool
        # is killed rather than joined
        if pool is not None:
            if ok:
                pool.shutdown()
            else:
                _kill_pool(pool)


def run_matrix(
    session,
    specs: list[tuple],
    jobs: int = 1,
    resume: bool = False,
) -> dict[tuple, SimStats]:
    """Execute ``specs`` — (policy, workload, n_threads) triples,
    quadruples with a memory-preset name appended, or quintuples with
    (memory-preset-or-None, machine-scenario) appended — through
    ``session``, fanning cache misses out over ``jobs`` processes.
    Each spec is resolved once, into the
    :class:`~repro.engine.session.Cell` every later step uses.

    Serial (``jobs <= 1``) runs each cell in-process.  Parallel first
    resolves every cell against the memo/disk cache in-process, then
    ships only the misses to the pool; finished cells are adopted
    into the session *as they complete* so a subsequent sweep (or
    figure generation, or an interrupted run's journal) sees them.

    Both paths run under the session's :class:`RetryPolicy`: cells
    retry with backoff, exhausted cells land in ``session.failures``
    (and the sweep journal) instead of raising, and ``max_failures``
    bounds how many the sweep tolerates.  ``resume=True`` additionally
    diffs the matrix against the journal first and logs the resume
    plan (the store probe alone already guarantees completed cells are
    not re-simulated).
    """
    # duplicate specs (e.g. `--threads 2 2`) would each miss the cache
    # before any result lands, costing a redundant pool simulation
    cells = [session.cell(*s, spec=s) for s in dict.fromkeys(specs)]
    run = _MatrixRun(session, session.retry)
    journal = session.journal
    if resume and journal is not None:
        from .journal import resume_plan

        plan = resume_plan(
            journal.load(),
            [(session._disk_key(c), c.spec) for c in cells],
        )
        log.info(
            "resume: %d cells requested — %d done in journal, %d "
            "previously failed (re-scheduled), %d never attempted",
            len(cells), len(plan["done"]), len(plan["failed"]),
            len(plan["missing"]),
        )
    if journal is not None:
        journal.checkpoint(
            "sweep-start", cells=len(cells), jobs=jobs, resume=resume
        )
    prev_plan = faults.active()
    faults.install(session.fault_plan)
    outcome = "sweep-interrupted"
    try:
        if jobs <= 1:
            _run_serial(run, cells)
        else:
            # a cold sweep records the traces its result keys need on
            # every CPU, not one by one in the lookups below
            _record_traces(
                session,
                [c for c in cells if c.memo_key not in session._memo],
                jobs, bundles=False,
            )
            pending = []
            for cell in cells:
                stats, source, key = session._lookup(cell)
                if stats is None:
                    pending.append(cell)
                    continue
                # the pool path bypasses session._run_cell, so hits
                # land in the ledger here (wall time is the lookup's,
                # effectively zero)
                session.telemetry.record(**cell.telemetry(source))
                run.done(cell, stats, key, "cached")
            log.debug(
                "matrix: %d cells, %d cached, %d to simulate on %d "
                "workers",
                len(cells), len(run.results), len(pending), jobs,
            )
            if pending:
                _run_pooled(run, pending, jobs)
        outcome = "sweep-complete"
    except SweepAborted:
        outcome = "sweep-aborted"
        raise
    finally:
        faults.install(prev_plan)
        if journal is not None:
            # the terminal checkpoint names the real outcome — an
            # interrupted sweep must not journal itself as complete
            journal.checkpoint(
                outcome, completed=len(run.results),
                failed=len(run.failures),
            )
    return run.results
