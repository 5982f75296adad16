"""Fault-tolerant parallel executor for the experiment matrix.

Each matrix cell is an independent deterministic simulation (its own
``random.Random(seed)``, its own caches), so cells can run on a process
pool in any order and produce bit-identical counters to a serial sweep.
Workers receive only small picklable specs — (policy name, benchmark
names, thread count, scale, machine config) — and rebuild traces
locally via the per-process trace memo in :mod:`repro.kernels.suite`;
trace bundles themselves (megabytes of flattened tables) never cross
the process boundary.  Results come back as
``{"stats": SimStats.to_dict(), "telemetry": <ledger record>}``
payloads; stats are folded into the parent session's memo and disk
cache, and the worker's telemetry record (tagged with the worker's
PID) into the parent's ledger.

Unlike a bare ``pool.map``, one sick cell cannot destroy the sweep
(``docs/robustness.md``):

* every cell is a ``submit()`` future with a per-cell timeout
  (:class:`RetryPolicy.cell_timeout`) and a bounded retry budget with
  deterministic exponential backoff;
* a worker crash (``BrokenProcessPool``) respawns the pool and
  re-enqueues the in-flight cells — a crash is never attributable to
  one cell, so nobody *fails* on crash evidence alone (attempt numbers
  still advance, so attempt-matched transient faults make progress);
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
import time
import traceback as tb_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

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
    workload = spec[1]
    w = workload if isinstance(workload, str) else "+".join(workload)
    parts = [str(spec[0]), w, str(spec[2])]
    if len(spec) > 3 and spec[3]:
        parts.append(str(spec[3]))
    if len(spec) > 4 and spec[4]:
        parts.append(str(spec[4]))
    return "/".join(parts)


#: One worker task: everything needed to reproduce a cell from scratch.
#: (policy_name, member_names, n_threads, scale, cfg, reference,
#: run_loop, spec_src, cell_id, attempt, fault_plan) — the cfg already
#: carries the cell's machine- and memory-scenario coordinates and the
#: scale its machine-rescaled timeslice; ``reference``/``run_loop``
#: forward the session's run-loop choice (results are bit-identical
#: across tiers, but the session must honour its contract);
#: ``spec_src`` is the parent's pre-warmed ``(loop_key, source)``
#: specialisation payload, or ``None`` — compiled code objects do not
#: pickle, so workers ship *source* and compile locally; ``cell_id`` /
#: ``attempt`` / ``fault_plan`` drive deterministic fault injection
#: (:mod:`repro.engine.faults`).
_CellPayload = tuple


def _pool_warm_init() -> None:
    """Pool-worker initializer: pre-import the heavy modules (numpy,
    the simulator, the specialiser) so the first task a worker
    receives pays no import tax."""
    import numpy  # noqa: F401

    from ..pipeline import processor, specialize  # noqa: F401


def _simulate_cell(payload: _CellPayload) -> dict:
    """Pool worker: run one matrix cell, return serialized stats plus
    the cell's telemetry record (stamped with this worker's PID).

    An ordinary simulation error comes back as an ``{"error": ...}``
    payload (category, message, traceback) instead of an unpicklable
    exception, so the parent can charge the attempt and retry; only a
    real crash (or injected ``os._exit``) breaks the pool.
    """
    (policy_name, members, n_threads, scale, cfg, reference, run_loop,
     spec_src, cell_id, attempt, fault_plan) = payload
    # Import here so fork-less start methods (spawn) stay cheap until
    # a task actually runs.
    from .session import SimulationSession

    faults.install(fault_plan, in_worker=True)
    faults.begin_cell(cell_id, attempt)
    try:
        faults.maybe_crash_or_hang(cell_id, attempt)
        if spec_src is not None:
            from ..pipeline import specialize

            specialize.adopt_source(*spec_src)
        session = SimulationSession(
            scale=scale, cfg=cfg, reference=reference, run_loop=run_loop
        )
        stats = session.run(policy_name, members, n_threads)
    except Exception as e:
        return {"error": {
            "category": "error",
            "message": f"{type(e).__name__}: {e}",
            "traceback": tb_module.format_exc(),
        }}
    finally:
        faults.end_cell()
    # the run just recorded exactly one ledger entry; ship it home so
    # the parent's telemetry covers pooled cells too
    telemetry = session.telemetry.records[-1]
    log.debug(
        "simulated %s / %s / %dT (%s loop, %.0f ms)",
        policy_name, "+".join(members), n_threads,
        telemetry.get("loop_used"), 1e3 * telemetry.get("wall_s", 0.0),
    )
    return {"stats": stats.to_dict(), "telemetry": telemetry}


# --------------------------------------------------------------- helpers
def _payload_base(session, spec) -> tuple:
    """The attempt-independent part of one cell's worker payload."""
    memory = spec[3] if len(spec) > 3 else None
    machine = spec[4] if len(spec) > 4 else None
    params = session.params(machine)
    # pre-warm the specialised-loop source once per distinct cell
    # shape in the parent (the generator memoises by loop key, so
    # repeated shapes are free) and ship it as text
    spec_src = session.prewarm_specialization(
        spec[0], spec[1], spec[2], memory, machine
    )
    return (
        spec[0],
        session.workload_members(spec[1]),
        spec[2],
        # the machine scenario may rescale the timeslice; the worker
        # rebuilds its params from this scale
        replace(session.scale, timeslice=params.timeslice),
        session.resolve_cfg(memory, machine),
        session.reference,
        session.run_loop,
        spec_src,
    )


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
    """State of one fault-tolerant matrix execution."""

    def __init__(self, session, retry: RetryPolicy):
        self.session = session
        self.retry = retry
        self.journal = session.journal
        self.results: dict[tuple, SimStats] = {}
        self.failures: list[CellFailure] = []
        self.attempts: dict[tuple, int] = {}
        self.tracebacks: dict[tuple, list[str]] = {}
        self.not_before: dict[tuple, float] = {}

    # ------------------------------------------------------- accounting
    def charge(self, spec) -> int:
        self.attempts[spec] = self.attempts.get(spec, 0) + 1
        return self.attempts[spec]

    def refund(self, spec) -> None:
        self.attempts[spec] = max(0, self.attempts.get(spec, 1) - 1)

    def exhausted(self, spec) -> bool:
        return self.attempts.get(spec, 0) > self.retry.retries

    def note_error(self, spec, category: str, message: str,
                   traceback: str | None = None) -> None:
        entry = f"[attempt {self.attempts.get(spec, 1)}: {category}] " + (
            traceback or message
        )
        self.tracebacks.setdefault(spec, []).append(entry)
        log.warning(
            "cell %s attempt %d failed (%s): %s",
            cell_label(spec), self.attempts.get(spec, 1), category,
            message,
        )

    def backoff(self, spec) -> None:
        """Schedule the cell's next attempt (deterministic exponential
        backoff); pooled execution keeps other cells running while this
        one waits."""
        used = self.attempts.get(spec, 1)
        delay = self.retry.backoff_s * (2 ** (used - 1))
        if delay > 0:
            self.not_before[spec] = time.monotonic() + delay

    def adopt(self, spec, stats: SimStats, attempt: int,
              telemetry: dict) -> None:
        """Fold one cell a pool worker simulated into the session (memo
        + store + journal + the worker's telemetry record) the moment
        it completes."""
        session = self.session
        cell = cell_label(spec)
        faults.begin_cell(cell, attempt)  # store faults key off cells
        try:
            session.adopt(
                spec[0], spec[1], spec[2], stats,
                spec[3] if len(spec) > 3 else None,
                spec[4] if len(spec) > 4 else None,
            )
        finally:
            faults.end_cell()
        session.telemetry.adopt(telemetry)
        session.simulations += 1
        if self.journal is not None:
            self.journal.record_done(
                session.journal_key(spec), cell, "simulated"
            )
        self.results[spec] = stats

    def fail(self, spec, category: str, message: str) -> None:
        """Record one exhausted cell; abort the sweep if the failure
        budget is spent."""
        failure = CellFailure(
            spec=spec,
            cell=cell_label(spec),
            category=category,
            attempts=self.attempts.get(spec, 1),
            error=message,
            tracebacks=tuple(self.tracebacks.get(spec, ())),
        )
        self.failures.append(failure)
        self.session.failures.append(failure)
        self.session.record_failure(spec, failure)
        if self.journal is not None:
            self.journal.record_failed(
                self.session.journal_key(spec), failure.cell,
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


def _run_serial(run: _MatrixRun, specs: list[tuple]) -> None:
    """In-process execution with the same retry/record semantics as the
    pool (also the degraded mode after repeated pool deaths).  Per-cell
    timeouts cannot preempt in-process code and do not apply."""
    session, retry = run.session, run.retry
    for spec in specs:
        if spec in run.results:
            continue
        while True:
            attempt = run.charge(spec)
            if attempt > 1:
                delay = retry.backoff_s * (2 ** (attempt - 2))
                if delay > 0:
                    time.sleep(delay)
            cell = cell_label(spec)
            before = session.simulations
            faults.begin_cell(cell, attempt)
            try:
                faults.maybe_crash_or_hang(cell, attempt)
                stats = session.run(*spec)
            except faults.InjectedCrash as e:
                run.note_error(spec, "crash", str(e))
                category, message = "crash", str(e)
            except Exception as e:
                message = f"{type(e).__name__}: {e}"
                run.note_error(spec, "error", message,
                               tb_module.format_exc())
                category = "error"
            else:
                run.results[spec] = stats
                if run.journal is not None:
                    run.journal.record_done(
                        session.journal_key(spec), cell,
                        "simulated" if session.simulations > before
                        else "cached",
                    )
                break
            finally:
                faults.end_cell()
            if run.exhausted(spec):
                run.fail(spec, category, message)
                break


def _spec_coords(spec: tuple) -> tuple:
    """(memory, machine) coordinates of one sweep spec."""
    return (
        spec[3] if len(spec) > 3 else None,
        spec[4] if len(spec) > 4 else None,
    )


def _materialise_bundles(session, specs: list[tuple]) -> None:
    """Build the trace bundles of cells about to simulate in this
    process's memo, loading them from the store (or recording them).
    Result keys come from the fingerprint index without bundles, and
    pool workers have no store: they inherit the memo when the pool
    forks, so a bundle left to a worker would re-run the functional VM
    there."""
    for spec in specs:
        _, machine = _spec_coords(spec)
        session._bundles(session.workload_members(spec[1]), machine)


def _run_pooled(run: _MatrixRun, pending: list[tuple], jobs: int) -> None:
    """Drive ``pending`` cells through a self-healing process pool."""
    session, retry = run.session, run.retry
    queue: deque[tuple] = deque(pending)
    # the pool is session-owned and survives this sweep: consecutive
    # sweep() calls on one session reuse warm workers (numpy + the
    # simulator pre-imported by _pool_warm_init)
    pool = session._ensure_pool(jobs)
    pool_deaths = 0
    inflight: dict = {}          # future -> spec
    deadlines: dict = {}         # future -> monotonic deadline
    fault_plan = session.fault_plan.encode()

    def submit(spec) -> bool:
        attempt = run.charge(spec)
        payload = (
            *_payload_base(session, spec),
            cell_label(spec), attempt, fault_plan,
        )
        try:
            fut = pool.submit(_simulate_cell, payload)
        except BrokenProcessPool:
            run.refund(spec)
            queue.appendleft(spec)
            return False
        inflight[fut] = spec
        if retry.cell_timeout is not None:
            deadlines[fut] = time.monotonic() + retry.cell_timeout
        return True

    def on_pool_death(kind: str, culprits: list[tuple],
                      bystanders: list[tuple] = ()) -> None:
        """Handle one pool death and respawn (or signal degrade).

        ``culprits`` were plausibly at fault: a timed-out cell is
        attributable (its own deadline expired) and may exhaust its
        budget here; a crash is *not* attributable to any one cell, so
        crash culprits are charged (their attempt number advances —
        transient attempt-matched faults make progress) but never
        failed on crash evidence alone — a persistent crasher is
        convicted by the attributable in-process attempt after
        ``pool_death_limit`` deaths degrade the sweep.  ``bystanders``
        (cells sharing a pool with a hung worker) get their attempt
        refunded and re-enqueued."""
        nonlocal pool, pool_deaths
        pool_deaths += 1
        _kill_pool(pool)
        session._discard_pool()
        for spec in culprits:
            run.note_error(
                spec, kind,
                f"worker pool died ({kind}) with the cell aboard",
            )
            if kind != "crash" and run.exhausted(spec):
                run.fail(
                    spec, kind,
                    f"cell was aboard {run.attempts[spec]} pool "
                    f"death(s) ({kind})",
                )
            else:
                run.backoff(spec)
                queue.append(spec)
        for spec in bystanders:
            run.refund(spec)
            queue.append(spec)
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
            pool = session._ensure_pool(jobs)

    ok = False
    try:
        while queue or inflight:
            if pool is None:  # degraded: no more pools this sweep
                _run_serial(run, list(queue))
                queue.clear()
                break
            # keep at most `jobs` futures in flight so a submitted
            # cell is (approximately) a *running* cell — its timeout
            # clock must not start while queued behind others
            now = time.monotonic()
            blocked_until: list[float] = []
            while queue and len(inflight) < jobs:
                spec = queue[0]
                nb = run.not_before.get(spec)
                if nb is not None and nb > now:
                    # head cell is backing off; rotate it away so it
                    # cannot starve the rest of the queue
                    blocked_until.append(nb)
                    queue.rotate(-1)
                    if all(
                        run.not_before.get(s, 0) > now for s in queue
                    ):
                        break
                    continue
                queue.popleft()
                run.not_before.pop(spec, None)
                if not submit(spec):
                    # the pool broke between waits: everything already
                    # in flight rode it down (the cell we tried to
                    # submit was refunded and re-queued by submit())
                    on_pool_death("crash", list(inflight.values()))
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
                        s for f, s in inflight.items()
                        if f not in expired
                    ]
                    log.warning(
                        "cell(s) %s exceeded the %.1fs per-cell "
                        "timeout; killing the pool",
                        ", ".join(cell_label(s) for s in hung),
                        retry.cell_timeout,
                    )
                    on_pool_death("timeout", hung, bystanders)
                continue
            broken: list = []
            for fut in done:
                spec = inflight.pop(fut)
                deadlines.pop(fut, None)
                try:
                    cell = fut.result()
                except BrokenProcessPool:
                    broken.append(spec)
                    continue
                except Exception as e:  # pickling error etc.
                    run.note_error(
                        spec, "error", f"{type(e).__name__}: {e}"
                    )
                    if run.exhausted(spec):
                        run.fail(spec, "error",
                                 f"{type(e).__name__}: {e}")
                    else:
                        run.backoff(spec)
                        queue.append(spec)
                    continue
                if "error" in cell:
                    err = cell["error"]
                    run.note_error(
                        spec, err["category"], err["message"],
                        err.get("traceback"),
                    )
                    if run.exhausted(spec):
                        run.fail(spec, err["category"], err["message"])
                    else:
                        run.backoff(spec)
                        queue.append(spec)
                    continue
                run.adopt(
                    spec, SimStats.from_dict(cell["stats"]),
                    run.attempts.get(spec, 1), cell["telemetry"],
                )
            if broken:
                # one worker death breaks every outstanding future;
                # everything still inflight rode the same dead pool
                victims = broken + list(inflight.values())
                on_pool_death("crash", victims)
        ok = True
    finally:
        # a clean exit leaves the warm pool on the session for the
        # next sweep; an abort/interrupt may strand running workers,
        # so the pool is killed rather than inherited
        if not ok and pool is not None:
            _kill_pool(pool)
            session._discard_pool()


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

    Serial (``jobs <= 1``) drives ``session.run`` in-process.  Parallel
    first resolves every spec against the memo/disk cache in-process,
    then ships only the misses to the pool; finished cells are adopted
    into the session *as they complete* so a subsequent sweep (or
    figure generation, or an interrupted run's journal) sees them.

    Both paths run under the session's :class:`RetryPolicy`: cells
    retry with backoff, exhausted cells land in ``session.failures``
    (and the sweep journal) instead of raising, and ``max_failures``
    bounds how many the sweep tolerates.  ``resume=True`` additionally
    diffs the matrix against the journal first and logs the resume
    plan (the store probe alone already guarantees completed cells are
    not re-simulated).

    A session with hooks attached always runs serially: hooks are
    in-process observers whose state cannot come back from pool
    workers, and silently dropping their events would corrupt whatever
    they are accumulating.
    """
    # duplicate specs (e.g. `--threads 2 2`) would each miss the cache
    # before any result lands, costing a redundant pool simulation
    specs = list(dict.fromkeys(specs))
    run = _MatrixRun(session, session.retry)
    journal = session.journal
    if resume and journal is not None:
        from .journal import resume_plan

        plan = resume_plan(
            journal.load(),
            [(session.journal_key(s), s) for s in specs],
        )
        log.info(
            "resume: %d cells requested — %d done in journal, %d "
            "previously failed (re-scheduled), %d never attempted",
            len(specs), len(plan["done"]), len(plan["failed"]),
            len(plan["missing"]),
        )
    if journal is not None:
        journal.checkpoint(
            "sweep-start", cells=len(specs), jobs=jobs, resume=resume
        )
    prev_plan = faults.active()
    faults.install(session.fault_plan)
    outcome = "sweep-interrupted"
    try:
        if jobs <= 1 or session.hooks:
            _run_serial(run, specs)
        else:
            pending: list[tuple] = []
            for spec in specs:
                stats, source = session.lookup_with_source(*spec)
                if stats is not None:
                    # the pool path bypasses session.run(), so cache
                    # hits are written to the telemetry ledger here
                    # (wall time is the lookup's, effectively zero)
                    session._record_cell(
                        spec[0], spec[1], spec[2],
                        spec[3] if len(spec) > 3 else None,
                        spec[4] if len(spec) > 4 else None,
                        source, None, 0.0, 0.0,
                    )
                    run.results[spec] = stats
                else:
                    pending.append(spec)
            _materialise_bundles(session, pending)
            log.debug(
                "matrix: %d cells, %d cached, %d to simulate on %d "
                "workers",
                len(specs), len(run.results), len(pending), jobs,
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
