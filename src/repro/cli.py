"""Command-line interface: ``python -m repro <command>`` (or the
``repro`` console script).

Commands
--------
``run``      — one simulation cell (policy x workload x threads)
``sweep``    — the policy x workload x threads matrix, parallel + cached
``fig``      — regenerate a paper figure (13, 14, 15 or 16), the
memory-sensitivity figure (``fig mem``: average IPC per policy x
memory preset), or the machine-sensitivity figure (``fig machine``:
average IPC per policy x machine scenario)
``claims``   — evaluate the §VI-B headline claims
``waste``    — vertical/horizontal waste decomposition per policy
``mem``      — memory-sensitivity report across hierarchy presets
``machine``  — machine-sensitivity report across machine scenarios
``scenarios``— list the declarative machine-scenario registry
``report``   — run the full matrix and (re)write EXPERIMENTS.md
``profile``  — cProfile one quick simulation, print the hottest
functions (simulator-core time only: traces are built before the
profiler starts); ``--out prof.pstats`` saves the raw profile,
``--out prof.txt`` a readable dump
``why``      — cycle attribution: where every issue slot of every
cycle went, per policy (``repro fig why`` is the stacked-bar figure)
``trace``    — simulate one cell with the Chrome trace-event exporter
attached and write a ``trace.json`` Perfetto loads directly
``stats``    — aggregate a ``--telemetry`` JSONL file into the
sweep-end digest (sources, tier mix, cell wall-time percentiles,
failed cells)
``cache``    — inspect or repair a ``--cache-dir`` store:
``verify`` (read-only corruption scan), ``repair`` (quarantine
corrupt + drop stale entries), ``gc`` (repair, drop the quarantine,
compact the sweep journal), ``clear``
``lint``     — static verification (``docs/analysis.md``): the
determinism/contract linter over the source tree (``detlint``), the
cross-tier counter-flow check (``counterflow``), and generated-loop
verification over the full preset matrix (``loopcheck``);
``--select`` picks passes, ``--json FILE`` writes the findings
report, exit 1 on any finding

``sweep`` is fault-tolerant (``docs/robustness.md``): per-cell
retries with backoff (``--retries``), per-cell timeouts
(``--cell-timeout S``), crashed-worker recovery, and recorded
failures gated by ``--max-failures N`` / ``--strict``.  Interrupted
or partially-failed sweeps continue with ``repro sweep --resume``
(requires ``--cache-dir``); a sweep with recorded failures exits 1,
an aborted sweep exits 3, an interrupted one 130.

``run`` and ``sweep`` take ``--memory <preset>`` (presets from
``repro.arch.config.MEMORY_PRESETS``: the paper's flat model, shared
L2, prefetchers, banked DRAM); ``sweep --memory`` accepts several
presets and sweeps them as a fourth matrix axis.  They likewise take
``--machine <scenario>`` (``repro.arch.scenarios.MACHINE_PRESETS``
names, or ``<machine>+<memory>`` compositions like ``narrow+l2``);
``sweep --machine`` sweeps machines as a matrix axis of their own.

Global flags ``--jobs N`` (process-pool width for sweeps) and
``--cache-dir DIR`` (content-hashed on-disk result cache; a rerun with
an unchanged machine/scale re-simulates nothing) apply to every
command; all simulations flow through
:class:`repro.engine.SimulationSession`.

Diagnostics go through the ``repro`` :mod:`logging` tree on stderr
(stdout stays machine-parseable): ``-v/--verbose`` for debug detail
with worker-PID attribution, ``-q/--quiet`` to silence informational
lines, ``--telemetry FILE`` to append one JSON line of engine
telemetry per resolved cell (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import logging

from .arch.config import MEMORY_PRESETS
from .arch.scenarios import MACHINE_PRESETS, get_scenario
from .core.policies import BY_NAME
from .harness.claims import evaluate_claims, render_claims
from .harness.experiment import (
    DEFAULT_SCALE,
    QUICK_SCALE,
    ExperimentRunner,
)
from .harness.figures import (
    FIG14_POLICIES,
    FIG15_POLICIES,
    fig13a,
    fig14,
    fig15,
    fig16,
    render_fig13a,
    render_fig16,
    render_speedup_table,
)
from .harness.waste import render_waste, waste_breakdown
from .harness.workloads import WORKLOADS
from .obs.logcfg import setup_logging

_log = logging.getLogger("repro.cli")


def _runner(args, retry=None) -> ExperimentRunner:
    return ExperimentRunner(
        QUICK_SCALE if args.quick else DEFAULT_SCALE,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        telemetry=getattr(args, "telemetry", None),
        retry=retry,
    )


def _check_machines(names) -> int | None:
    """Resolve machine-scenario names early so a typo prints the
    registry instead of a traceback.  Returns an exit code on error."""
    for name in names or ():
        try:
            get_scenario(name)
        except ValueError as e:
            _log.error(f"repro: {e}")
            return 2
    return None


def cmd_run(args) -> int:
    if (rc := _check_machines([args.machine] if args.machine else [])):
        return rc
    r = _runner(args)
    s = r.run(args.policy, args.workload, args.threads,
              memory=args.memory, machine=args.machine)
    print(json.dumps(s.summary(), indent=1))
    # the paper's flat model adds nothing beyond the summary's
    # icache/dcache miss rates; hierarchies get the per-level breakdown
    if s.memory.get("levels", {}).get("l2") or s.memory.get("dram"):
        from .harness.memreport import render_memory_levels

        print(render_memory_levels(s))
    return 0


def _sweep_digest(session) -> None:
    """The sweep-end telemetry digest + per-cell failure lines (also
    printed after an interrupt or abort, so a partial run still
    reports what it completed and what it lost)."""
    from .obs import render_summary

    _log.info(render_summary(session.telemetry.summary()))
    for f in session.failures:
        _log.error(
            f"# FAILED {f.cell}: {f.category} after {f.attempts} "
            f"attempt(s) — {f.error}"
        )


def cmd_sweep(args) -> int:
    import signal

    from .engine.runner import RetryPolicy, SweepAborted

    if (rc := _check_machines(args.machine)):
        return rc
    max_failures = 0 if args.strict else args.max_failures
    retry = RetryPolicy(
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        max_failures=max_failures,
    )
    session = _runner(args, retry=retry).session
    if args.resume and session.cache is None:
        _log.error("repro: sweep --resume requires --cache-dir")
        return 2
    memory = tuple(args.memory) if args.memory else None
    machine = tuple(args.machine) if args.machine else None

    # SIGTERM (timeout managers, schedulers) checkpoints exactly like
    # SIGINT: the journal and telemetry keep every completed cell
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    old_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        results = session.sweep(
            policies=args.policies,
            workloads=args.workloads,
            n_threads=tuple(args.threads),
            memory=memory,
            machine=machine,
            resume=args.resume,
            batch=args.batch,
        )
    except KeyboardInterrupt:
        _log.error(
            "repro: sweep interrupted — completed cells are "
            "checkpointed in the store/journal; "
            "`repro sweep --resume` continues from here"
        )
        _sweep_digest(session)
        return 130
    except SweepAborted as e:
        _log.error(f"repro: {e} (--max-failures exceeded)")
        _sweep_digest(session)
        return 3
    finally:
        signal.signal(signal.SIGTERM, old_term)
    mem_w = max(6, max(len(m) for m in memory)) if memory else 0
    mach_w = max(7, max(len(m) for m in machine)) if machine else 0
    mem_hdr = f" {'memory':>{mem_w}s}" if memory else ""
    mach_hdr = f" {'machine':>{mach_w}s}" if machine else ""
    print(f"{'T':>2s} {'policy':9s} {'workload':>9s}{mach_hdr}{mem_hdr} "
          f"{'IPC':>6s}")
    # normalise every key to (policy, workload, nt, memory, machine)
    rows = [
        ((*k, *(None,) * (5 - len(k))), s) for k, s in results.items()
    ]
    for (pol, w, nt, m, mach), s in sorted(
        rows,
        key=lambda kv: (kv[0][4] or "", kv[0][3] or "", kv[0][2],
                        kv[0][0], kv[0][1]),
    ):
        mem_col = f" {m or '':>{mem_w}s}" if memory else ""
        mach_col = f" {mach or '':>{mach_w}s}" if machine else ""
        print(f"{nt:2d} {pol:9s} {w:>9s}{mach_col}{mem_col} {s.ipc:6.2f}")
    info = session.cache_stats()
    # scripts grep this line (" 0 simulated", "from disk cache",
    # " failed") — keep the wording when extending it
    _log.info(
        f"# {len(results)} cells: {info['simulations']} simulated, "
        f"{info['disk_hits']} from disk cache, "
        f"{info['memo_hits']} memo hits, "
        f"{info['failures']} failed"
    )
    if session.cache is not None:
        # scripts grep " 0 recorded" on warm reruns
        _log.info(
            f"# traces: {info['traces_recorded']} recorded, "
            f"{info['traces_loaded']} loaded, "
            f"{info['traces_quarantined']} quarantined"
        )
    _sweep_digest(session)
    # recorded failures are tolerated (the sweep completed) but the
    # exit code must not pretend the matrix converged
    return 1 if session.failures else 0


def cmd_mem(args) -> int:
    from .harness.memreport import memory_sensitivity, render_memory_report

    r = _runner(args)
    presets = args.memory or list(MEMORY_PRESETS)
    if args.jobs > 1:
        # fan cold preset cells over the pool; memory_sensitivity then
        # reads them from the memo
        r.session.sweep(
            policies=[args.policy],
            workloads=[args.workload],
            n_threads=(args.threads,),
            memory=tuple(presets),
        )
    rows = memory_sensitivity(
        r, args.policy, args.workload, args.threads, presets
    )
    print(render_memory_report(rows, args.policy, args.workload,
                               args.threads))
    return 0


def cmd_machine(args) -> int:
    from .harness.figures import FIG_MACHINE_PRESETS
    from .harness.machreport import (
        machine_sensitivity,
        render_machine_report,
    )

    # the paper machine leads (it is the IPC-delta baseline), then the
    # canonical figure order, then any preset the figure list misses
    machines = args.machines or (
        [m for m in FIG_MACHINE_PRESETS if m in MACHINE_PRESETS]
        + sorted(set(MACHINE_PRESETS) - set(FIG_MACHINE_PRESETS))
    )
    if (rc := _check_machines(machines)):
        return rc
    r = _runner(args)
    if args.jobs > 1:
        # fan cold scenario cells over the pool; machine_sensitivity
        # then reads them from the memo
        r.session.sweep(
            policies=[args.policy],
            workloads=[args.workload],
            n_threads=(args.threads,),
            machine=tuple(machines),
        )
    rows = machine_sensitivity(
        r, args.policy, args.workload, args.threads, machines
    )
    print(render_machine_report(rows, args.policy, args.workload,
                                args.threads))
    return 0


def cmd_scenarios(args) -> int:
    from .harness.machreport import render_scenarios

    print(render_scenarios(verbose=args.verbose))
    return 0


def _prewarm(r: ExperimentRunner, args, policies=None) -> None:
    """With ``--jobs N``, fill the needed slice of the matrix through
    the parallel sweep first so figure/claim generation reads from the
    memo."""
    if args.jobs > 1:
        r.session.sweep(policies=policies, n_threads=(2, 4))


#: Policies each figure actually touches (prewarm slice)
_FIG_POLICIES = {
    14: FIG14_POLICIES,
    15: FIG15_POLICIES,
    16: None,  # all eight
}


def cmd_fig(args) -> int:
    r = _runner(args)
    if args.number == "why":
        from .harness.figures import fig_why, render_fig_why

        # attribution pins the reference loop and bypasses the pool —
        # no --jobs prewarm applies
        print(render_fig_why(
            fig_why(runner=r, workload=args.workload,
                    n_threads=args.threads)
        ))
        return 0
    if args.number == "machine":
        from .harness.figures import (
            FIG_MACHINE_PRESETS,
            fig_machine,
            render_fig_machine,
        )

        if args.jobs > 1:
            # fan the full policy x workload x machine matrix over the
            # pool; fig_machine then reads every cell from the memo
            r.session.sweep(
                n_threads=(2, 4),
                machine=tuple(
                    m for m in FIG_MACHINE_PRESETS if m in MACHINE_PRESETS
                ),
            )
        print(render_fig_machine(fig_machine(runner=r)))
        return 0
    if args.number == "mem":
        from .harness.figures import fig_mem, render_fig_mem

        if args.jobs > 1:
            # fan the full policy x workload x preset matrix over the
            # pool (same preset filter fig_mem applies); fig_mem then
            # reads every cell from the memo
            from .harness.figures import FIG_MEM_PRESETS

            r.session.sweep(
                n_threads=(2, 4),
                memory=tuple(
                    p for p in FIG_MEM_PRESETS if p in MEMORY_PRESETS
                ),
            )
        print(render_fig_mem(fig_mem(runner=r)))
        return 0
    number = int(args.number)
    if number in _FIG_POLICIES:
        _prewarm(r, args, _FIG_POLICIES[number])
    if number == 13:
        print(render_fig13a(fig13a(runner=r)))
    elif number == 14:
        print("Fig. 14: CCSI speedup over CSMT (%)")
        print(render_speedup_table(fig14(runner=r), ["NS", "AS"]))
    elif number == 15:
        print("Fig. 15: COSI/OOSI speedup over SMT (%)")
        print(render_speedup_table(
            fig15(runner=r),
            ["COSI NS", "COSI AS", "OOSI NS", "OOSI AS"],
        ))
    else:  # number == 16: argparse choices guarantee the range
        print(render_fig16(fig16(runner=r)))
    return 0


def cmd_claims(args) -> int:
    r = _runner(args)
    _prewarm(r, args)
    claims = evaluate_claims(r)
    print(render_claims(claims))
    return 0 if all(c.holds for c in claims) else 1


def cmd_waste(args) -> int:
    rows = waste_breakdown(
        ["CSMT", "CCSI AS", "SMT", "COSI AS", "OOSI AS"],
        args.workload,
        args.threads,
        runner=_runner(args),
    )
    print(render_waste(rows))
    return 0


def cmd_why(args) -> int:
    """Cycle attribution report for one (workload, threads) cell."""
    if (rc := _check_machines([args.machine] if args.machine else [])):
        return rc
    from .harness.figures import FIG16_POLICIES
    from .obs import render_why, why_rows

    r = _runner(args)
    policies = args.policies or FIG16_POLICIES
    rows = why_rows(
        r, policies, args.workload, args.threads,
        memory=args.memory, machine=args.machine,
    )
    print(render_why(rows))
    return 0


def cmd_trace(args) -> int:
    """Simulate one cell with the trace exporter attached and write
    Chrome trace-event JSON."""
    if (rc := _check_machines([args.machine] if args.machine else [])):
        return rc
    from .engine import SimulationSession
    from .obs import TraceExporter

    exporter = TraceExporter(
        limit=args.limit, counter_every=args.counter_every
    )
    # a hooked session always takes the reference loop and never reads
    # the disk cache — the trace must describe a run that actually
    # happened in this process
    session = SimulationSession(
        QUICK_SCALE if args.quick else DEFAULT_SCALE,
        cache_dir=args.cache_dir,
        hooks=[exporter],
        memory=None,
        telemetry=getattr(args, "telemetry", None),
    )
    s = session.run(args.policy, args.workload, args.threads,
                    memory=args.memory, machine=args.machine)
    exporter.write(args.out)
    print(
        f"wrote {args.out}: {len(exporter.events)} events "
        f"({s.cycles} cycles, {s.context_switches} switches, "
        f"IPC {s.ipc:.2f})"
        + (", truncated at event cap" if exporter.truncated else "")
    )
    return 0


def cmd_stats(args) -> int:
    """Aggregate a telemetry JSONL file into the sweep digest."""
    from .obs import load_jsonl, render_summary, summarize

    try:
        records = load_jsonl(args.file)
    except OSError as e:
        _log.error(f"repro: cannot read telemetry file: {e}")
        return 2
    if not records:
        _log.error(f"repro: no telemetry records in {args.file}")
        return 1
    print(render_summary(summarize(records)))
    return 0


def cmd_lint(args) -> int:
    """Static verification: detlint + counterflow + loopcheck."""
    from . import analysis

    try:
        findings, stats = analysis.run_lint(
            select=args.select, paths=args.paths
        )
    except ValueError as e:
        _log.error(f"repro: {e}")
        return 2
    passes = args.select or list(analysis.PASSES)
    if args.json:
        analysis.write_report(
            args.json, analysis.build_report(findings, passes, stats)
        )
        _log.info(f"lint: findings report written to {args.json}")
    if findings:
        print(analysis.render_findings(findings))
    cells = stats.get("loopcheck_cells")
    coverage = (
        f", {stats.get('loopcheck_unique_loops')} generated loops "
        f"verified over {cells} matrix cells"
        if cells is not None
        else ""
    )
    print(
        f"lint: {len(findings)} finding(s) from "
        f"{', '.join(passes)}{coverage}"
    )
    return 1 if findings else 0


def cmd_cache(args) -> int:
    """Inspect or repair an on-disk result store."""
    from .engine import ResultCache, SweepJournal

    if not args.cache_dir:
        _log.error("repro: cache requires --cache-dir")
        return 2
    cache = ResultCache(args.cache_dir)
    if args.action == "verify":
        report = cache.verify()
        # the trace part says "in quarantine", so scripts grepping
        # "<n> quarantined" keep reading the result store's count
        print(
            f"{report['ok']} ok, {report['stale']} stale, "
            f"{report['corrupt']} corrupt, "
            f"{report['quarantine']} quarantined, "
            f"{report['tmp_files']} tmp file(s), "
            f"{report['shadowed']} shadowed shard path(s); traces: "
            f"{report['traces_ok']} ok, {report['traces_corrupt']} corrupt, "
            f"{report['trace_quarantine']} in quarantine"
        )
        for key in report["corrupt_entries"]:
            _log.error(f"# corrupt: {key}")
        for key in report["corrupt_traces"]:
            _log.error(f"# corrupt trace bundle: {key}")
        return 1 if report["corrupt"] or report["traces_corrupt"] else 0
    if args.action == "repair":
        report = cache.repair()
        print(
            f"kept {report['ok']} + {report['traces_ok']} trace(s), "
            f"quarantined {report['corrupt']} + "
            f"{report['traces_corrupt']} trace(s) (now "
            f"{report['quarantine']} + {report['trace_quarantine']} in "
            f"quarantine), dropped {report['removed_stale']} stale, "
            f"swept {report['swept_tmp']} tmp file(s)"
        )
        return 0
    if args.action == "gc":
        report = cache.gc()
        journal = SweepJournal.for_cache_dir(args.cache_dir)
        journal.compact()
        print(
            f"kept {report['ok']} + {report['traces_ok']} trace(s), "
            f"dropped {report['removed_stale']} stale + "
            f"{report['dropped_quarantine']} + "
            f"{report['dropped_trace_quarantine']} trace(s) quarantined, "
            f"swept {report['swept_tmp']} tmp file(s); journal "
            "compacted"
        )
        return 0
    # clear
    n, t = len(cache), cache.trace_count()
    cache.clear()
    print(f"cleared {n} entr{'y' if n == 1 else 'ies'} + {t} trace(s)")
    return 0


def cmd_profile(args) -> int:
    """Profile the simulation core on one quick scenario.

    Always uses the quick experiment scale (profiling is about where
    time goes, not statistical weight), builds the traces *before*
    enabling the profiler, and never touches the result cache — the
    whole point is to run the simulator for real.
    """
    import cProfile
    import pstats
    from dataclasses import replace as _replace

    from .arch.config import get_memory_config
    from .core.policies import get_policy
    from .engine import QUICK_SCALE
    from .kernels.suite import get_trace
    from .pipeline.processor import Processor, SimParams

    if (rc := _check_machines([args.machine])):
        return rc
    scale = QUICK_SCALE
    spec = get_scenario(args.machine)
    cfg = spec.machine
    if args.memory is not None:
        cfg = _replace(cfg, memory=get_memory_config(args.memory))
    bundles = [
        get_trace(name, scale.kernel_scale, cfg)
        for name in WORKLOADS[args.workload]
    ]
    params = SimParams(
        target_instructions=scale.target_instructions,
        timeslice=spec.timeslice(scale.timeslice),
        max_cycles=scale.max_cycles,
        seed=scale.seed,
    )
    engine = "reference" if args.reference else args.engine
    if engine == "batch":
        # the lockstep tier needs a *group*: all nine paper workloads
        # under the chosen policy/threads run as one vectorised lane,
        # and the chosen --workload's cell is the one reported
        from .pipeline import batch as batch_mod

        policy = get_policy(args.policy)
        if not batch_mod.batch_eligible(policy, cfg, params):
            _log.error(
                "repro: profile --engine batch: this scenario is not "
                "lockstep-eligible (split policies, non-flat memory "
                "and non-round-robin priority eject to scalar tiers)"
            )
            return 2
        cells = [tuple(WORKLOADS[w]) for w in WORKLOADS]
        bmap = {
            name: get_trace(name, scale.kernel_scale, cfg)
            for members in cells for name in members
        }
        prof = cProfile.Profile()
        prof.enable()
        all_stats = batch_mod.run_batch(
            policy, cfg, params, args.threads, cells, bmap
        )
        prof.disable()
        stats = all_stats[list(WORKLOADS).index(args.workload)]
        loop_used = f"batch ({len(cells)} cells)"
    else:
        proc = Processor(
            get_policy(args.policy), bundles, args.threads, cfg, params,
            run_loop="auto" if engine == "specialized" else engine,
        )
        prof = cProfile.Profile()
        prof.enable()
        stats = proc.run()
        prof.disable()
        loop_used = proc.loop_used
    header = (
        f"# {args.policy} / {args.workload} / {args.threads}T / "
        f"{args.machine} / {args.memory or cfg.memory.name} — "
        f"{loop_used} loop"
    )
    print(header)
    print(f"# {stats.cycles} cycles, {stats.instructions} instructions, "
          f"IPC {stats.ipc:.2f}")
    ps = pstats.Stats(prof)
    ps.sort_stats(args.sort)
    ps.print_stats(args.top)
    if args.out:
        if args.out.endswith(".pstats"):
            # raw marshalled profile: load with pstats.Stats(path) or
            # snakeviz/gprof2dot
            prof.dump_stats(args.out)
        else:
            with open(args.out, "w") as f:
                f.write(header + "\n")
                pstats.Stats(prof, stream=f).sort_stats(
                    args.sort
                ).print_stats(args.top)
        _log.info(f"# wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    from .harness.report import render_report

    r = _runner(args)
    _prewarm(r, args)
    results = {
        "fig13a": fig13a(runner=r),
        "fig14": fig14(runner=r),
        "fig15": fig15(runner=r),
        "fig16": fig16(runner=r),
        "claims": [
            {"name": c.name, "paper": c.paper, "measured": c.measured,
             "holds": c.holds}
            for c in evaluate_claims(r)
        ],
    }
    note = ("Quick scale." if args.quick else
            "Default scale (kernel scale 1.0, 40k-instruction runs).")
    text = render_report(results, note)
    with open(args.output, "w") as f:
        f.write(text)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="SMT clustered-VLIW split-issue reproduction",
    )
    def add_global_flags(parser, defaults: bool) -> None:
        # Registered on the main parser (with real defaults) and again
        # on every subparser (with SUPPRESS defaults, so a flag given
        # before the subcommand is not clobbered by the subparser's
        # default): both `repro --jobs 4 sweep` and `repro sweep
        # --jobs 4` work.
        sup = argparse.SUPPRESS
        parser.add_argument(
            "--quick", action="store_true",
            default=False if defaults else sup,
            help="small traces (fast, noisier)")
        parser.add_argument(
            "--jobs", type=int, metavar="N",
            default=1 if defaults else sup,
            help="worker processes for sweeps (default: 1)")
        parser.add_argument(
            "--cache-dir", metavar="DIR",
            default=None if defaults else sup,
            help="content-hashed on-disk result cache")
        parser.add_argument(
            "-v", "--verbose", action="store_true",
            default=False if defaults else sup,
            help="debug-level diagnostics on stderr, with worker-PID "
                 "attribution")
        parser.add_argument(
            "-q", "--quiet", action="store_true",
            default=False if defaults else sup,
            help="suppress informational diagnostics (errors still "
                 "shown)")
        parser.add_argument(
            "--telemetry", metavar="FILE",
            default=None if defaults else sup,
            help="append one JSON line of engine telemetry per "
                 "resolved cell (aggregate with `repro stats`)")

    add_global_flags(ap, defaults=True)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw):
        p = sub.add_parser(name, **kw)
        add_global_flags(p, defaults=False)
        return p

    machine_help = (
        "machine scenario "
        f"({', '.join(sorted(MACHINE_PRESETS))}, or a "
        "'<machine>+<memory>' composition like narrow+l2)"
    )

    p = add_parser("run", help="simulate one policy/workload cell")
    p.add_argument("--policy", default="CCSI AS")
    p.add_argument("--workload", default="llhh", choices=list(WORKLOADS))
    p.add_argument("--threads", type=int, default=4, choices=(1, 2, 4))
    p.add_argument("--memory", default=None,
                   choices=sorted(MEMORY_PRESETS), metavar="PRESET",
                   help="memory-hierarchy preset "
                        f"({', '.join(sorted(MEMORY_PRESETS))}; "
                        "default: paper, or the --machine scenario's)")
    p.add_argument("--machine", default=None, metavar="SCENARIO",
                   help=machine_help + " (default: paper)")
    p.set_defaults(func=cmd_run)

    p = add_parser(
        "sweep", help="run the policy x workload x threads matrix"
    )
    p.add_argument("--policies", nargs="+", default=None,
                   choices=sorted(BY_NAME), metavar="POLICY",
                   help="subset of policies (default: all eight)")
    p.add_argument("--workloads", nargs="+", default=None,
                   choices=list(WORKLOADS), metavar="WORKLOAD",
                   help="subset of workloads (default: all nine)")
    p.add_argument("--threads", type=int, nargs="+", default=(2, 4),
                   choices=(1, 2, 4), metavar="T")
    p.add_argument("--memory", nargs="+", default=None,
                   choices=sorted(MEMORY_PRESETS), metavar="PRESET",
                   help="memory presets to sweep as a fourth axis")
    p.add_argument("--machine", nargs="+", default=None,
                   metavar="SCENARIO",
                   help=machine_help + " — several sweep as an axis")
    p.add_argument("--batch", action="store_true",
                   help="run eligible cells in lockstep batch groups "
                        "(the vectorised fourth run-loop tier; "
                        "bit-identical, docs/performance.md)")
    p.add_argument("--resume", action="store_true",
                   help="skip cells already completed per the sweep "
                        "journal + store (requires --cache-dir)")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="S",
                   help="per-cell wall-clock timeout in seconds "
                        "(parallel sweeps only; default: none)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="extra attempts per cell after the first "
                        "fails (default: 2)")
    p.add_argument("--max-failures", type=int, default=None,
                   metavar="N",
                   help="abort the sweep once more than N cells "
                        "exhaust their retries (default: tolerate "
                        "all; failures are still recorded)")
    p.add_argument("--strict", action="store_true",
                   help="shorthand for --max-failures 0: any "
                        "exhausted cell aborts the sweep")
    p.set_defaults(func=cmd_sweep)

    p = add_parser(
        "cache",
        help="inspect or repair a --cache-dir result store "
             "(verify / repair / gc / clear)",
    )
    p.add_argument("action", choices=("verify", "repair", "gc", "clear"),
                   help="verify: read-only corruption scan; repair: "
                        "quarantine corrupt + drop stale entries; gc: "
                        "repair, then drop the quarantine and compact "
                        "the sweep journal; clear: remove every entry")
    p.set_defaults(func=cmd_cache)

    p = add_parser(
        "mem", help="memory-sensitivity report across hierarchy presets"
    )
    p.add_argument("--policy", default="CCSI AS")
    p.add_argument("--workload", default="llhh", choices=list(WORKLOADS))
    p.add_argument("--threads", type=int, default=4, choices=(1, 2, 4))
    p.add_argument("--memory", nargs="+", default=None,
                   choices=sorted(MEMORY_PRESETS), metavar="PRESET",
                   help="presets to compare (default: all)")
    p.set_defaults(func=cmd_mem)

    p = add_parser(
        "machine",
        help="machine-sensitivity report across machine scenarios",
    )
    p.add_argument("--policy", default="CCSI AS")
    p.add_argument("--workload", default="llhh", choices=list(WORKLOADS))
    p.add_argument("--threads", type=int, default=4, choices=(1, 2, 4))
    p.add_argument("--machines", nargs="+", default=None,
                   metavar="SCENARIO",
                   help="scenarios to compare (default: all presets)")
    p.set_defaults(func=cmd_machine)

    p = add_parser(
        "scenarios", help="list the machine-scenario registry"
    )
    # the global -v doubles as "include descriptions and content
    # fingerprints" here
    p.set_defaults(func=cmd_scenarios)

    p = add_parser(
        "fig",
        help="regenerate a paper figure, `fig mem` for the memory-"
             "sensitivity figure, `fig machine` for the machine-"
             "sensitivity figure, or `fig why` for the cycle-"
             "attribution stacked bars",
    )
    p.add_argument("number",
                   choices=("13", "14", "15", "16", "mem", "machine",
                            "why"),
                   metavar="FIG",
                   help="13/14/15/16 (paper figures), mem (average IPC "
                        "per policy x memory preset), machine (average "
                        "IPC per policy x machine scenario), or why "
                        "(issue-slot attribution stacked bars)")
    p.add_argument("--workload", default="llhh", choices=list(WORKLOADS),
                   help="workload for `fig why` (default: llhh)")
    p.add_argument("--threads", type=int, default=4, choices=(1, 2, 4),
                   help="thread count for `fig why` (default: 4)")
    p.set_defaults(func=cmd_fig)

    p = add_parser(
        "lint",
        help="static verification: determinism linter, counter-flow "
             "check, generated-loop verification (docs/analysis.md)",
    )
    p.add_argument("--select", nargs="+", default=None,
                   choices=("detlint", "counterflow", "loopcheck"),
                   metavar="PASS",
                   help="subset of passes (detlint, counterflow, "
                        "loopcheck; default: all three)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the machine-readable findings report")
    p.add_argument("--paths", nargs="+", default=None, metavar="PATH",
                   help="files/directories for detlint (default: the "
                        "installed repro package)")
    p.set_defaults(func=cmd_lint)

    p = add_parser("claims", help="evaluate the paper's claims")
    p.set_defaults(func=cmd_claims)

    p = add_parser("waste", help="issue-waste decomposition")
    p.add_argument("--workload", default="llhh", choices=list(WORKLOADS))
    p.add_argument("--threads", type=int, default=4, choices=(2, 4))
    p.set_defaults(func=cmd_waste)

    p = add_parser("report", help="write EXPERIMENTS.md")
    p.add_argument("--output", default="EXPERIMENTS.md")
    p.set_defaults(func=cmd_report)

    p = add_parser(
        "why",
        help="cycle attribution: where every issue slot went, per "
             "policy",
    )
    p.add_argument("--policies", nargs="+", default=None,
                   choices=sorted(BY_NAME), metavar="POLICY",
                   help="subset of policies (default: all eight)")
    p.add_argument("--workload", default="llhh", choices=list(WORKLOADS))
    p.add_argument("--threads", type=int, default=4, choices=(1, 2, 4))
    p.add_argument("--memory", default=None,
                   choices=sorted(MEMORY_PRESETS), metavar="PRESET",
                   help="memory-hierarchy preset")
    p.add_argument("--machine", default=None, metavar="SCENARIO",
                   help=machine_help)
    p.set_defaults(func=cmd_why)

    p = add_parser(
        "trace",
        help="simulate one cell and write Chrome trace-event JSON "
             "(open in Perfetto / chrome://tracing)",
    )
    p.add_argument("--policy", default="CCSI AS")
    p.add_argument("--workload", default="llhh", choices=list(WORKLOADS))
    p.add_argument("--threads", type=int, default=4, choices=(1, 2, 4))
    p.add_argument("--memory", default=None,
                   choices=sorted(MEMORY_PRESETS), metavar="PRESET",
                   help="memory-hierarchy preset")
    p.add_argument("--machine", default=None, metavar="SCENARIO",
                   help=machine_help)
    p.add_argument("--out", default="trace.json", metavar="FILE",
                   help="output path (default: trace.json)")
    p.add_argument("--limit", type=int, default=100_000, metavar="N",
                   help="event cap; past it the trace is truncated "
                        "and flagged (default: 100000)")
    p.add_argument("--counter-every", type=int, default=0, metavar="N",
                   help="sample an 'ops issued' counter track every N "
                        "cycles (default: off)")
    p.set_defaults(func=cmd_trace)

    p = add_parser(
        "stats",
        help="aggregate a --telemetry JSONL file into the sweep digest",
    )
    p.add_argument("file", help="telemetry JSONL file to aggregate")
    p.set_defaults(func=cmd_stats)

    p = add_parser(
        "profile",
        help="cProfile one quick simulation, print hottest functions",
    )
    p.add_argument("--policy", default="CCSI AS")
    p.add_argument("--workload", default="llhh", choices=list(WORKLOADS))
    p.add_argument("--threads", type=int, default=4, choices=(1, 2, 4))
    p.add_argument("--memory", default=None,
                   choices=sorted(MEMORY_PRESETS), metavar="PRESET",
                   help="memory-hierarchy preset "
                        f"({', '.join(sorted(MEMORY_PRESETS))}; "
                        "default: the --machine scenario's)")
    p.add_argument("--machine", default="paper", metavar="SCENARIO",
                   help=machine_help)
    p.add_argument("--top", type=int, default=15, metavar="N",
                   help="number of functions to print (default: 15)")
    p.add_argument("--sort", default="cumulative",
                   choices=("cumulative", "tottime", "ncalls"),
                   help="pstats sort key (default: cumulative)")
    p.add_argument("--engine", default="specialized",
                   choices=("batch", "specialized", "fast", "reference"),
                   help="run-loop tier to profile: the lockstep "
                        "batched executor (all nine workloads in one "
                        "vectorised lane), the scenario-specialised "
                        "codegen loop (default), the generic "
                        "event-driven fast path, or the per-cycle "
                        "reference loop (docs/performance.md)")
    p.add_argument("--reference", action="store_true",
                   help="shorthand for --engine reference")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also save the profile: *.pstats for the raw "
                        "marshalled form (pstats.Stats/snakeviz), "
                        "anything else for a readable dump")
    p.set_defaults(func=cmd_profile)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(
        getattr(args, "verbose", False), getattr(args, "quiet", False)
    )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
