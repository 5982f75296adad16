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
``profile``  — cProfile one simulation, print the hottest functions
(simulator-core time only: traces are built before the profiler
starts); ``--out prof.pstats`` saves the raw profile, ``--out
prof.txt`` a readable dump
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
determinism/contract linter over the source tree (``detlint``) and
generated-loop verification over the full preset matrix
(``loopcheck``); ``--select`` picks passes, ``--paths`` narrows
``detlint``, ``--json FILE`` writes the findings report, exit 1 on
any finding

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

The global session flags are ``--quick`` (small traces),
``--jobs N`` (process-pool width: a sweep, and every harness function
for the cells it reads), ``--cache-dir DIR`` (content-hashed on-disk
result cache; a rerun with an unchanged machine/scale re-simulates
nothing) and ``--telemetry FILE`` (append one JSON line of engine
telemetry per resolved cell, see ``docs/observability.md``).  Each
command declares the ones it uses (:data:`SESSION_FLAGS`); given to a
command that does not use it, a flag exits 2 instead of being ignored.

Diagnostics go through the ``repro`` :mod:`logging` tree on stderr
(stdout stays machine-parseable): ``-v/--verbose`` for debug detail
with worker-PID attribution, ``-q/--quiet`` to silence informational
lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import shutil

from .arch.config import MEMORY_PRESETS
from .arch.scenarios import MACHINE_PRESETS, get_scenario
from .core.policies import BY_NAME
from .engine.session import DEFAULT_SCALE, QUICK_SCALE, SimulationSession
from .harness.claims import evaluate_claims, render_claims
from .harness.figures import (
    FIG_MACHINE_PRESETS,
    fig13a,
    fig14,
    fig15,
    fig16,
    render_fig13a,
    render_fig16,
    render_speedup_table,
    sensitivity,
)
from .harness.waste import render_waste, waste_breakdown
from .harness.workloads import WORKLOADS
from .obs.logcfg import setup_logging

_log = logging.getLogger("repro.cli")

#: the global flags that configure a simulation session, by ``args``
#: attribute; each command uses a subset and rejects the rest
SESSION_FLAGS = {
    "quick": "--quick",
    "jobs": "--jobs",
    "cache_dir": "--cache-dir",
    "telemetry": "--telemetry",
}
_ALL = frozenset(SESSION_FLAGS)
#: commands that resolve their cells one at a time: no pool to size
_SERIAL = _ALL - {"jobs"}
#: attribution runs: serial and outside the telemetry ledger; the
#: traces they record feed the store's fingerprint index
_OBSERVER = frozenset({"quick", "cache_dir"})


def _fig_uses(args) -> frozenset:
    if args.number == "why":
        return _OBSERVER
    # Fig. 13a's single-thread baselines are resolved one by one
    return _SERIAL if args.number == "13" else _ALL


def _session(args, retry=None) -> SimulationSession:
    return SimulationSession(
        QUICK_SCALE if args.quick else DEFAULT_SCALE,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        telemetry=getattr(args, "telemetry", None),
        retry=retry,
    )


def _scenario(name: str) -> str:
    """argparse ``type=`` for machine-scenario names: a typo exits 2
    with the registry instead of a traceback."""
    try:
        get_scenario(name)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return name


def cmd_run(args) -> int:
    s = _session(args).run(args.policy, args.workload, args.threads,
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

    max_failures = 0 if args.strict else args.max_failures
    retry = RetryPolicy(
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        max_failures=max_failures,
    )
    session = _session(args, retry=retry)
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
            f"{info['traces_indexed']} indexed"
        )
    _sweep_digest(session)
    # recorded failures are tolerated (the sweep completed) but the
    # exit code must not pretend the matrix converged
    return 1 if session.failures else 0


def cmd_mem(args) -> int:
    from .harness.memreport import render_memory_report

    rows = sensitivity(
        _session(args), args.policy, args.workload, args.threads,
        "memory", args.memory or list(MEMORY_PRESETS),
    )
    print(render_memory_report(rows, args.policy, args.workload,
                               args.threads))
    return 0


def cmd_machine(args) -> int:
    from .harness.machreport import render_machine_report

    rows = sensitivity(
        _session(args), args.policy, args.workload, args.threads,
        "machine", args.machines or FIG_MACHINE_PRESETS,
    )
    print(render_machine_report(rows, args.policy, args.workload,
                                args.threads))
    return 0


def cmd_scenarios(args) -> int:
    from .harness.machreport import render_scenarios

    print(render_scenarios(verbose=args.verbose))
    return 0


def cmd_fig(args) -> int:
    session = _session(args)
    if args.number == "why":
        from .harness.figures import fig_why, render_fig_why

        # attribution pins the reference loop and bypasses the pool
        print(render_fig_why(
            fig_why(session, workload=args.workload,
                    n_threads=args.threads)
        ))
        return 0
    if args.number in ("mem", "machine"):
        from .harness.figures import FIG_AXES, fig_axis, render_fig_axis

        axis, values, title = FIG_AXES[args.number]
        print(render_fig_axis(fig_axis(session, axis, values), title))
        return 0
    number = int(args.number)
    if number == 13:
        print(render_fig13a(fig13a(session)))
    elif number == 14:
        print("Fig. 14: CCSI speedup over CSMT (%)")
        print(render_speedup_table(fig14(session), ["NS", "AS"]))
    elif number == 15:
        print("Fig. 15: COSI/OOSI speedup over SMT (%)")
        print(render_speedup_table(
            fig15(session),
            ["COSI NS", "COSI AS", "OOSI NS", "OOSI AS"],
        ))
    else:  # number == 16: argparse choices guarantee the range
        print(render_fig16(fig16(session)))
    return 0


def cmd_claims(args) -> int:
    claims = evaluate_claims(_session(args))
    print(render_claims(claims))
    return 0 if all(c.holds for c in claims) else 1


def cmd_waste(args) -> int:
    rows = waste_breakdown(
        _session(args),
        ["CSMT", "CCSI AS", "SMT", "COSI AS", "OOSI AS"],
        args.workload,
        args.threads,
    )
    print(render_waste(rows))
    return 0


def cmd_why(args) -> int:
    """Cycle attribution report for one (workload, threads) cell."""
    from .harness.figures import FIG16_POLICIES
    from .obs import render_why, why_rows

    session = _session(args)
    policies = args.policies or FIG16_POLICIES
    rows = why_rows(
        session, policies, args.workload, args.threads,
        memory=args.memory, machine=args.machine,
    )
    print(render_why(rows))
    return 0


def cmd_trace(args) -> int:
    """Simulate one cell with the trace exporter attached and write
    Chrome trace-event JSON.  The run neither reads nor writes the
    result store: the trace must describe a run that happened in this
    process."""
    from .obs import TraceExporter

    exporter = TraceExporter(
        limit=args.limit, counter_every=args.counter_every
    )
    cell = SimulationSession(
        QUICK_SCALE if args.quick else DEFAULT_SCALE
    ).cell(args.policy, args.workload, args.threads,
           memory=args.memory, machine=args.machine)
    s = cell.simulate(hooks=[exporter])[0]
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
    """Static verification: detlint + loopcheck."""
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
        # the index part says "in quarantine", so scripts grepping
        # "<n> quarantined" keep reading the result store's count
        print(
            f"{report['ok']} ok, {report['stale']} stale, "
            f"{report['corrupt']} corrupt, "
            f"{report['quarantine']} quarantined, "
            f"{report['tmp_files']} tmp file(s), "
            f"{report['shadowed']} shadowed shard path(s); index: "
            f"{report['index_ok']} ok, {report['index_corrupt']} corrupt, "
            f"{report['index_stale']} stale, "
            f"{report['index_quarantine']} in quarantine; "
            f"{report['stale_bundles']} stale trace bundle(s)"
        )
        for key in report["corrupt_entries"]:
            _log.error(f"# corrupt: {key}")
        for key in report["corrupt_index"]:
            _log.error(f"# corrupt index entry: {key}")
        return 1 if report["corrupt"] + report["index_corrupt"] else 0
    if args.action == "repair":
        report = cache.repair()
        print(
            f"kept {report['ok']} + {report['index_ok']} index entries, "
            f"quarantined {report['corrupt']} + "
            f"{report['index_corrupt']} index entries (now "
            f"{report['quarantine']} + "
            f"{report['index_quarantine']} in quarantine), dropped "
            f"{report['removed_stale']} stale, "
            f"swept {report['swept_tmp']} tmp file(s)"
        )
        return 0
    if args.action == "gc":
        report = cache.gc()
        journal = SweepJournal.for_cache_dir(args.cache_dir)
        journal.compact()
        print(
            f"kept {report['ok']} + {report['index_ok']} index entries, "
            f"dropped {report['removed_stale']} stale + "
            f"{report['dropped_quarantine']} + "
            f"{report['dropped_index_quarantine']} index entries "
            f"quarantined + {report['dropped_stale_index']} stale index "
            f"entr(ies) + {report['dropped_stale_bundles']} stale trace "
            f"bundle(s), swept {report['swept_tmp']} tmp file(s); "
            "journal compacted"
        )
        return 0
    # clear
    n, i = len(cache), cache.index_count()
    cache.clear()
    print(
        f"cleared {n} entr{'y' if n == 1 else 'ies'} + "
        f"{i} index entr{'y' if i == 1 else 'ies'}"
    )
    return 0


def cmd_profile(args) -> int:
    """Profile the simulation core on one scenario.

    Builds the traces *before* enabling the profiler, and never
    touches the result cache — the whole point is to run the simulator
    for real.
    """
    import cProfile
    import pstats

    from .pipeline.processor import Processor

    cell = SimulationSession(
        QUICK_SCALE if args.quick else DEFAULT_SCALE
    ).cell(
        args.policy, args.workload, args.threads,
        memory=args.memory, machine=args.machine,
    )
    proc = Processor(
        cell.policy, cell.bundles(), cell.n_threads, cell.cfg,
        cell.params, force_reference=args.reference,
    )
    prof = cProfile.Profile()
    prof.enable()
    stats = proc.run()
    prof.disable()
    header = (
        f"# {args.policy} / {args.workload} / {args.threads}T / "
        f"{args.machine} / {cell.cfg.memory.name} — "
        f"{proc.loop_used} loop"
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
    from .harness.report import render_report, report_results

    note = ("Quick scale." if args.quick else
            "Default scale (kernel scale 1.0, 40k-instruction runs).")
    text = render_report(report_results(_session(args)), note)
    with open(args.output, "w") as f:
        f.write(text)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the stock formatter measures the terminal each time it is built,
    # which argparse does on every add_argument call; this one measures
    # it once, as the stock one would (width = columns - 2)
    formatter = functools.partial(
        argparse.HelpFormatter,
        width=shutil.get_terminal_size().columns - 2,
    )
    ap = argparse.ArgumentParser(
        prog="repro",
        description="SMT clustered-VLIW split-issue reproduction",
        formatter_class=formatter,
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

    def add_parser(name: str, uses, **kw):
        # ``uses``: the SESSION_FLAGS the command honours (or a
        # function of its parsed args that returns them)
        p = sub.add_parser(name, formatter_class=formatter, **kw)
        add_global_flags(p, defaults=False)
        p.set_defaults(uses=uses)
        return p

    machine_help = (
        "machine scenario "
        f"({', '.join(sorted(MACHINE_PRESETS))}, or a "
        "'<machine>+<memory>' composition like narrow+l2)"
    )

    def add_cell_flags(p, policy=True, scenario=True) -> None:
        # the single-cell flags of run, mem, machine, why, trace and
        # profile; `scenario` adds --memory/--machine
        if policy:
            p.add_argument("--policy", default="CCSI AS",
                           choices=sorted(BY_NAME), metavar="POLICY",
                           help="policy (default: CCSI AS)")
        p.add_argument("--workload", default="llhh",
                       choices=list(WORKLOADS))
        p.add_argument("--threads", type=int, default=4,
                       choices=(1, 2, 4))
        if scenario:
            p.add_argument("--memory", default=None,
                           choices=sorted(MEMORY_PRESETS),
                           metavar="PRESET",
                           help="memory-hierarchy preset "
                                f"({', '.join(sorted(MEMORY_PRESETS))}; "
                                "default: the --machine scenario's)")
            p.add_argument("--machine", default=None, type=_scenario,
                           metavar="SCENARIO",
                           help=machine_help + " (default: paper)")

    p = add_parser("run", _SERIAL, help="simulate one policy/workload cell")
    add_cell_flags(p)
    p.set_defaults(func=cmd_run)

    p = add_parser(
        "sweep", _ALL, help="run the policy x workload x threads matrix"
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
                   type=_scenario, metavar="SCENARIO",
                   help=machine_help + " — several sweep as an axis")
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
        "cache", frozenset({"cache_dir"}),
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
        "mem", _ALL,
        help="memory-sensitivity report across hierarchy presets",
    )
    add_cell_flags(p, scenario=False)
    p.add_argument("--memory", nargs="+", default=None,
                   choices=sorted(MEMORY_PRESETS), metavar="PRESET",
                   help="presets to compare (default: all)")
    p.set_defaults(func=cmd_mem)

    p = add_parser(
        "machine", _ALL,
        help="machine-sensitivity report across machine scenarios",
    )
    add_cell_flags(p, scenario=False)
    p.add_argument("--machines", nargs="+", default=None,
                   type=_scenario, metavar="SCENARIO",
                   help="scenarios to compare (default: all presets)")
    p.set_defaults(func=cmd_machine)

    p = add_parser(
        "scenarios", frozenset(), help="list the machine-scenario registry"
    )
    # the global -v doubles as "include descriptions and content
    # fingerprints" here
    p.set_defaults(func=cmd_scenarios)

    p = add_parser(
        "fig", _fig_uses,
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
        "lint", frozenset(),
        help="static verification: determinism linter and "
             "generated-loop verification (docs/analysis.md)",
    )
    p.add_argument("--select", nargs="+", default=None,
                   choices=("detlint", "loopcheck"),
                   metavar="PASS",
                   help="subset of passes (detlint, loopcheck; "
                        "default: both)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the machine-readable findings report")
    p.add_argument("--paths", nargs="+", default=None, metavar="PATH",
                   help="files/directories for detlint (default: the "
                        "installed repro package)")
    p.set_defaults(func=cmd_lint)

    p = add_parser("claims", _ALL, help="evaluate the paper's claims")
    p.set_defaults(func=cmd_claims)

    p = add_parser("waste", _ALL, help="issue-waste decomposition")
    p.add_argument("--workload", default="llhh", choices=list(WORKLOADS))
    p.add_argument("--threads", type=int, default=4, choices=(2, 4))
    p.set_defaults(func=cmd_waste)

    p = add_parser("report", _ALL, help="write EXPERIMENTS.md")
    p.add_argument("--output", default="EXPERIMENTS.md")
    p.set_defaults(func=cmd_report)

    p = add_parser(
        "why", _OBSERVER,
        help="cycle attribution: where every issue slot went, per "
             "policy",
    )
    p.add_argument("--policies", nargs="+", default=None,
                   choices=sorted(BY_NAME), metavar="POLICY",
                   help="subset of policies (default: all eight)")
    add_cell_flags(p, policy=False)
    p.set_defaults(func=cmd_why)

    p = add_parser(
        "trace", frozenset({"quick"}),
        help="simulate one cell and write Chrome trace-event JSON "
             "(open in Perfetto / chrome://tracing)",
    )
    add_cell_flags(p)
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
        "stats", frozenset(),
        help="aggregate a --telemetry JSONL file into the sweep digest",
    )
    p.add_argument("file", help="telemetry JSONL file to aggregate")
    p.set_defaults(func=cmd_stats)

    p = add_parser(
        "profile", frozenset({"quick"}),
        help="cProfile one simulation, print hottest functions",
    )
    add_cell_flags(p)
    p.add_argument("--top", type=int, default=15, metavar="N",
                   help="number of functions to print (default: 15)")
    p.add_argument("--sort", default="cumulative",
                   choices=("cumulative", "tottime", "ncalls"),
                   help="pstats sort key (default: cumulative)")
    p.add_argument("--reference", action="store_true",
                   help="profile the per-cycle reference loop instead "
                        "of the scenario-specialised codegen loop "
                        "(docs/performance.md)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also save the profile: *.pstats for the raw "
                        "marshalled form (pstats.Stats/snakeviz), "
                        "anything else for a readable dump")
    p.set_defaults(func=cmd_profile, machine="paper")

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    uses = args.uses(args) if callable(args.uses) else args.uses
    for dest, flag in SESSION_FLAGS.items():
        if dest not in uses and getattr(args, dest) != parser.get_default(
            dest
        ):
            command = args.command + (
                f" {args.number}" if args.command == "fig" else ""
            )
            parser.error(f"{flag} has no effect on `repro {command}`")
    setup_logging(
        getattr(args, "verbose", False), getattr(args, "quiet", False)
    )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
