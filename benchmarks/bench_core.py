#!/usr/bin/env python3
"""Tracked core-speed benchmark: cycles simulated per second.

Measures the simulator's per-cell run-loop tiers — the scenario-
specialised codegen loop (`repro.pipeline.specialize`), the generic
event-driven fast path (`Processor._run_fast`, bulk idle-cycle
skipping) and the per-cycle reference loop (`Processor._run_reference`)
— across a matrix of (policy x memory preset x thread count x machine
scenario) scenarios, and writes the results to ``BENCH_core.json`` at
the repository root.  Every scenario also cross-checks that all tiers
produce bit-identical ``SimStats``, so the benchmark doubles as an
end-to-end equivalence smoke test, and records which tier actually ran
(``engine``) so a silent specialisation fallback shows up in the
tracked artifact.

Usage::

    python benchmarks/bench_core.py            # full measurement
    python benchmarks/bench_core.py --quick    # CI smoke (fewer reps)
    python benchmarks/bench_core.py --quick \
        --baseline benchmarks/BENCH_core.baseline.json

With ``--baseline``, per-scenario specialised- and fast-path throughput
is compared against the committed baseline (matched by scenario label)
and the script exits non-zero when any scenario regresses by more than
``--fail-threshold`` (default 25%).  A missing baseline file skips the
check by default (so the gate arms itself once a baseline is
committed); with ``--require-baseline`` a missing file is a hard error
— CI uses that, so the gate can never be silently disarmed by the
baseline going missing.

This is a standalone script (not a pytest-benchmark suite) so CI can
run it directly and archive the JSON artifact; see
``docs/performance.md`` for how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # installed (`pip install -e .`) or PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # plain checkout
    sys.path.insert(0, str(REPO_ROOT / "src"))

from dataclasses import replace

from repro.arch.config import get_memory_config
from repro.arch.scenarios import get_scenario
from repro.core.policies import get_policy
from repro.kernels.suite import get_trace
from repro.pipeline.processor import Processor, SimParams

#: (label, policy, memory preset, n_threads, workload benchmarks,
#: machine scenario).  ``membound-smt-1t`` is the headline memory-bound
#: scenario: a single pointer-chasing thread on slow banked DRAM spends
#: ~90% of its cycles stalled, which is exactly the span the
#: fast-forward core skips.  ``narrow-oosi-2t`` runs on a non-default
#: machine scenario so cross-machine code paths are speed-tracked too.
SCENARIOS = [
    ("paper-ccsi-4t", "CCSI AS", "paper", 4,
     ("mcf", "idct", "gsmencode", "colorspace"), "paper"),
    ("paper-smt-4t", "SMT", "paper", 4,
     ("mcf", "idct", "gsmencode", "colorspace"), "paper"),
    ("paper-oosi-4t", "OOSI AS", "paper", 4,
     ("mcf", "idct", "gsmencode", "colorspace"), "paper"),
    ("paper-smt-2t", "SMT", "paper", 2, ("mcf", "bzip2"), "paper"),
    ("membound-smt-1t", "SMT", "slow-dram", 1, ("mcf",), "paper"),
    ("membound-ccsi-2t", "CCSI AS", "slow-dram", 2, ("mcf", "bzip2"),
     "paper"),
    # memory-bound multi-thread scenario: slow banked DRAM under a
    # split-issue policy, so the specialised tier is speed-tracked in
    # the stall-dominated regime too (not just paper-preset compute)
    ("membound-oosi-4t", "OOSI AS", "slow-dram", 4,
     ("mcf", "idct", "gsmencode", "colorspace"), "paper"),
    ("l2pf-ccsi-4t", "CCSI AS", "l2+prefetch", 4,
     ("mcf", "idct", "gsmencode", "colorspace"), "paper"),
    ("mshr-ccsi-2t", "CCSI AS", "mshr", 2, ("mcf", "bzip2"), "paper"),
    ("narrow-oosi-2t", "OOSI AS", "paper", 2, ("mcf", "bzip2"),
     "narrow"),
]

KERNEL_SCALE = 1.0


def _params(quick: bool, machine: str) -> SimParams:
    spec = get_scenario(machine)
    return SimParams(
        target_instructions=2_000 if quick else 6_000,
        timeslice=spec.timeslice(1_000 if quick else 3_000),
        seed=12345,
    )


def _time_run(proc: Processor):
    t0 = time.perf_counter()
    stats = proc.run()
    return time.perf_counter() - t0, stats


#: run-loop tiers measured per scenario, mapped to Processor kwargs
TIERS = {
    "spec": {"run_loop": "auto"},
    "fast": {"run_loop": "fast"},
    "ref": {"force_reference": True},
}


def measure_scenario(label, policy_name, memory, n_threads, workload,
                     machine, quick: bool, reps: int) -> dict:
    """Best-of-``reps`` wall time for all run-loop tiers on one
    scenario."""
    cfg = replace(get_scenario(machine).machine,
                  memory=get_memory_config(memory))
    policy = get_policy(policy_name)
    bundles = [get_trace(name, KERNEL_SCALE, cfg) for name in workload]
    params = _params(quick, machine)

    # untimed warm-up: populates the bundles' lazy per-rotation table
    # caches (and the specialised-loop codegen memo) so the timed
    # repetitions measure the simulator, not one-off construction
    Processor(policy, bundles, n_threads, cfg, params).run()

    best = {}
    stats = {}
    engine = None
    for tier, kwargs in TIERS.items():
        times = []
        for _ in range(reps):
            proc = Processor(
                policy, bundles, n_threads, cfg, params, **kwargs
            )
            elapsed, s = _time_run(proc)
            times.append(elapsed)
        best[tier] = min(times)
        stats[tier] = s
        if tier == "spec":
            # which tier the "auto" dispatch actually took — a silent
            # codegen fallback shows up here as "fast"
            engine = proc.loop_used

    spec, fast, ref = stats["spec"], stats["fast"], stats["ref"]
    identical = (
        spec.to_dict() == ref.to_dict() == fast.to_dict()
    )
    if not identical:
        print(f"!! {label}: run-loop tiers DIVERGED", file=sys.stderr)
    spec_s, fast_s, ref_s = best["spec"], best["fast"], best["ref"]
    return {
        "label": label,
        "policy": policy_name,
        "memory": memory,
        "machine": machine,
        "n_threads": n_threads,
        "workload": list(workload),
        "engine": engine,
        "cycles": fast.cycles,
        "instructions": fast.instructions,
        "vertical_waste_frac": round(fast.vertical_waste_frac, 4),
        "spec_seconds": round(spec_s, 6),
        "fast_seconds": round(fast_s, 6),
        "ref_seconds": round(ref_s, 6),
        "spec_cps": round(spec.cycles / spec_s, 1),
        "fast_cps": round(fast.cycles / fast_s, 1),
        "ref_cps": round(ref.cycles / ref_s, 1),
        # fast path vs reference loop (PR 3's tracked ratio) ...
        "speedup": round(ref_s / fast_s, 3),
        # ... and specialised loop vs fast path (this PR's)
        "spec_speedup": round(fast_s / spec_s, 3),
        "identical": identical,
    }


def check_baseline(scenarios: list[dict], baseline_path: Path,
                   threshold: float, require: bool = False) -> int:
    """Exit code 0/1: specialised- and fast-tier throughput vs the
    committed baseline (metrics absent from either side are skipped,
    so an old two-tier baseline still gates the fast path)."""
    if not baseline_path.exists():
        if require:
            print(f"FATAL: baseline {baseline_path} is missing but "
                  f"--require-baseline was given — the perf-regression "
                  f"gate would be silently disarmed; regenerate it with "
                  f"`python benchmarks/bench_core.py --quick --output "
                  f"{baseline_path}`", file=sys.stderr)
            return 1
        print(f"no baseline at {baseline_path}; regression gate skipped")
        return 0
    with open(baseline_path) as f:
        baseline = {
            s["label"]: s for s in json.load(f).get("scenarios", [])
        }
    failures = []
    for s in scenarios:
        base = baseline.get(s["label"])
        if base is None:
            continue
        for metric in ("spec_cps", "fast_cps"):
            if metric not in base or metric not in s:
                continue
            floor = base[metric] * (1.0 - threshold)
            verdict = "ok" if s[metric] >= floor else "REGRESSED"
            print(f"{s['label']:18s} {metric:8s} {s[metric]:12.0f} cps "
                  f"(baseline {base[metric]:.0f}, floor {floor:.0f}) "
                  f"{verdict}")
            if s[metric] < floor:
                failures.append(f"{s['label']}:{metric}")
    if failures:
        print(f"regression (> {threshold:.0%} below baseline) in: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller runs, fewer repetitions (CI smoke)")
    ap.add_argument("--reps", type=int, default=None, metavar="N",
                    help="timing repetitions per path (best-of-N); "
                         "default 3 quick / 5 full")
    ap.add_argument("--output", default=str(REPO_ROOT / "BENCH_core.json"),
                    metavar="PATH", help="where to write the JSON report")
    ap.add_argument("--baseline", default=None, metavar="PATH",
                    help="committed BENCH_core.json to gate against "
                         "(missing file: gate skipped unless "
                         "--require-baseline)")
    ap.add_argument("--require-baseline", action="store_true",
                    help="fail (exit 1) when the --baseline file is "
                         "missing instead of skipping the gate")
    ap.add_argument("--fail-threshold", type=float, default=0.25,
                    metavar="FRAC",
                    help="max allowed fractional cps regression vs the "
                         "baseline (default 0.25)")
    args = ap.parse_args(argv)
    reps = args.reps if args.reps is not None else (3 if args.quick else 5)

    results = []
    for label, policy, memory, nt, workload, machine in SCENARIOS:
        r = measure_scenario(label, policy, memory, nt, workload,
                             machine, args.quick, reps)
        results.append(r)
        print(f"{label:18s} {r['policy']:8s} {r['memory']:11s} "
              f"{r['machine']:7s} nt={nt} cycles={r['cycles']:7d} "
              f"spec={r['spec_cps']:12.0f} cps "
              f"[{r['engine']}] "
              f"fast x{r['speedup']:4.2f} "
              f"spec x{r['spec_speedup']:4.2f}"
              f"{'' if r['identical'] else ' !! MISMATCH'}")

    report = {
        # schema 5 drops schema 4's batch-sweep scenario (the lockstep
        # batch tier is gone); schema 3 added three run-loop tiers
        # (specialised codegen / fast / reference) with per-scenario
        # engine provenance; schema 2 added the machine-scenario
        # coordinate
        "schema": 5,
        "quick": args.quick,
        "reps": reps,
        "kernel_scale": KERNEL_SCALE,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": results,
    }
    out = Path(args.output)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {out}")

    if not all(r["identical"] for r in results):
        return 2
    if args.baseline:
        return check_baseline(results, Path(args.baseline),
                              args.fail_threshold,
                              require=args.require_baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
