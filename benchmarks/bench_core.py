#!/usr/bin/env python3
"""Tracked core-speed benchmark: cycles simulated per second.

Measures the simulator's two run-loop tiers — the scenario-specialised
codegen loop (`repro.pipeline.specialize`, with bulk idle-cycle
skipping) and the per-cycle reference loop (`Processor._run_reference`)
— across a matrix of (policy x memory preset x thread count x machine
scenario) scenarios, and writes the results to ``BENCH_core.json`` at
the repository root.  Every scenario also cross-checks that both tiers
produce bit-identical ``SimStats``, so the benchmark doubles as an
end-to-end equivalence smoke test, and records which tier the default
dispatch actually ran (``engine``) in the tracked artifact.

Usage::

    python benchmarks/bench_core.py            # full measurement
    python benchmarks/bench_core.py --quick    # CI smoke (smaller runs)
    python benchmarks/bench_core.py --quick \
        --baseline benchmarks/BENCH_core.baseline.json

With ``--baseline``, per-scenario specialised-loop throughput
(``spec_cps``) is compared against the committed baseline (matched by
scenario label) and the script exits non-zero when any scenario
regresses by more than ``--fail-threshold`` (default 25%), or when a
gated metric the baseline holds is missing from the run.  A missing
baseline file skips the check by default (so the gate arms itself once a baseline is
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
#: specialised loop's idle skip jumps.  ``narrow-oosi-2t`` runs on a
#: non-default machine scenario so cross-machine code paths are
#: speed-tracked too.
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


#: run-loop tiers measured per scenario: ``force_reference`` value
TIERS = {"spec": False, "ref": True}

#: throughput columns gated against the baseline
GATED_METRICS = ("spec_cps",)


def measure_scenario(label, policy_name, memory, n_threads, workload,
                     machine, quick: bool, reps: int) -> dict:
    """Best-of-``reps`` wall time for both run-loop tiers on one
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

    times: dict[str, list[float]] = {tier: [] for tier in TIERS}
    stats = {}
    engine = None
    # the tiers' repetitions alternate (spec, ref, spec, ref, ...), so
    # a drift in host speed lands on both tiers alike
    for _ in range(reps):
        for tier, force_reference in TIERS.items():
            proc = Processor(
                policy, bundles, n_threads, cfg, params,
                force_reference=force_reference,
            )
            elapsed, stats[tier] = _time_run(proc)
            times[tier].append(elapsed)
            if tier == "spec":
                # which tier the default dispatch actually took
                engine = proc.loop_used
    best = {tier: min(t) for tier, t in times.items()}

    spec, ref = stats["spec"], stats["ref"]
    identical = spec.to_dict() == ref.to_dict()
    if not identical:
        print(f"!! {label}: run-loop tiers DIVERGED", file=sys.stderr)
    spec_s, ref_s = best["spec"], best["ref"]
    return {
        "label": label,
        "policy": policy_name,
        "memory": memory,
        "machine": machine,
        "n_threads": n_threads,
        "workload": list(workload),
        "engine": engine,
        "cycles": spec.cycles,
        "instructions": spec.instructions,
        "vertical_waste_frac": round(spec.vertical_waste_frac, 4),
        "spec_seconds": round(spec_s, 6),
        "ref_seconds": round(ref_s, 6),
        "spec_cps": round(spec.cycles / spec_s, 1),
        "ref_cps": round(ref.cycles / ref_s, 1),
        # specialised loop vs the reference oracle
        "speedup": round(ref_s / spec_s, 3),
        "identical": identical,
    }


def check_baseline(scenarios: list[dict], baseline_path: Path,
                   threshold: float, require: bool = False) -> int:
    """Exit code 0/1: :data:`GATED_METRICS` vs the committed baseline.

    A gated metric the baseline holds but the run lacks is a failure,
    so dropping or renaming a column cannot silently disarm its gate;
    a metric absent from the baseline is not gated."""
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
        for metric in GATED_METRICS:
            if metric not in base:
                continue
            if metric not in s:
                print(f"{s['label']:18s} {metric:8s} missing from the "
                      f"run but gated by the baseline")
                failures.append(f"{s['label']}:{metric} (missing)")
                continue
            floor = base[metric] * (1.0 - threshold)
            verdict = "ok" if s[metric] >= floor else "REGRESSED"
            print(f"{s['label']:18s} {metric:8s} {s[metric]:12.0f} cps "
                  f"(baseline {base[metric]:.0f}, floor {floor:.0f}) "
                  f"{verdict}")
            if s[metric] < floor:
                failures.append(f"{s['label']}:{metric}")
    if failures:
        print(f"regression (> {threshold:.0%} below baseline, or "
              f"missing) in: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller runs (CI smoke)")
    ap.add_argument("--reps", type=int, default=5, metavar="N",
                    help="timing repetitions per tier, alternating "
                         "between the tiers (best-of-N; default 5)")
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

    results = []
    for label, policy, memory, nt, workload, machine in SCENARIOS:
        r = measure_scenario(label, policy, memory, nt, workload,
                             machine, args.quick, args.reps)
        results.append(r)
        print(f"{label:18s} {r['policy']:8s} {r['memory']:11s} "
              f"{r['machine']:7s} nt={nt} cycles={r['cycles']:7d} "
              f"spec={r['spec_cps']:12.0f} cps "
              f"[{r['engine']}] "
              f"x{r['speedup']:4.2f} vs reference"
              f"{'' if r['identical'] else ' !! MISMATCH'}")

    report = {
        # schema 6 drops the fast tier's columns and rebases
        # ``speedup`` on the specialised loop; schema 5 dropped schema
        # 4's batch-sweep scenario (the lockstep batch tier is gone);
        # schema 3 added per-scenario engine provenance; schema 2 added
        # the machine-scenario coordinate
        "schema": 6,
        "quick": args.quick,
        "reps": args.reps,
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
