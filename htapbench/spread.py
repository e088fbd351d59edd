#!/usr/bin/env python3
"""Run-to-run spread and determinism checks for the HTAP benchmark.

Spread (default): runs every workload untraced once per seed and prints,
for each end-to-end metric, the median, the quartiles and the quartile
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
A spread over the bound fails the check, setup_s's included.

    python3 htapbench/spread.py --seeds 10 [--workloads a,b] [--seconds S]

Determinism (--determinism): runs each workload traced twice at one seed and
once at another, and checks that the simulated-clock and IoStats-derived
metrics repeat exactly at the same seed and that the other seed changes the
generated inputs.

Both modes also check that each run reports exactly the metrics BENCHMARK.json
lists for it (end_to_end untraced, per_layer traced).

Run from the repository root; exits 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Metrics that must repeat exactly for one seed (traced runs).
DETERMINISTIC = [
    "oltp_sim_us", "olap_sim_us", "selection.plan_cost_ratio",
    "selection.moved_mb", "selection.frontier_points",
    "query.sim_scan_probe_us", "query.sim_delta_us",
    "query.sim_materialize_us", "query.sim_store_io_us",
    "query.rows_examined_per_result", "storage.sscg_pages_per_query",
    "storage.pages_pruned_ratio", "storage.morsels_pruned_ratio",
    "tiering.buffer_hit_ratio", "tiering.page_reads_per_query",
    "tiering.evictions", "tiering.device_share", "core.merges",
    "core.migrated_mb", "solver.bnb_nodes",
]


def run(spec, workload, seed, seconds, trace):
    """Returns (result, detail) of one benchmark run; exits if the run fails
    or its metric names differ from BENCHMARK.json's."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "htapbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        raise SystemExit(
            f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - set(expected))}")
    return result, json.loads(lines[-2])["detail"]


def spread(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, detail = run(spec, workload, seed, args.seconds, 0)
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: run {detail['run_s']:.1f} s, "
                  + ", ".join(f"{n}={values[n][-1]:.4g}" for n in bounds),
                  flush=True)
        for name, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            share = (q3 - q1) / med if med else float("inf")
            status = "ok" if share < bound / 3 else (
                "within bound" if share <= bound else "OVER BOUND")
            ok &= share <= bound
            print(f"{workload:14s} {name:8s} median {med:12.5g} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {share:7.2%} "
                  f"bound {bound:.0%} {status}", flush=True)
    return ok


def determinism(args, spec):
    ok = True
    seed = args.first_seed
    for workload in args.workloads:
        first, _ = run(spec, workload, seed, args.seconds, 1)
        again, _ = run(spec, workload, seed, args.seconds, 1)
        other, _ = run(spec, workload, seed + 1, args.seconds, 1)
        changed = False
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            c = other["metrics"][name]["value"]
            changed |= a != c
            if a != b:
                ok = False
                print(f"{workload}: {name} differs at seed {seed}: {a} vs {b}")
        if not changed:
            ok = False
            print(f"{workload}: seed {seed + 1} left every input-derived "
                  f"metric unchanged")
        ok &= first["correct"] and again["correct"] and other["correct"]
        print(f"{workload}: deterministic metrics "
              f"{'repeat' if ok else 'DIFFER'}; other seed "
              f"{'changes' if changed else 'does NOT change'} them",
              flush=True)
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()
    args.workloads = args.workloads.split(",")
    ok = determinism(args, spec) if args.determinism else spread(args, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
