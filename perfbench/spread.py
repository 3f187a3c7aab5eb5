"""Run-to-run spread, trace repeatability and the baseline record.

Run from the repository root:

    python3 perfbench/spread.py [--workloads paper long serve] [--runs 10]
                                [--first-seed 1] [--sets 1] [--traced]
                                [--out FILE]

Runs ``run.py`` once per seed and workload, for BENCHMARK.json's
``run_seconds``, and prints for each end-to-end metric its median, quartiles
and spread (the interquartile distance over the median, from
``statistics.quantiles(values, n=4)``) next to its bound, plus the unbounded
results (per-operation percentiles, wall times) from each run's record.  Set
``k`` (from 0) uses seeds ``first-seed + k * runs`` onwards; every workload
runs one set before the next set starts.  Each later set's medians are
compared with the first set's, and must not be worse by more than the bound.
With ``--traced`` it also makes two traced runs per workload at the first
seed, checks that every count repeats exactly, and reports the tracing
overhead: traced ``run_s`` and ``op_p50_ms`` over the first set's untraced
medians.  ``--out`` writes all of it, with the environment, as JSON.

Exits 1 when a run fails, a spread exceeds its bound, a later set's median is
worse than the first set's by more than the bound, or a traced count differs
between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TIMED_UNITS = {"s", "ms"}


def run_once(workload: str, seed: int, trace: int) -> tuple:
    """(result line, full record) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=HERE.parent)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    record = json.loads((HERE / ".work" / f"result_{workload}.json").read_text())
    return json.loads(lines[-1]), record


def spread_of(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def measure_set(workload: str, seeds: range, bounds: dict, record: dict) -> tuple:
    """Run ``workload`` once per seed; (set entry, all within bounds)."""
    runs, unbounded = [], []
    for seed in seeds:
        result, run_record = run_once(workload, seed, 0)
        record["env"] = run_record["env"]
        runs.append(result)
        unbounded.append(run_record["unbounded"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    entry = {"seeds": [seeds[0], seeds[-1]],
             "attempted": sum(r["attempted"] for r in runs),
             "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
    ok = entry["failed"] == 0 and all(r["correct"] for r in runs)
    for name, bound in bounds.items():
        stats = spread_of([r["metrics"][name]["value"] for r in runs])
        stats["unit"] = runs[0]["metrics"][name]["unit"]
        stats["bound"] = bound
        entry["end_to_end"][name] = stats
        verdict = "ok" if stats["spread"] <= bound / 3 else "WIDE"
        if stats["spread"] > bound:
            ok, verdict = False, "OVER BOUND"
        print(f"  {workload:<6} {name:<15} median {stats['median']:.6g} "
              f"{stats['unit']:<5} spread {stats['spread']:.3f} "
              f"(bound {bound}) {verdict}", flush=True)
    entry["unbounded"] = {name: spread_of([u[name] for u in unbounded])
                          for name in unbounded[0]}
    for name, stats in entry["unbounded"].items():
        print(f"  {workload:<6} {name:<15} median {stats['median']:.6g}       "
              f"spread {stats['spread']:.3f} (not bounded)", flush=True)
    return entry, ok


def worsening(first: dict, later: dict, better: str) -> float:
    """How much worse ``later``'s median is than ``first``'s, as a share of
    the first (negative when it is better)."""
    change = later["median"] / first["median"] - 1
    return change if better == "lower" else -change


def traced_pair(workload: str, seed: int, entry: dict) -> bool:
    """Two traced runs: counts must repeat exactly.  Records the per-layer
    values and the tracing overhead against ``entry``'s untraced medians."""
    (first, _), (second, _) = (run_once(workload, seed, 1) for _ in range(2))
    differ = [k for k, v in first["metrics"].items()
              if v["unit"] not in TIMED_UNITS and v["value"] != second["metrics"][k]["value"]]
    entry["traced"] = {k: v["value"] for k, v in first["metrics"].items()}
    entry["tracing_overhead"] = {
        "run_s": (first["metrics"]["traced.run_s"]["value"]
                  / entry["end_to_end"]["run_s"]["median"] - 1),
        "op_p50_ms": (first["metrics"]["traced.op_p50_ms"]["value"]
                      / entry["unbounded"]["op_p50_ms"]["median"] - 1)}
    entry["traced_counts_repeat"] = not differ
    print(f"  {workload:<6} traced counts repeat: {not differ} {differ or ''}; "
          f"overhead run_s {entry['tracing_overhead']['run_s']:+.1%}, "
          f"op_p50_ms {entry['tracing_overhead']['op_p50_ms']:+.1%}", flush=True)
    return not differ and first["correct"] and second["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    record = {"run_seconds": SPEC["run_seconds"],
              "workloads": {w: {"sets": []} for w in args.workloads}}
    ok = True
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        for workload in args.workloads:
            entry, set_ok = measure_set(workload, range(first, first + args.runs),
                                        bounds, record)
            ok &= set_ok
            if args.traced and k == 0:
                ok &= traced_pair(workload, args.first_seed, entry)
            record["workloads"][workload]["sets"].append(entry)
    for workload, sets in record["workloads"].items():
        base = sets["sets"][0]["end_to_end"]
        sets["worsening"] = []
        for later in sets["sets"][1:]:
            drift = {name: worsening(base[name], later["end_to_end"][name], better[name])
                     for name in bounds}
            sets["worsening"].append(drift)
            for name, value in drift.items():
                verdict = "ok" if value <= bounds[name] else "OVER BOUND"
                ok &= value <= bounds[name]
                print(f"  {workload:<6} {name:<15} seeds {later['seeds']} median worse by "
                      f"{value:+.3f} than the first set (bound {bounds[name]}) {verdict}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("all spreads within bounds" if ok else "FAILED: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
