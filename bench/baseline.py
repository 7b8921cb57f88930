"""Run the benchmark over two sets of ten seeds and summarise its steadiness.

    python3 bench/baseline.py        # writes baseline.json beside this file

For each workload in BENCHMARK.json it runs `run.py` once per seed with
tracing off, exactly as a harness would: seeds 1..10 form the first set and
seeds 11..20 the second.  Per set and end-to-end metric it reports the
median, the quartiles (`statistics.quantiles(n=4)`) and the spread,
(q3 - q1) / median, next to the metric's bound; per metric it reports how
much worse the second set's median is than the first's, as a share of the
first.  Each workload then runs once traced.  It also compares the raw
per-command times of the (5, 113) calls with the single measurements in
ROADMAP.md.  Takes about an hour.
"""

import json
import statistics
import subprocess
import sys
import time

import run

SEEDS = 10
SETS = 2
OUT = run.BENCH / "baseline.json"
ROADMAP_S = {  # ROADMAP.md North star, 2-core sandbox, one run each
    "lc --method all --p 5 --q 113": 13.9,
    "verify --p 5 --q 113": 20.2,
    "trace --p 5 --q 113": 1.4,
}


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                          check=True)
    took = time.perf_counter() - start
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1]), took


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def one_set(workload, seeds, seconds, bounds, command_s):
    """Summary of one set of untraced runs, and the seconds each run took."""
    results, raw_walls, run_s = [], [], []
    for seed in seeds:
        detail, result, took = bench(workload, seed, seconds, 0)
        results.append(result)
        run_s.append(took)
        raw_walls.append(statistics.median(
            sum(raw for raw, _ in rep.values()) for rep in detail["reps"]))
        for rep in detail["reps"]:
            for name, (raw, _) in rep.items():
                command_s.setdefault(name, []).append(raw)
        print(workload, seed, f"{took:.1f}s", json.dumps(result), flush=True)
    summary = {"attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "run_s": quartiles(run_s)}
    for name, bound in bounds.items():
        stats = quartiles([r["metrics"][name]["value"] for r in results])
        stats["bound"] = bound
        stats["spread_within_third_of_bound"] = stats["spread"] < bound / 3
        summary[name] = stats
    summary["unadjusted_wall_s"] = quartiles(raw_walls)
    return summary


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"environment": run.environment(), "run_seconds": seconds,
              "seeds_per_set": SEEDS, "workloads": {}}
    command_s = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [one_set(workload, range(n * SEEDS + 1, (n + 1) * SEEDS + 1),
                        seconds, bounds, command_s) for n in range(SETS)]
        drift = {}
        for name, bound in bounds.items():
            first, second = sets[0][name]["median"], sets[-1][name]["median"]
            worse = (second - first) / first
            drift[name] = {"first_median": first, "second_median": second,
                           "second_worse_by": worse, "bound": bound,
                           "within_bound": worse <= bound}
        detail, traced, _ = bench(workload, 1, seconds, 1)
        per_item = {r["item"]: {s["name"]: round(s["end"] - s["start"], 6)
                                for s in r["spans"]}
                    for r in detail["traced"]["records"]}
        report["workloads"][workload] = {
            "sets": sets,
            "second_set_against_first": drift,
            "per_layer": traced["metrics"],
            "per_item_spans_s": per_item,
        }
        print(workload, json.dumps(drift, indent=1), flush=True)
    report["roadmap_north_star"] = {
        name: {"roadmap_s": ref, **quartiles(command_s[name])}
        for name, ref in ROADMAP_S.items() if len(command_s.get(name, ())) > 1
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
