"""Negative self-check: a corrupted reference must make fail_frac non-zero.

    python3 bench/selfcheck.py

Runs the `lc` and `sweep` workloads for one pass each, and `lc` once traced,
against an in-memory copy of reference.json in which one `lc` stdout, one
sweep row and the sweep's exit code are altered.  It fails unless exactly
the altered operations count as failed, and unless a changed counter stops
the run as a benchmark error.  Takes about a minute.
"""

import copy
import sys

import run


def corrupted(reference):
    bad = copy.deepcopy(reference)
    outputs = bad["outputs"]
    outputs["lc --method all --p 5 --q 13"]["stdout"] = "65 65 64 AGREE\n"
    sweep = outputs[run.key(run.SWEEP)]
    lines = sweep["stdout"].splitlines(keepends=True)
    lines[3] = lines[3].replace(",true,", ",false,")
    sweep["stdout"] = "".join(lines)
    sweep["exit"] = 1
    return bad


def main():
    reference = run.load_reference()
    bad = corrupted(reference)
    problems = []
    # (workload, trace, failed operations expected): the traced lc run checks
    # the altered stdout twice, once untraced and once through stages.py.
    for workload, trace, expected in (("lc", 0, 1), ("sweep", 0, 2), ("lc", 1, 2)):
        result, detail = run.benchmark(workload, 1, 0, trace, bad)
        print(f"{workload} trace={trace}: failed={result['failed']} "
              f"attempted={result['attempted']} fail_frac={detail['fail_frac']:.4f}")
        if result["failed"] != expected or result["correct"]:
            problems.append(f"{workload} trace={trace}: expected {expected} failed")

    item = "lc 5 13"
    changed = dict(reference["counters"][item], **{"lfsr.length": 64})
    try:
        run.check_counters([{"item": item, "counters": changed}], reference["counters"])
        problems.append("a changed counter was not reported")
    except run.BenchmarkError as exc:
        print(f"changed counter: {exc}")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selfcheck", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
