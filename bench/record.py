"""Record the reference outputs and counters that every benchmark run checks.

    python3 bench/record.py

Runs the set-up command and every workload command once through the CLI,
and every traced item once through `stages.py`.  It refuses to write
`reference.json` unless each output reports success (AGREE, PASS, a sweep
with no disagreement or error) and each traced result equals the CLI's.
Every later run is judged against this file, so re-record only at a commit
whose outputs are known to be right, and say so in the change.
"""

import json
import sys
import time

import run


def main():
    deadline = time.perf_counter() + 3600
    commands = [run.SETUP, *(args for cmds in run.WORKLOADS.values() for args in cmds)]
    clock = run.Clock()
    outputs = {}
    for args in commands:
        _, _, [(code, out)] = clock.run([["-m", "z4seq.cli", *args]],
                                        clock.cpus(args[0] == "sweep"), deadline)
        outputs[run.key(args)] = {"exit": code, "stdout": out.decode()}

    bad = []
    for args in commands:
        got = outputs[run.key(args)]
        text = got["stdout"]
        ok = {
            "lc": text.endswith(" AGREE\n"),
            "verify": text.endswith("\nresult PASS\n"),
            "trace": text == "PASS\n",
            "sweep": " disagree=0 errors=0\n" in text,
            "system": text.startswith("p=5\nq=13\n"),
        }[args[0]]
        if got["exit"] != 0 or not ok:
            bad.append(run.key(args))

    counters = {}
    tally = run.Tally()
    for workload, cmds in run.WORKLOADS.items():
        items = run.traced_items(workload, cmds, outputs)
        *_, records = run.run_traced(workload, items, outputs, tally, deadline,
                                     clock)
        counters.update((r["item"], r["counters"]) for r in records)
    if bad or tally.failed:
        print(f"error: not recording; failing commands {bad}, "
              f"{tally.failed} traced results differ from the CLI", file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"outputs": outputs, "counters": counters}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE.name}: {len(outputs)} commands, "
          f"{len(counters)} traced items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
