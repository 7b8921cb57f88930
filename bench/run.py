"""End-to-end benchmark of the z4seq command line, plus a traced per-stage run.

    python3 bench/run.py --workload lc --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the CLI is executed from `src/`
with the interpreter running this script.  One client issues one command at
a time (a closed loop), and every command is a fresh `python -m z4seq.cli`
process, as it is for a user.  Every command's exit code and stdout bytes
are compared with `reference.json`, recorded at the commit that defined the
benchmark.  The seed only permutes the order of a workload's commands.

With `--trace 0` the command list is repeated while another pass fits in
`--seconds`, and the last stdout line reports setup_s, wall_s and
peak_rss_mb; times are in reference seconds (see `Clock`), and the raw wall
times are in the detail line before it.  With `--trace 1` the list runs
once untraced and once as per-command `stages.py` processes, and the last
line reports per-layer sums.  Workloads, metrics and the layer table are in
README.md.  Linux only: it uses `os.sched_setaffinity`.
"""

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI_SOURCE = ROOT / "src" / "z4seq" / "cli.py"
REFERENCE = BENCH / "reference.json"

PAIRS = ((5, 13), (13, 17), (5, 29), (37, 5), (5, 113))
SWEEP = ("sweep", "--p-max", "40", "--q-max", "40", "--r-max", "64",
         "--workers", "2")
SWEEP_WORKERS = int(SWEEP[SWEEP.index("--workers") + 1])
SETUP = ("system", "--p", "5", "--q", "13")
SETUP_REPS = 7
RUN_LIMIT_S = 170  # a run, traced or not, must end within 180 s
SAMPLE_PERIOD_S = 0.4  # running time between two timings of the loop
CALIBRATION_LOOPS = 200_000
CALIBRATION_REF_S = 0.016  # the loop's time on a fast CPU of the baseline machine


def _pair_command(command, p, q):
    method = ("--method", "all") if command == "lc" else ()
    return (command, *method, "--p", str(p), "--q", str(q))


WORKLOADS = {
    "lc": [_pair_command("lc", p, q) for p, q in PAIRS],
    "verify-trace": [_pair_command(c, p, q) for p, q in PAIRS
                     for c in ("verify", "trace")],
    "sweep": [SWEEP],
}

SPAN_METRICS = (
    "cli.import", "cyclotomy.build_system", "sequence.generate",
    "galois.make_ring", "galois.root_of_unity", "analysis.power_table",
    "analysis.dft", "analysis.rho_value", "analysis.verify_identities",
    "lfsr.reeds_sloane", "trace_repr.trace_params", "trace_repr.check_trace_repr",
)
COUNTERS = ("galois.ring_degree", "analysis.dft.mac_computed",
            "lfsr.input_digits", "lfsr.length", "trace_repr.digits_checked")


class BenchmarkError(Exception):
    """The benchmark itself is broken; no result is printed."""


def key(args):
    return " ".join(args)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def check_output(args, code, out, outputs):
    """(attempted, failed): one operation per command, one per sweep row.

    A sweep's own operation covers its exit code, header and summary line.
    """
    want = outputs[key(args)]
    got = out.decode(errors="replace")
    if args[0] != "sweep":
        return 1, int(code != want["exit"] or got != want["stdout"])
    got_lines = got.splitlines(keepends=True)
    want_lines = want["stdout"].splitlines(keepends=True)
    failed = int(code != want["exit"] or got_lines[:1] != want_lines[:1]
                 or got_lines[-1:] != want_lines[-1:])
    failed += sum(a != b for a, b in
                  itertools.zip_longest(got_lines[1:-1], want_lines[1:-1]))
    return len(want_lines) - 1, failed


def sweep_rows(outputs):
    """{(p, q): row text} of the reference sweep."""
    lines = outputs[key(SWEEP)]["stdout"].splitlines(keepends=True)[1:-1]
    return {tuple(int(v) for v in row.split(",")[:2]): row for row in lines}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def calibrate():
    """Seconds a fixed pure-Python loop takes: the CPU's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 3 + i) % 65521
    return time.perf_counter() - start


class Child:
    """One `python argv` process in a process group of its own."""

    def __init__(self, argv):
        self.proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                     env=_child_env(), stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, start_new_session=True)
        self.out = self.proc.stdout.fileno()
        self.err = self.proc.stderr.fileno()
        self.data = {self.out: [], self.err: []}
        self.open = {self.out, self.err}

    def signal(self, sig):
        """Signal the process and its children, such as the sweep's workers."""
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def read(self, fd):
        chunk = os.read(fd, 65536)
        if chunk:
            self.data[fd].append(chunk)
        else:
            self.open.discard(fd)

    def finish(self):
        """(exit code, stdout bytes) once both pipes are closed."""
        code = self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()
        if code != 0:
            sys.stderr.write(b"".join(self.data[self.err]).decode(errors="replace"))
        return code, b"".join(self.data[self.out])

    def kill(self):
        self.signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


class Clock:
    """Runs measured processes on chosen CPUs and reports reference seconds.

    A shared machine's speed drifts: on the 2-core baseline machine a 20 ms
    loop took 19 ms or 27 ms from one quarter second to the next, and over
    minutes the share of slow periods changes.  So a measured process and
    its children are confined to a set of CPUs, and every SAMPLE_PERIOD_S
    they are stopped (SIGSTOP to their process group) while the calibration
    loop, which no change to z4seq can touch, is timed on each of those
    CPUs; then they continue.  Each period of running time is scaled by
    CALIBRATION_REF_S over the mean loop time at its two ends, and the
    stopped time is not counted: the result is the time the processes
    would take while the loop runs at its reference speed.  `stops` keeps
    every (stop, continue) time, so that times taken inside the processes
    can leave the stops out (see `unstopped`).
    """

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.stops = []

    def cpus(self, pool):
        """A process pool gets every CPU; any other process gets the first."""
        return self.allowed if pool else {min(self.allowed)}

    def _loop_s(self, cpus):
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
        os.sched_setaffinity(0, cpus)
        return statistics.mean(times)

    def run(self, argvs, cpus, deadline, workers=1):
        """(raw s, reference s, [(exit code or None, stdout bytes)]).

        Runs `python argv` for each argv, at most `workers` at a time, on
        `cpus`; a process still running at `deadline` is killed and its
        exit code reads None.
        """
        pending = list(enumerate(argvs))
        running = []
        results = [(None, b"")] * len(argvs)
        raw = ref = 0.0
        os.sched_setaffinity(0, cpus)  # inherited by every child
        try:
            loop_s = self._loop_s(cpus)
            start = time.perf_counter()

            def lap():
                nonlocal raw, ref, loop_s, start
                stop = time.perf_counter()
                for _, child in running:
                    child.signal(signal.SIGSTOP)
                seg = stop - start
                after = self._loop_s(cpus)
                raw += seg
                ref += seg * 2 * CALIBRATION_REF_S / (loop_s + after)
                loop_s = after
                for _, child in running:
                    child.signal(signal.SIGCONT)
                start = time.perf_counter()
                self.stops.append((stop, start))

            while pending or running:
                while pending and len(running) < workers:
                    index, argv = pending.pop(0)
                    running.append((index, Child(argv)))
                now = time.perf_counter()
                if now >= deadline:
                    break
                until = start + SAMPLE_PERIOD_S
                if now >= until:
                    lap()
                    continue
                fds = {fd: child for _, child in running for fd in child.open}
                ready, _, _ = select.select(list(fds), [], [],
                                            min(until, deadline) - now)
                for fd in ready:
                    fds[fd].read(fd)
                for entry in [e for e in running if not e[1].open]:
                    running.remove(entry)
                    results[entry[0]] = entry[1].finish()
            lap()
        finally:
            for _, child in running:
                child.kill()
            os.sched_setaffinity(0, self.allowed)
        return raw, ref, results


def unstopped(t, stops):
    """Monotonic time `t` less the stopped time before it.

    Spans are taken with `time.perf_counter` inside the traced processes,
    the same system-wide monotonic clock as the stops', so this leaves the
    stops out of every span.
    """
    return t - sum(max(0.0, min(t, cont) - stop) for stop, cont in stops)


def run_cli(args, outputs, tally, clock, deadline):
    """(raw s, reference s) of one checked CLI command."""
    raw, ref, [(code, out)] = clock.run([["-m", "z4seq.cli", *args]],
                                        clock.cpus(args[0] == "sweep"), deadline)
    tally.add(*check_output(args, code, out, outputs))
    return raw, ref


def run_list(commands, outputs, tally, deadline, clock, setup=None):
    """Run every command once in order; {command: (raw s, reference s)}.

    With a `setup` list, one set-up process runs before each command and its
    (raw s, reference s) pair is appended there, so set-up samples spread
    over the whole run.
    """
    seconds = {}
    for args in commands:
        if setup is not None:
            setup.append(run_cli(SETUP, outputs, tally, clock, deadline))
        seconds[key(args)] = run_cli(args, outputs, tally, clock, deadline)
    return seconds


def traced_items(workload, commands, outputs):
    """Per-process traced calls, mirroring the untraced command list."""
    if workload == "sweep":
        return [("analyze", p, q) for p, q in sweep_rows(outputs)]
    return [(args[0], int(args[-3]), int(args[-1])) for args in commands]


def run_traced(workload, items, outputs, tally, deadline, clock):
    """Run `stages.py` per item; (raw s, reference s, [per-item records]).

    The sweep's items run two at a time on every CPU, as the sweep's worker
    pool does; any other item runs alone on the first CPU.
    """
    rows = sweep_rows(outputs) if workload == "sweep" else {}
    argvs = [[str(BENCH / "stages.py"), *map(str, item)] for item in items]
    if workload == "sweep":
        raw, ref, finished = clock.run(argvs, clock.cpus(True), deadline,
                                       workers=SWEEP_WORKERS)
    else:
        raw = ref = 0.0
        finished = []
        for argv in argvs:
            one_raw, one_ref, one = clock.run([argv], clock.cpus(False), deadline)
            raw += one_raw
            ref += one_ref
            finished += one

    records = []
    for item, (code, out) in zip(items, finished):
        command, p, q = item
        if command == "analyze":
            want = rows[(p, q)]
        else:
            want = outputs[key(_pair_command(command, p, q))]["stdout"]
        if code != 0:
            tally.add(1, 1)
            continue
        record = json.loads(out)
        tally.add(1, int(record["stdout"] != want))
        for span in record["spans"]:
            span["start"] = unstopped(span["start"], clock.stops)
            span["end"] = unstopped(span["end"], clock.stops)
        record["item"] = key(map(str, item))
        records.append(record)
    return raw, ref, records


def check_counters(records, counters):
    """Counters are exact: any change from the reference is a benchmark error."""
    for record in records:
        want = counters[record["item"]]
        if record["counters"] != want:
            raise BenchmarkError(f"counters of {record['item']} changed: "
                                 f"{record['counters']} != {want}")


def layer_metrics(records, untraced, traced, workload):
    """Per-layer sums; `untraced` and `traced` are (raw s, reference s) walls."""
    spans = [s for r in records for s in r["spans"]]

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    metrics = {f"{name}_s": {"value": total(name), "unit": "s"}
               for name in SPAN_METRICS}
    for name in COUNTERS:
        value = sum(r["counters"].get(name, 0) for r in records)
        metrics[name] = {"value": value, "unit": "count"}
    serial = total("analysis.analyze")
    eff = 0.0
    if workload == "sweep":
        # Spans are raw running time: the traced pass's own reference/raw
        # ratio brings serial_s into the reference seconds of the wall.
        eff = serial * traced[1] / traced[0] / (untraced[1] * SWEEP_WORKERS)
    metrics["cli.sweep.serial_s"] = {"value": serial, "unit": "s"}
    metrics["cli.sweep.parallel_eff"] = {"value": eff, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": traced[1] - untraced[1], "unit": "s"}
    return metrics


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy, "commit": commit}


def benchmark(workload, seed, seconds, trace, reference):
    """(result, detail): the result line's object and the run's record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    commands = list(WORKLOADS[workload])
    random.Random(seed).shuffle(commands)
    outputs = reference["outputs"]
    tally = Tally()
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "order": [key(a) for a in commands],
              "environment": environment()}

    if trace:
        clock = Clock()
        per_command = run_list(commands, outputs, tally, deadline, clock)
        untraced = tuple(map(sum, zip(*per_command.values())))
        items = traced_items(workload, commands, outputs)
        *traced, records = run_traced(workload, items, outputs, tally,
                                      deadline, clock)
        check_counters(records, reference["counters"])
        metrics = layer_metrics(records, untraced, traced, workload)
        origin = min((s["start"] for r in records for s in r["spans"]), default=0.0)
        for r in records:
            for s in r["spans"]:
                s["start"] = round(s["start"] - origin, 6)
                s["end"] = round(s["end"] - origin, 6)
        detail.update(untraced={"raw_s": untraced[0], "wall_s": untraced[1],
                                "commands": per_command},
                      traced={"raw_s": traced[0], "wall_s": traced[1],
                              "records": records})
    else:
        clock = Clock()
        setup, reps, passes = [], [], []
        start = time.perf_counter()
        while True:  # another pass while it fits in `seconds`
            begun = time.perf_counter()
            reps.append(run_list(commands, outputs, tally, deadline, clock, setup))
            passes.append(time.perf_counter() - begun)
            if time.perf_counter() - start + max(passes) > seconds:
                break
        while len(setup) < SETUP_REPS:
            setup.append(run_cli(SETUP, outputs, tally, clock, deadline))
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        walls = [sum(ref for _, ref in rep.values()) for rep in reps]
        metrics = {
            "setup_s": {"value": statistics.median(ref for _, ref in setup),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
        detail.update(setup_s=setup, reps=reps)

    detail["fail_frac"] = tally.failed / tally.attempted
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, detail


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not CLI_SOURCE.is_file():
        print(f"error: no z4seq source at {CLI_SOURCE.relative_to(ROOT)}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    try:
        result, detail = benchmark(args.workload, args.seed, args.seconds,
                                   args.trace, load_reference())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
