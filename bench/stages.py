"""Traced run of one CLI command on one pair, in a process of its own.

Calls the public stage functions in the order the CLI command runs them,
records a span around each call from outside the library, and prints one
JSON object: the spans, the pair's exact counters, and the stdout text the
CLI prints for the same call (or the sweep row, for `analyze`).

    PYTHONPATH=src python3 bench/stages.py lc 5 113

Commands: `lc` (`lc --method all`), `verify`, `trace`, and `analyze` (one
sweep row: the `lc` pipeline under its sweep name).  Every command starts
from a cold library, as a CLI call does, because each runs in a fresh
process.
"""

import importlib
import json
import sys
import time


class Tracer:
    """Spans (name, start, end, parent, pair) kept in memory until exit."""

    def __init__(self, pair: str):
        self.pair = pair
        self.spans = []
        self._open = []

    def span(self, name, fn, *args):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": parent, "pair": self.pair})


def ring_for(t, z, p, q):
    system = t.span("cyclotomy.build_system", z.cyclotomy.build_system, p, q)
    ell = z.numtheory.mult_order(2, system.pq)
    ring = t.span("galois.make_ring", z.galois.make_ring, ell, z.galois.R_MAX)
    beta = t.span("galois.root_of_unity", z.galois.root_of_unity, ring, system.pq)
    return system, ring, beta


def run_lc(t, z, p, q):
    """The pipeline of `analysis.analyze`, one public stage at a time."""
    system, ring, beta = ring_for(t, z, p, q)
    seq = t.span("sequence.generate", z.sequence.generate, system)
    pows = t.span("analysis.power_table", z.analysis.power_table, beta, system.pq)
    defpoly = t.span("analysis.dft", z.analysis.dft, seq, ring, beta)
    t.span("analysis.rho_value", z.analysis.rho_value, system, beta, pows)
    synth = t.span("lfsr.reeds_sloane", z.lfsr.reeds_sloane, seq.digits * 2)
    lcs = (z.analysis.lc_by_theorem(system), z.analysis.lc_by_count(defpoly),
           synth.length)
    counters = {
        "galois.ring_degree": ring.r,
        "analysis.dft.mac_computed": system.pq ** 2 * ring.r,
        "lfsr.input_digits": 2 * system.pq,
        "lfsr.length": synth.length,
    }
    return system, lcs, counters


def cmd_lc(t, z, p, q):
    _, lcs, counters = run_lc(t, z, p, q)
    verdict = "AGREE" if len(set(lcs)) == 1 else "DISAGREE"
    return "{} {} {} {}\n".format(*lcs, verdict), counters


def cmd_analyze(t, z, p, q):
    system, lcs, counters = run_lc(t, z, p, q)
    agree = "true" if len(set(lcs)) == 1 else "false"
    row = [p, q, system.case, system.two_class, *lcs, agree,
           counters["galois.ring_degree"], ""]
    return ",".join(str(v) for v in row) + "\n", counters


def cmd_verify(t, z, p, q):
    system, ring, beta = ring_for(t, z, p, q)
    checks = t.span("analysis.verify_identities", z.analysis.verify_identities,
                    system, ring, beta)
    lines = [f"{name} {'PASS' if ok else 'FAIL'}" for name, ok in checks.items()]
    lines.append(f"result {'PASS' if all(checks.values()) else 'FAIL'}")
    return "\n".join(lines) + "\n", {"galois.ring_degree": ring.r}


def cmd_trace(t, z, p, q):
    system, ring, beta = ring_for(t, z, p, q)
    params = t.span("trace_repr.trace_params", z.trace_repr.trace_params,
                    system, ring, beta)
    ok, first = t.span("trace_repr.check_trace_repr", z.trace_repr.check_trace_repr,
                       system, ring, beta, params)
    counters = {"galois.ring_degree": ring.r,
                "trace_repr.digits_checked": system.pq if ok else first + 1}
    return ("PASS\n" if ok else f"FAIL first_mismatch={first}\n"), counters


COMMANDS = {"lc": cmd_lc, "analyze": cmd_analyze, "verify": cmd_verify,
            "trace": cmd_trace}
# The root span of each command; `analysis.analyze` spans sum to the sweep's
# serial time.
ROOT_SPANS = {"lc": "cli.lc", "analyze": "analysis.analyze",
              "verify": "cli.verify", "trace": "cli.trace"}


def main(argv):
    command, p, q = argv[0], int(argv[1]), int(argv[2])
    tracer = Tracer(f"{p},{q}")
    # The same modules a CLI call imports: numpy, every z4seq stage, argparse.
    tracer.span("cli.import", importlib.import_module, "z4seq.cli")
    z = sys.modules["z4seq"]
    stdout, counters = tracer.span(ROOT_SPANS[command], COMMANDS[command],
                                   tracer, z, p, q)
    print(json.dumps({"command": command, "pair": tracer.pair, "stdout": stdout,
                      "counters": counters, "spans": tracer.spans}))


if __name__ == "__main__":
    main(sys.argv[1:])
