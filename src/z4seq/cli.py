"""Command-line front end: single-pair commands, identity checks, sweeps.

Exit codes: 0 all requested checks passed, 1 a check failed (disagreement,
trace mismatch, failed identity), 2 domain or usage error.  Errors print one
machine-parseable line `ERROR <Code>: <message>` on stderr.

Every command runs on the standard library and imports only what it runs:
the class data and the sequence are integer arithmetic, the ring modules
(`galois`, `analysis`, `trace_repr`), whose arithmetic is on packed ints,
and `lfsr` are imported by the commands that use them, the forked worker
pool `_pool` only by a pooled sweep, and `json` only on the branches that
write JSON.
"""

import argparse
import contextlib
import functools
import os
import sys
import time

from . import cyclotomy, sequence
from .errors import TraceFormulaPreconditionFailed, Z4SeqError
from .numtheory import R_MAX, mult_order

SWEEP_R_MAX_DEFAULT = 32


def _load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; keys use flag spelling."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(parser, args):
    """Fill the flags left unset on the command line from the --config file.

    Each value is checked like its flag, with the subcommand's own argparse
    `type` and `choices`; a key that names no valued flag is an error.
    """
    commands = next(a for a in parser._actions if a.dest == "command")
    actions = {a.dest: a for a in commands.choices[args.command]._actions
               if a.option_strings and a.nargs != 0 and a.dest != "config"}
    for key, raw in _load_config(args.config).items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r} for {args.command}")
        try:
            value = action.type(raw) if action.type else raw
        except ValueError as exc:
            raise ValueError(f"config {key}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config {key} = {raw!r} is not one of "
                             f"{', '.join(action.choices)}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _setting(args, name, default):
    value = getattr(args, name)
    return default if value is None else value


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj, indent=2) -> str:
    import json  # text and CSV output never load it

    return json.dumps(obj, indent=indent) + "\n"


def _require_pair(args):
    if args.p is None or args.q is None:
        raise ValueError("both --p and --q are required")
    return args.p, args.q


def _ring_and_beta(system, r_max):
    from .galois import make_ring, root_of_unity

    ell = mult_order(2, system.pq)
    ring = make_ring(ell, r_max)
    return ring, root_of_unity(ring, system.pq)


def cmd_system(args) -> int:
    p, q = _require_pair(args)
    system = cyclotomy.build_system(p, q)
    summary = system.summary()
    fmt = _setting(args, "format", "text")
    if fmt == "json":
        text = _json_text(summary)
    else:
        parts = [f"{k}={v}" for k, v in summary.items() if k != "class_sizes"]
        parts += [f"size_{lab}={n}" for lab, n in summary["class_sizes"].items()]
        text = "\n".join(parts) + "\n"
    _emit(text, args.out)
    return 0


def cmd_gen(args) -> int:
    p, q = _require_pair(args)
    system = cyclotomy.build_system(p, q)
    seq = sequence.generate(system)
    fmt = _setting(args, "format", "text")
    text = sequence.to_csv(seq) if fmt == "csv" else sequence.to_text(seq)
    _emit(text, args.out)
    return 0


def cmd_lc(args) -> int:
    p, q = _require_pair(args)
    method = _setting(args, "method", "all")
    r_max = _setting(args, "r_max", R_MAX)
    system = cyclotomy.build_system(p, q)
    fmt = _setting(args, "format", "text")
    out = args.out

    if method == "all":
        from . import analysis

        report = analysis.analyze(system, r_max)
        if fmt == "json":
            text = _json_text(report.to_dict())
        elif fmt == "csv":
            text = analysis.AnalysisReport.CSV_HEADER + "\n" + report.csv_row() + "\n"
        else:
            verdict = "AGREE" if report.agree else "DISAGREE"
            text = (f"{report.lc_formula} {report.lc_dft} "
                    f"{report.lc_reeds_sloane} {verdict}\n")
        _emit(text, out)
        return 0 if report.agree else 1

    if method == "formula":
        value = cyclotomy.lc_by_theorem(system)
    elif method == "dft":
        from . import analysis

        ring, beta = _ring_and_beta(system, r_max)
        value = analysis.lc_by_count(analysis.dft(sequence.generate(system), ring, beta))
    elif method == "reeds-sloane":
        from .lfsr import reeds_sloane
        value = reeds_sloane(sequence.generate(system).digits * 2).length
    else:
        raise ValueError(f"unknown method {method!r}")
    if fmt == "json":
        text = _json_text({"p": p, "q": q, "method": method, "value": value}, indent=None)
    else:
        text = f"{value}\n"
    _emit(text, out)
    return 0


def cmd_defpoly(args) -> int:
    from . import analysis

    p, q = _require_pair(args)
    r_max = _setting(args, "r_max", R_MAX)
    system = cyclotomy.build_system(p, q)
    ring, beta = _ring_and_beta(system, r_max)
    defpoly = analysis.dft(sequence.generate(system), ring, beta)
    fmt = _setting(args, "format", "text")
    rows = [(u, cyclotomy.classify(system, u), "".join(str(c) for c in coeff.coeffs))
            for u, coeff in enumerate(defpoly.coeffs)]
    if fmt == "json":
        text = _json_text(
            {"p": p, "q": q, "ring_degree": ring.r,
             "coefficients": [
                 {"exponent": u, "label": lab, "coefficient": cf}
                 for u, lab, cf in rows
             ]})
    else:
        lines = ["exponent,label,coefficient"]
        lines += [f"{u},{lab},{cf}" for u, lab, cf in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_trace(args) -> int:
    from . import trace_repr

    p, q = _require_pair(args)
    r_max = _setting(args, "r_max", R_MAX)
    system = cyclotomy.build_system(p, q)
    ring, beta = _ring_and_beta(system, r_max)
    out = args.out
    try:
        params = trace_repr.trace_params(system, ring, beta)
    except TraceFormulaPreconditionFailed as exc:
        _emit(f"PRECONDITION-FAILED {exc}\n", out)
        return 1
    ok, first = trace_repr.check_trace_repr(system, ring, beta, params)
    if ok:
        _emit("PASS\n", out)
        return 0
    _emit(f"FAIL first_mismatch={first}\n", out)
    return 1


def cmd_verify(args) -> int:
    from . import analysis

    p, q = _require_pair(args)
    r_max = _setting(args, "r_max", R_MAX)
    system = cyclotomy.build_system(p, q)
    ring, beta = _ring_and_beta(system, r_max)
    checks = analysis.verify_identities(system, ring, beta)
    lines = [f"{name} {'PASS' if ok else 'FAIL'}" for name, ok in checks.items()]
    all_ok = all(checks.values())
    lines.append(f"result {'PASS' if all_ok else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def _sweep_worker(pair, r_max):
    from . import analysis

    p, q = pair
    started = time.perf_counter()
    try:
        report = analysis.analyze(cyclotomy.build_system(p, q), r_max)
        row = report.to_dict()
        row["error"] = ""
    except Exception as exc:  # a failing pair is a row, never a lost sweep
        row = {"p": p, "q": q, "error": f"{type(exc).__name__}: {exc}"}
    row["seconds"] = round(time.perf_counter() - started, 3)
    return row


def _lost_row(pair, reason):
    p, q = pair
    return {"p": p, "q": q, "error": f"WorkerLost: {reason}"}


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_SWEEP_COLUMNS = ("p", "q", "case", "two_class", "lc_formula", "lc_dft",
                  "lc_reeds_sloane", "agree", "ring_degree")


def _sweep_row_text(row, timings):
    vals = [str(row.get(col, "")) for col in _SWEEP_COLUMNS]
    if timings:
        vals.append(str(row.get("seconds", "")))
    vals.append(row.get("error", ""))
    return ",".join(v.lower() if v in ("True", "False") else v for v in vals)


def cmd_sweep(args) -> int:
    p_max = _setting(args, "p_max", 40)
    q_max = _setting(args, "q_max", 40)
    r_max = _setting(args, "r_max", SWEEP_R_MAX_DEFAULT)
    if r_max > R_MAX:
        raise ValueError(f"r_max {r_max} exceeds the hard cap {R_MAX}")
    fmt = _setting(args, "format", "csv")
    out_path = args.out
    timings = args.timings
    workers = _setting(args, "workers", 0)

    from . import analysis

    pairs = analysis.admissible_pairs(p_max, q_max, r_max)
    if workers <= 0:
        workers = min(8, _usable_cpus())
    if not hasattr(os, "fork"):
        workers = 1  # the pool forks; without fork the sweep runs serially
    workers = min(workers, max(1, len(pairs)))
    work = functools.partial(_sweep_worker, r_max=r_max)

    rows = []
    with contextlib.ExitStack() as stack:
        sink = (stack.enter_context(open(out_path, "w", encoding="utf-8"))
                if out_path else sys.stdout)

        def flush(text):
            sink.write(text)
            sink.flush()

        header = list(_SWEEP_COLUMNS) + (["seconds"] if timings else []) + ["error"]
        if fmt == "csv":
            flush(",".join(header) + "\n")
        if workers == 1:
            results = map(work, pairs)
        else:
            # lfsr loads here once, not in every child
            from . import _pool, lfsr  # noqa: F401

            results = stack.enter_context(contextlib.closing(
                _pool.imap(work, pairs, workers, _lost_row)))
        # rows come in submission order: deterministic output, progressive flush
        for row in results:
            rows.append(row)
            if fmt == "csv":
                flush(_sweep_row_text(row, timings) + "\n")

        agree = sum(1 for r in rows if r.get("agree") is True)
        disagree = sum(1 for r in rows if r.get("agree") is False)
        errors = sum(1 for r in rows if r.get("error"))
        summary = {"pairs": len(rows), "agree": agree,
                   "disagree": disagree, "errors": errors}
        if fmt == "csv":
            flush(f"# pairs={len(rows)} agree={agree} disagree={disagree} "
                  f"errors={errors}\n")
        elif fmt == "json":
            if not timings:
                for r in rows:
                    r.pop("seconds", None)
            flush(_json_text({"rows": rows, "summary": summary}))
        else:
            for row in rows:
                flush(_sweep_row_text(row, timings).replace(",", "\t") + "\n")
            flush(f"pairs={len(rows)} agree={agree} disagree={disagree} "
                  f"errors={errors}\n")
    return 0 if disagree == 0 and errors == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z4seq",
        description="Quaternary sequences over Z4 from order-four generalized "
                    "cyclotomy: generation, defining polynomials, linear "
                    "complexity, trace checks, sweeps.",
        epilog="Exit codes: 0 all checks passed, 1 a check failed, 2 error. "
               "CSV sweep columns: " + ",".join(_SWEEP_COLUMNS) + ",error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, formats, default="text", pair=True, r_max=None):
        """Shared flags; `formats` lists the output formats the subcommand writes.

        `r_max` is the ring-degree cap's default, for subcommands that build a ring.
        """
        if pair:
            sp.add_argument("--p", type=int, help="first prime")
            sp.add_argument("--q", type=int, help="second prime")
        sp.add_argument("--format", choices=formats,
                        help=f"output format (default {default})")
        sp.add_argument("--out", help="write output to this file")
        sp.add_argument("--config", help="flat key=value config file")
        if r_max is not None:
            sp.add_argument("--r-max", dest="r_max", type=int,
                            help=f"ring-degree cap (default {r_max})")

    all_formats = ("text", "json", "csv")
    add_common(sub.add_parser("system", help="print the cyclotomic system summary"),
               ("text", "json"))
    add_common(sub.add_parser("gen", help="emit one period of digits"),
               ("text", "csv"))
    sp = sub.add_parser("lc", help="linear complexity by chosen method(s)")
    add_common(sp, all_formats, r_max=R_MAX)
    sp.add_argument("--method", choices=("formula", "dft", "reeds-sloane", "all"),
                    help="method (default all)")
    add_common(sub.add_parser("defpoly", help="dump defining polynomial coefficients"),
               all_formats, r_max=R_MAX)
    add_common(sub.add_parser("trace", help="check the trace form digit-for-digit"),
               ("text",), r_max=R_MAX)
    add_common(sub.add_parser("verify", help="run the structural identity suite"),
               ("text",), r_max=R_MAX)
    sp = sub.add_parser("sweep", help="analyze all admissible pairs under the caps")
    add_common(sp, all_formats, default="csv", pair=False, r_max=SWEEP_R_MAX_DEFAULT)
    sp.add_argument("--p-max", dest="p_max", type=int, help="cap on p (default 40)")
    sp.add_argument("--q-max", dest="q_max", type=int, help="cap on q (default 40)")
    sp.add_argument("--workers", type=int, help="worker processes (default auto)")
    sp.add_argument("--timings", action="store_true",
                    help="include per-pair seconds (output no longer deterministic)")
    return parser


_COMMANDS = {
    "system": cmd_system,
    "gen": cmd_gen,
    "lc": cmd_lc,
    "defpoly": cmd_defpoly,
    "trace": cmd_trace,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
        return _COMMANDS[args.command](args)
    except Z4SeqError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
