"""Command-line front end: single-pair commands, identity checks, sweeps.

Exit codes: 0 all requested checks passed, 1 a check failed (disagreement,
trace mismatch, failed identity), 2 domain or usage error.  Errors print one
machine-parseable line `ERROR <Code>: <message>` on stderr.
"""

import argparse
import concurrent.futures
import json
import os
import sys
import time

from . import analysis, cyclotomy, sequence, trace_repr
from .errors import TraceFormulaPreconditionFailed, Z4SeqError
from .galois import R_MAX, make_ring, root_of_unity
from .numtheory import mult_order

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


def _require_pair(args):
    if args.p is None or args.q is None:
        raise ValueError("both --p and --q are required")
    return args.p, args.q


def _ring_and_beta(system, r_max):
    ell = mult_order(2, system.pq)
    ring = make_ring(ell, r_max)
    return ring, root_of_unity(ring, system.pq)


def cmd_system(args) -> int:
    p, q = _require_pair(args)
    system = cyclotomy.build_system(p, q)
    summary = system.summary()
    fmt = _setting(args, "format", "text")
    if fmt == "json":
        text = json.dumps(summary, indent=2) + "\n"
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
        report = analysis.analyze(system, r_max)
        if fmt == "json":
            text = json.dumps(report.to_dict(), indent=2) + "\n"
        elif fmt == "csv":
            text = analysis.AnalysisReport.CSV_HEADER + "\n" + report.csv_row() + "\n"
        else:
            verdict = "AGREE" if report.agree else "DISAGREE"
            text = (f"{report.lc_formula} {report.lc_dft} "
                    f"{report.lc_reeds_sloane} {verdict}\n")
        _emit(text, out)
        return 0 if report.agree else 1

    if method == "formula":
        value = analysis.lc_by_theorem(system)
    elif method == "dft":
        ring, beta = _ring_and_beta(system, r_max)
        value = analysis.lc_by_count(analysis.dft(sequence.generate(system), ring, beta))
    elif method == "reeds-sloane":
        from .lfsr import reeds_sloane
        value = reeds_sloane(sequence.generate(system).digits * 2).length
    else:
        raise ValueError(f"unknown method {method!r}")
    if fmt == "json":
        text = json.dumps({"p": p, "q": q, "method": method, "value": value}) + "\n"
    else:
        text = f"{value}\n"
    _emit(text, out)
    return 0


def cmd_defpoly(args) -> int:
    p, q = _require_pair(args)
    r_max = _setting(args, "r_max", R_MAX)
    system = cyclotomy.build_system(p, q)
    ring, beta = _ring_and_beta(system, r_max)
    defpoly = analysis.dft(sequence.generate(system), ring, beta)
    fmt = _setting(args, "format", "text")
    rows = [(u, cyclotomy.classify(system, u), "".join(str(c) for c in coeff.coeffs))
            for u, coeff in enumerate(defpoly.coeffs)]
    if fmt == "json":
        text = json.dumps(
            {"p": p, "q": q, "ring_degree": ring.r,
             "coefficients": [
                 {"exponent": u, "label": lab, "coefficient": cf}
                 for u, lab, cf in rows
             ]}, indent=2) + "\n"
    else:
        lines = ["exponent,label,coefficient"]
        lines += [f"{u},{lab},{cf}" for u, lab, cf in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_trace(args) -> int:
    if args.check:
        print("note: trace --check is deprecated and has no effect; "
              "the check always runs", file=sys.stderr)
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

    pairs = analysis.admissible_pairs(p_max, q_max, r_max)
    if workers <= 0:
        workers = min(8, os.cpu_count() or 1)
    workers = min(workers, max(1, len(pairs)))

    rows = []
    sink = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout

    def flush(text):
        sink.write(text)
        sink.flush()

    try:
        header = list(_SWEEP_COLUMNS) + (["seconds"] if timings else []) + ["error"]
        if fmt == "csv":
            flush(",".join(header) + "\n")
        if workers == 1 or len(pairs) <= 1:
            results = (_sweep_worker(pair, r_max) for pair in pairs)
            for row in results:
                rows.append(row)
                if fmt == "csv":
                    flush(_sweep_row_text(row, timings) + "\n")
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_sweep_worker, pair, r_max) for pair in pairs]
                # consume in submission order: deterministic rows, progressive flush
                for fut in futures:
                    row = fut.result()
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
            flush(json.dumps({"rows": rows, "summary": summary}, indent=2) + "\n")
        else:
            for row in rows:
                flush(_sweep_row_text(row, timings).replace(",", "\t") + "\n")
            flush(f"pairs={len(rows)} agree={agree} disagree={disagree} "
                  f"errors={errors}\n")
    finally:
        if out_path:
            sink.close()
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

    def add_common(sp, pair=True):
        if pair:
            sp.add_argument("--p", type=int, help="first prime")
            sp.add_argument("--q", type=int, help="second prime")
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        help="output format (default text)")
        sp.add_argument("--out", help="write output to this file")
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--r-max", dest="r_max", type=int,
                        help=f"ring-degree cap (default {R_MAX})")

    add_common(sub.add_parser("system", help="print the cyclotomic system summary"))
    add_common(sub.add_parser("gen", help="emit one period of digits"))
    sp = sub.add_parser("lc", help="linear complexity by chosen method(s)")
    add_common(sp)
    sp.add_argument("--method", choices=("formula", "dft", "reeds-sloane", "all"),
                    help="method (default all)")
    add_common(sub.add_parser("defpoly", help="dump defining polynomial coefficients"))
    sp = sub.add_parser("trace", help="check the trace form digit-for-digit")
    add_common(sp)
    sp.add_argument("--check", action="store_true",
                    help="deprecated, no effect")
    add_common(sub.add_parser("verify", help="run the structural identity suite"))
    sp = sub.add_parser("sweep", help="analyze all admissible pairs under the caps")
    add_common(sp, pair=False)
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
