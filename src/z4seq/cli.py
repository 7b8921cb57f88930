"""Command-line front end: single-pair commands, identity checks, sweeps.

Exit codes: 0 all checks passed, 1 a check failed (disagreement, a register
failing its own check, trace mismatch, failed identity), 2 domain or usage
error or a failed write of any output (all of it, argparse's help and usage
too, goes through `_write`; a stream the process lacks fails there).  Errors
print one machine-parseable line `ERROR <Code>: <message>` on stderr, where
stderr can take it.

Every command runs on the standard library and imports only what it runs:
the class data are integer arithmetic, and `sequence`, the ring modules
(`galois`, `analysis`, `trace_repr`), whose arithmetic is on packed ints,
and `lfsr` are imported by the commands that use them (`system` and `lc
--method formula` load none of them), the sweep's rows and worker pool
`_sweep` only by `sweep`, and `json` only on the branches that write JSON.
"""

import argparse
import atexit
import contextlib
import os
import sys

from . import cyclotomy
from .errors import TraceFormulaPreconditionFailed, Z4SeqError
from .numtheory import R_MAX

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


def _apply_config(parser, args, argv):
    """Parse argv again with the --config file's values as the defaults.

    Each value is checked like its flag, with the subcommand's own argparse
    `type` and `choices`; a key that names no valued flag is an error.  Flags
    given on the command line override the file.
    """
    commands = next(a for a in parser._actions if a.dest == "command")
    subparser = commands.choices[args.command]
    actions = {a.dest: a for a in subparser._actions
               if a.option_strings and a.nargs != 0 and a.dest != "config"}
    values = {}
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
        values[key] = value
    subparser.set_defaults(**values)
    return parser.parse_args(argv)


def _write(stream, text: str) -> None:
    """Write text through the stream's binary layer, if it has one; flush both.

    An unbuffered binary layer (PYTHONUNBUFFERED) may take only part of a
    write, as when a pipe's reader closes; the text layer would drop the
    tail unseen, so each write's count is checked and the rest written
    again, which raises BrokenPipeError once the reader is gone.  A buffered
    layer keeps the bytes a failed write left (gone reader, full device),
    and the flush at exit would fail on them again; so before any OSError
    goes on, the stream's descriptor is pointed at `os.devnull`, as the
    `signal` docs do on SIGPIPE.  `sys.stdout` is None in a process started
    with stdout closed; writing to it raises OSError(EBADF).
    """
    if stream is None:
        import errno  # only this branch reads it

        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    if not hasattr(stream, "buffer"):  # a text-only stream takes each write whole
        stream.write(text)
        return
    try:
        stream.flush()
        data = memoryview(text.encode(stream.encoding, stream.errors))
        while data:
            written = stream.buffer.write(data)
            data = data[written:]
        stream.buffer.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write(fh, text)
    else:
        _write(sys.stdout, text)


def _json_text(obj, indent=2) -> str:
    import json  # text and CSV output never load it

    return json.dumps(obj, indent=indent) + "\n"


def _system(args):
    if args.p is None or args.q is None:
        raise ValueError("both --p and --q are required")
    return cyclotomy.build_system(args.p, args.q)


def cmd_system(args) -> int:
    summary = _system(args).summary()
    if args.format == "json":
        text = _json_text(summary)
    else:
        parts = [f"{k}={v}" for k, v in summary.items() if k != "class_sizes"]
        parts += [f"size_{lab}={n}" for lab, n in summary["class_sizes"].items()]
        text = "\n".join(parts) + "\n"
    _emit(text, args.out)
    return 0


def cmd_gen(args) -> int:
    from . import sequence

    seq = sequence.generate(_system(args))
    text = sequence.to_csv(seq) if args.format == "csv" else sequence.to_text(seq)
    _emit(text, args.out)
    return 0


def cmd_lc(args) -> int:
    system = _system(args)
    method = args.method
    if method == "all":
        from . import analysis

        row = analysis.analyze(system, args.r_max)
        if args.format == "json":
            text = _json_text(row)
        elif args.format == "csv":
            text = f"{_LC_CSV_HEADER}\n{_line(row, _SWEEP_COLUMNS[:8], ',')}\n"
        else:
            verdict = "AGREE" if row["agree"] else "DISAGREE"
            text = (f"{row['lc_formula']} {row['lc_dft']} "
                    f"{row['lc_reeds_sloane']} {verdict}\n")
        _emit(text, args.out)
        return 0 if row["agree"] else 1

    ok = True  # False only for a register that fails its own check
    if method == "formula":
        value = cyclotomy.lc_by_theorem(system)
    elif method == "dft":
        from . import analysis, sequence

        ring, beta = analysis._ring_and_beta(system, args.r_max)
        pows = analysis.power_table(beta, system.pq)
        value = analysis.coset_dft(sequence.generate(system), ring, pows)[0]
    else:  # reeds-sloane: argparse and the config check admit no other method
        from . import lfsr, sequence
        synth = lfsr.reeds_sloane(sequence.generate(system).digits * 2)
        value, ok = synth.length, synth.annihilates
    if args.format == "json":
        text = _json_text({"p": system.p, "q": system.q, "method": method, "value": value},
                          indent=None)
    else:
        text = f"{value}\n"
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_defpoly(args) -> int:
    from . import analysis, sequence

    system = _system(args)
    ring, beta = analysis._ring_and_beta(system, args.r_max)
    coeffs = analysis.dft(sequence.generate(system), ring, beta)
    rows = [(u, system.class_of[u], "".join(str(c) for c in ring.digits(coeff)))
            for u, coeff in enumerate(coeffs)]
    if args.format == "json":
        text = _json_text(
            {"p": system.p, "q": system.q, "ring_degree": ring.r,
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
    from . import analysis, trace_repr

    system = _system(args)
    ring, beta = analysis._ring_and_beta(system, args.r_max)
    try:
        params = trace_repr.trace_params(system, ring, beta)
    except TraceFormulaPreconditionFailed as exc:
        _emit(f"PRECONDITION-FAILED {exc}\n", args.out)
        return 1
    ok, first = trace_repr.check_trace_repr(system, ring, beta, params)
    _emit("PASS\n" if ok else f"FAIL first_mismatch={first}\n", args.out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from . import analysis

    system = _system(args)
    ring, beta = analysis._ring_and_beta(system, args.r_max)
    checks = analysis.verify_identities(system, ring, beta)
    checks["result"] = all(checks.values())
    _emit("".join(f"{name} {'PASS' if ok else 'FAIL'}\n" for name, ok in checks.items()),
          args.out)
    return 0 if checks["result"] else 1


_SWEEP_COLUMNS = ("p", "q", "case", "two_class", "lc_formula", "lc_dft",
                  "lc_reeds_sloane", "agree", "ring_degree")
# `lc --format csv` writes the first eight sweep columns under this header
_LC_CSV_HEADER = "p,q,case,two_class,lc_formula,lc_dft,lc_rs,agree"


def _line(row, columns, sep) -> str:
    """The row's values under `columns` joined by `sep`, booleans lower-case.

    A field holding `sep`, a CR or an LF is quoted, its quotes doubled, and in
    CSV (`sep` ",") so is one holding a double quote: `csv.writer`'s quoting
    with its default "\r\n" terminator (with `lineterminator="\n"` it leaves
    a lone CR bare).  A text row keeps a bare double quote as it is.
    """
    specials = sep + '"\r\n' if sep == "," else sep + "\r\n"
    vals = [str(row.get(col, "")) for col in columns]
    vals = [v.lower() if v in ("True", "False") else v for v in vals]
    return sep.join('"' + v.replace('"', '""') + '"' if any(c in v for c in specials)
                    else v for v in vals)


def cmd_sweep(args) -> int:
    r_max, fmt, out_path, timings = args.r_max, args.format, args.out, args.timings
    if r_max > R_MAX:
        raise ValueError(f"r_max {r_max} exceeds the hard cap {R_MAX}")

    from . import _sweep, analysis

    pairs = analysis.admissible_pairs(args.p_max, args.q_max, r_max)
    columns = _SWEEP_COLUMNS + (("seconds",) if timings else ()) + ("error",)
    rows = []
    with contextlib.ExitStack() as stack:
        sink = (stack.enter_context(open(out_path, "w", encoding="utf-8"))
                if out_path else sys.stdout)
        if fmt == "csv":
            _write(sink, ",".join(columns) + "\n")
        # rows come in pair order: deterministic output, progressive flush
        for row in stack.enter_context(contextlib.closing(
                _sweep.rows(pairs, r_max, args.workers))):
            rows.append(row)
            if fmt != "json":
                _write(sink, _line(row, columns, "," if fmt == "csv" else "\t") + "\n")

        summary = {"pairs": len(rows),
                   "agree": sum(r.get("agree") is True for r in rows),
                   "disagree": sum(r.get("agree") is False for r in rows),
                   "errors": sum(bool(r.get("error")) for r in rows)}
        counts = " ".join(f"{key}={n}" for key, n in summary.items()) + "\n"
        if fmt == "csv":
            _write(sink, "# " + counts)
        elif fmt == "json":
            if not timings:
                for r in rows:
                    r.pop("seconds", None)
            _write(sink, _json_text({"rows": rows, "summary": summary}))
        else:
            _write(sink, counts)
    return 0 if summary["disagree"] == summary["errors"] == 0 else 1


class _Parser(argparse.ArgumentParser):
    """argparse, each message written by `_write` to the stream argparse names.

    argparse's own writer drops an OSError and swaps a missing stream (None)
    for the other: the help onto stderr, a usage error's usage onto stdout.
    """

    def _print_message(self, message, file=None):
        if message:
            _write(file, message)

    def error(self, message):
        self.exit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="z4seq",
        description="Quaternary sequences over Z4 from order-four generalized "
                    "cyclotomy: generation, defining polynomials, linear "
                    "complexity, trace checks, sweeps.",
        epilog="Exit codes: 0 all checks passed, 1 a check failed, 2 error. "
               "CSV sweep columns: " + ",".join(_SWEEP_COLUMNS) + ",error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, run, formats, default="text", pair=True, r_max=None):
        """Bind the subcommand to `run` and add the shared flags.

        `formats` lists the output formats the subcommand writes; `r_max` is
        the ring-degree cap's default, for subcommands that build a ring.
        """
        sp.set_defaults(run=run)
        if pair:
            sp.add_argument("--p", type=int, help="first prime")
            sp.add_argument("--q", type=int, help="second prime")
        sp.add_argument("--format", choices=formats, default=default,
                        help="output format (default %(default)s)")
        sp.add_argument("--out", help="write output to this file")
        sp.add_argument("--config", help="flat key=value config file")
        if r_max is not None:
            sp.add_argument("--r-max", dest="r_max", type=int, default=r_max,
                            help="ring-degree cap (default %(default)s)")

    all_formats = ("text", "json", "csv")
    add_common(sub.add_parser("system", help="print the cyclotomic system summary"),
               cmd_system, ("text", "json"))
    add_common(sub.add_parser("gen", help="emit one period of digits"),
               cmd_gen, ("text", "csv"))
    sp = sub.add_parser("lc", help="linear complexity by chosen method(s)")
    add_common(sp, cmd_lc, all_formats, r_max=R_MAX)
    sp.add_argument("--method", choices=("formula", "dft", "reeds-sloane", "all"),
                    default="all", help="method (default %(default)s)")
    add_common(sub.add_parser("defpoly", help="dump defining polynomial coefficients"),
               cmd_defpoly, all_formats, r_max=R_MAX)
    add_common(sub.add_parser("trace", help="check the trace form digit-for-digit"),
               cmd_trace, ("text",), r_max=R_MAX)
    add_common(sub.add_parser("verify", help="run the structural identity suite"),
               cmd_verify, ("text",), r_max=R_MAX)
    sp = sub.add_parser("sweep", help="analyze all admissible pairs under the caps")
    add_common(sp, cmd_sweep, all_formats, default="csv", pair=False, r_max=SWEEP_R_MAX_DEFAULT)
    sp.add_argument("--p-max", dest="p_max", type=int, default=40,
                    help="cap on p (default %(default)s)")
    sp.add_argument("--q-max", dest="q_max", type=int, default=40,
                    help="cap on q (default %(default)s)")
    sp.add_argument("--workers", type=int, default=0,
                    help="worker processes (default auto)")
    sp.add_argument("--timings", action="store_true",
                    help="include per-pair seconds (output no longer deterministic)")
    return parser


def main(argv=None) -> int:
    """Run one call in this process and return its status: an int for every
    argv and on any text stream, argparse's `--help` and usage exits too."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config(parser, args, argv)
        return args.run(args)
    except SystemExit as exc:  # argparse's --help and usage errors
        return exc.code
    except (Z4SeqError, ValueError, OSError) as exc:
        with contextlib.suppress(OSError):  # no stderr to take it: the status tells
            _write(sys.stderr, f"ERROR {type(exc).__name__}: {exc}\n")
        return 2


def entry() -> None:
    """The process's way out: the atexit handlers, a flush of each standard
    stream the process has, then `os._exit` with `main`'s status, so no
    interpreter teardown follows the last write.  By then `main` has closed
    its files and reaped the sweep's workers, and `_write` has left no bytes
    of a failed write to flush.  An exception `main` lets out,
    KeyboardInterrupt included, ends the process as usual."""
    status = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    entry()
