"""Mutant catalogue: deliberate breaks of the library that named tests must catch.

    python3 tests/mutants.py           # every mutant
    python3 tests/mutants.py NAME ...  # the named ones

The runner copies src/, tests/, bench/ (whose stage script some tests run)
and pyproject.toml to a temporary directory and first runs the union of the
entries' test files there unmutated.  Then, one entry at a time, it replaces
the entry's old string, which must occur exactly once in its file, with the
new one and runs pytest on the entry's test files.  A mutant is killed when
pytest reports failing tests (exit status 1); any other status, a syntax
error for one, counts as a broken entry, and so does a run that outlasts
`PYTEST_TIMEOUT_S`, reported as `timed out`.  Each run is its own process
group, killed whole when it ends, so no process a mutant lets loose outlives
it.  The exit status is 0 only if the unmutated run passes, every old string
matches exactly once and every mutant is killed.  Stdlib only; pytest does
not collect this file.

Three entries break the span oracle `tests/span_reference.py`, not the
library: the tests check it against the SNF reference and the closed form.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST_TIMEOUT_S = 300  # one pytest run; none takes a minute on 2 vCPUs

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = [
    Mutant("orbit-walk-step-2", "src/z4seq/trace_repr.py",
           "tuple(_tiling_orbits(system, lab, step)",
           "tuple(_tiling_orbits(system, lab, 2)",
           ["tests/test_trace_repr.py"]),
    Mutant("tiling-check-dropped", "src/z4seq/trace_repr.py",
           "    if sorted(_flat(found)) != sorted(members):\n"
           "        raise TraceFormulaPreconditionFailed(\n"
           '            f"conjugate orbits do not tile {label} exactly once")\n',
           "",
           ["tests/test_trace_repr.py"]),
    Mutant("fill-sigma-before-first", "src/z4seq/analysis.py",
           "        out[coset[0]] = vals\n",
           "        out[coset[0]] = tuple(ring.sigma(v) for v in vals)\n",
           ["tests/test_analysis.py", "tests/test_cli.py"]),
    Mutant("coset-count-without-sizes", "src/z4seq/analysis.py",
           "sum(len(c) for c, v in pairs if v)",
           "sum(1 for c, v in pairs if v)",
           ["tests/test_analysis.py"]),
    Mutant("dft-fill-walks-cosets-backwards", "src/z4seq/analysis.py",
           "[(c, (v,)) for c, v in pairs]", "[(c[::-1], (v,)) for c, v in pairs]",
           ["tests/test_analysis.py", "tests/test_ring_setup.py", "tests/test_cli.py"]),
    Mutant("taps-without-constant-term", "src/z4seq/galois.py",
           "[j for j in range(r) if f >> j & 1]",
           "[j for j in range(1, r) if f >> j & 1]",
           ["tests/test_ring_setup.py"]),
    Mutant("reeds-sloane-tie-takes-later", "src/z4seq/lfsr.py",
           "cand < bestL", "cand <= bestL",
           ["tests/test_lfsr.py"]),
    Mutant("span-even-half-dropped", "tests/span_reference.py",
           "            else:  # g = 2 * g1\n"
           "                half = g1\n",
           "            else:  # g = 2 * g1\n"
           "                half = 0\n",
           ["tests/test_lfsr.py"]),
    Mutant("span-pivot-half-dropped", "tests/span_reference.py",
           "                half = g0\n", "                half = 0\n",
           ["tests/test_lfsr.py"]),
    Mutant("span-reduction-without-borrow", "tests/span_reference.py",
           "lo, hi = _minus(lo, hi, v)", "lo, hi = lo ^ v[0], hi ^ v[1]",
           ["tests/test_lfsr.py"]),
    Mutant("config-overrides-flags", "src/z4seq/cli.py",
           "    subparser.set_defaults(**values)\n"
           "    return parser.parse_args(argv)\n",
           "    for key, value in values.items():\n"
           "        setattr(args, key, value)\n"
           "    return args\n",
           ["tests/test_cli.py"]),
    Mutant("formula-q-coefficient", "src/z4seq/cyclotomy.py",
           '"Q": (0, s)', '"Q": (0, 0)',
           ["tests/test_analysis.py", "tests/test_trace_repr.py",
            "tests/test_ring_arrays.py"]),
    Mutant("table-d-shift-sign-flipped", "src/z4seq/cyclotomy.py",
           "(1, (s - i) % 4)", "(1, (s + i) % 4)",
           ["tests/test_analysis.py", "tests/test_trace_repr.py"]),
    Mutant("case-rule-case2-half-dropped", "src/z4seq/cyclotomy.py",
           "if (i % 2 == 0) != (system.case == CASE1):",
           "if i % 2 and system.case == CASE1:",
           ["tests/test_trace_repr.py"]),
    Mutant("trace-params-case2-rule-dropped", "src/z4seq/trace_repr.py",
           "    if epsilon is None:\n"
           "        case_two_class(system)  # Case1 checked it for epsilon above\n",
           "",
           ["tests/test_trace_repr.py"]),
    Mutant("no-flush-before-fork", "src/z4seq/_sweep.py",
           "    _flush(sys.stdout, sys.stderr)  # so the children's copies of the buffers are empty\n",
           "",
           ["tests/test_cli.py"]),
    Mutant("child-exits-by-sys-exit", "src/z4seq/_sweep.py",
           "os._exit(status)", "sys.exit(status)",
           ["tests/test_cli.py"]),
    Mutant("child-stdout-not-flushed", "src/z4seq/_sweep.py",
           "_flush(sys.stdout, sys.stderr)  # os._exit skips a normal exit's flush",
           "_flush(sys.stderr)",
           ["tests/test_cli.py"]),
    Mutant("child-stderr-not-flushed", "src/z4seq/_sweep.py",
           "_flush(sys.stdout, sys.stderr)  # os._exit skips a normal exit's flush",
           "_flush(sys.stdout)",
           ["tests/test_cli.py"]),
    Mutant("dead-child-pair-not-lost", "src/z4seq/_sweep.py",
           "done[held] = _lost(pairs[held], worker.reap())", "worker.reap()",
           ["tests/test_cli.py"]),
    Mutant("worker-not-pinned", "src/z4seq/_sweep.py",
           "os.sched_setaffinity(0, {cpu})", "pass",
           ["tests/test_cli.py"]),
    Mutant("workers-share-first-cpu", "src/z4seq/_sweep.py",
           "cpus[i % len(cpus)]", "cpus[0]",
           ["tests/test_cli.py"]),
    Mutant("table-r-coefficient-zero", "src/z4seq/cyclotomy.py",
           '"R": (0, 2)', '"R": (0, 0)',
           ["tests/test_analysis.py", "tests/test_trace_repr.py"]),
    Mutant("sub-without-borrow", "src/z4seq/lfsr.py",
           "return a0 ^ b0, a1 ^ b1 ^ (b0 & ~a0)", "return a0 ^ b0, a1 ^ b1",
           ["tests/test_lfsr.py"]),
    Mutant("sigma-without-reduce", "src/z4seq/galois.py",
           'return self.reduce(int.from_bytes(spread, "little"))',
           'return int.from_bytes(spread, "little")',
           ["tests/test_packed.py"]),
    Mutant("barrett-quotient-slot-off", "src/z4seq/galois.py",
           "SLOT_BITS * max(r - 2, 0)", "SLOT_BITS * max(r - 1, 0)",
           ["tests/test_packed.py"]),
    Mutant("modulus-not-lifted", "src/z4seq/galois.py",
           "GaloisRing(r, _graeffe_lift(f, r))",
           "GaloisRing(r, tuple(f >> i & 1 for i in range(r + 1)))",
           ["tests/test_galois.py", "tests/test_ring_setup.py"]),
    Mutant("class-shift-forced-true", "src/z4seq/analysis.py",
           'checks["class-shift"] = all(', 'checks["class-shift"] = True or all(',
           ["tests/test_analysis.py"]),
    Mutant("verify-rows-without-d3", "src/z4seq/analysis.py",
           "    rows = _class_rows(system, ring, pows)\n",
           "    rows = _class_rows(system, ring, pows)[:3] + (0,)\n",
           ["tests/test_analysis.py", "tests/test_cli.py"]),
    Mutant("coset-sums-at-last-index", "src/z4seq/analysis.py",
           "        u = coset[0]\n", "        u = coset[-1]\n",
           ["tests/test_analysis.py"]),
    Mutant("class-sums-at-zero", "src/z4seq/analysis.py",
           "range(q, n, q)", "range(0, n, q)",
           ["tests/test_analysis.py"]),
    Mutant("class-rows-rotated", "src/z4seq/analysis.py",
           "[1], [system.classes[lab] for lab in D_LABELS]",
           "[1], [system.classes[lab] for lab in D_LABELS[1:] + D_LABELS[:1]]",
           ["tests/test_analysis.py", "tests/test_trace_repr.py"]),
    Mutant("reap-without-waitpid", "src/z4seq/_sweep.py",
           "_, status = os.waitpid(self.pid, 0)", "status = 0",
           ["tests/test_cli.py"]),
    Mutant("exit-skips-flush", "src/z4seq/cli.py",
           "    for stream in (sys.stdout, sys.stderr):\n", "    for stream in ():\n",
           ["tests/test_exit.py"]),
    Mutant("exit-drops-status", "src/z4seq/cli.py",
           "    os._exit(status)\n", "    os._exit(0)\n",
           ["tests/test_exit.py"]),
    Mutant("exit-skips-atexit", "src/z4seq/cli.py",
           "    atexit._run_exitfuncs()\n", "",
           ["tests/test_exit.py"]),
    Mutant("broken-pipe-keeps-stdout", "src/z4seq/cli.py",
           "os.dup2(devnull, stream.fileno())", "pass",
           ["tests/test_exit.py"]),
    Mutant("argparse-exit-escapes-main", "src/z4seq/cli.py",
           "    except SystemExit as exc:  # argparse's --help and usage errors\n"
           "        return exc.code\n",
           "",
           ["tests/test_cli.py"]),
    Mutant("text-stream-needs-buffer", "src/z4seq/cli.py",
           '    if not hasattr(stream, "buffer"):  # a text-only stream takes each write whole\n'
           "        stream.write(text)\n"
           "        return\n",
           "",
           ["tests/test_cli.py"]),
    Mutant("slot-cap-after-search", "src/z4seq/galois.py",
           "    _check_slots(r)  # before the primitive search factors 2^r - 1\n", "",
           ["tests/test_galois.py"]),
    Mutant("index-table-mod-p", "src/z4seq/cyclotomy.py",
           "x = x * g % q", "x = x * g % p",
           ["tests/test_cyclotomy.py"]),
    Mutant("d1-d3-swapped", "src/z4seq/cyclotomy.py",
           "D_LABELS[k % 4]", "D_LABELS[-k % 4]",
           ["tests/test_cyclotomy.py"]),
    Mutant("short-write-count-ignored", "src/z4seq/cli.py",
           "data = data[written:]", "data = data[len(data):]",
           ["tests/test_exit.py"]),
    Mutant("every-value-constant", "src/z4seq/galois.py",
           "    return v < 4", "    return True",
           ["tests/test_galois.py"]),
    Mutant("digits-read-high-bytes", "src/z4seq/galois.py",
           'v.to_bytes(2 * self.r, "little")[::2])', 'v.to_bytes(2 * self.r, "little")[1::2])',
           ["tests/test_packed.py"]),
    Mutant("theorem-frobenius-step-dropped", "src/z4seq/analysis.py",
           "return ring.sigma(rho) == (rho + 4 - system.two_class) & ring.mask",
           "return True",
           ["tests/test_analysis.py"]),
    Mutant("theorem-d-coefficient-shifted", "src/z4seq/analysis.py",
           "if value != (a * rho + b) & ring.mask:",
           "if value != (a * (rho + 1) + b) & ring.mask:",
           ["tests/test_analysis.py"]),
    Mutant("case-rule-reads-p", "src/z4seq/cyclotomy.py",
           "case = CASE1 if q % 8 == 1 else CASE2", "case = CASE1 if p % 8 == 1 else CASE2",
           ["tests/test_cyclotomy.py"]),
    Mutant("connection-one-short", "src/z4seq/lfsr.py",
           "_digits(lo0, hi0, L0 + 1)", "_digits(lo0, hi0, L0)",
           ["tests/test_lfsr.py"]),
    Mutant("graeffe-odd-part-sign", "src/z4seq/galois.py",
           "3 * (odd * odd << SLOT_BITS)", "(odd * odd << SLOT_BITS)",
           ["tests/test_ring_setup.py"]),
    Mutant("sieve-below-degree-7", "src/z4seq/galois.py",
           "for k in (4, 5, 6)] if r > 6 else []", "for k in (4, 5, 6)]",
           ["tests/test_ring_setup.py"]),
    Mutant("order-test-without-full-order", "src/z4seq/galois.py",
           "if _bin_xpow(order, f, r) == 1 and all(", "if all(",
           ["tests/test_ring_setup.py"]),
    Mutant("missing-stdout-not-an-oserror", "src/z4seq/cli.py",
           "    if stream is None:\n", "    if False:\n",
           ["tests/test_exit.py"]),
    Mutant("missing-stream-flushed", "src/z4seq/_sweep.py",
           "        if stream is not None:\n            stream.flush()\n",
           "        stream.flush()\n",
           ["tests/test_exit.py"]),
    Mutant("help-write-swallowed", "src/z4seq/cli.py",
           "            _write(file, message)\n",
           "            with contextlib.suppress(OSError):\n"
           "                _write(file, message)\n",
           ["tests/test_exit.py"]),
    Mutant("help-falls-back-to-stderr", "src/z4seq/cli.py",
           "_write(file, message)", "_write(file or sys.stderr, message)",
           ["tests/test_exit.py"]),
    Mutant("usage-falls-back-to-stdout", "src/z4seq/cli.py",
           "\n    def error(self, message):\n"
           '        self.exit(2, f"{self.format_usage()}{self.prog}: error: {message}\\n")\n',
           "",
           ["tests/test_exit.py"]),
    Mutant("error-line-unsuppressed", "src/z4seq/cli.py",
           "        with contextlib.suppress(OSError):  # no stderr to take it: the status tells\n"
           "            _write(sys.stderr,",
           "        if True:\n"
           "            _write(sys.stderr,",
           ["tests/test_exit.py"]),
    Mutant("failed-write-keeps-bytes", "src/z4seq/cli.py",
           "    except OSError:\n        devnull = os.open(os.devnull, os.O_WRONLY)\n",
           "    except BrokenPipeError:\n        devnull = os.open(os.devnull, os.O_WRONLY)\n",
           ["tests/test_exit.py"]),
    Mutant("csv-field-unquoted", "src/z4seq/cli.py",
           "if any(c in v for c in specials)", "if False",
           ["tests/test_cli.py"]),
    Mutant("text-row-breaks-on-tab", "src/z4seq/cli.py",
           'else sep + "\\r\\n"', 'else "\\r\\n"',
           ["tests/test_cli.py"]),
    # the rest were hand-made mutants of earlier changes, moved here from prose
    Mutant("xpow-without-shift", "src/z4seq/galois.py",
           "            a <<= 1\n", "",
           ["tests/test_ring_setup.py"]),
    Mutant("sum-masked-only-at-end", "src/z4seq/galois.py",
           "            total = (total + sum(part)) & self.mask\n"
           "            if len(part) < SUM_CHUNK:\n"
           "                return total\n",
           "            total = total + sum(part)\n"
           "            if len(part) < SUM_CHUNK:\n"
           "                return total & self.mask\n",
           ["tests/test_packed.py"]),
    Mutant("mul-without-slot-mask", "src/z4seq/galois.py",
           "return self.reduce((a * b) & self._mask2)", "return self.reduce(a * b)",
           ["tests/test_packed.py"]),
    Mutant("barrett-quotient-without-slot-mask", "src/z4seq/galois.py",
           "q = (((c >> self._high) * self._mu) & self._mask2) >> self._qshift",
           "q = ((c >> self._high) * self._mu) >> self._qshift",
           ["tests/test_packed.py"]),
    Mutant("barrett-quotient-slot-low", "src/z4seq/galois.py",
           "SLOT_BITS * max(r - 2, 0)", "SLOT_BITS * max(r - 3, 0)",
           ["tests/test_packed.py"]),
    Mutant("is-constant-ignores-slot-1", "src/z4seq/galois.py",
           "    return v < 4", "    return v < 1 << 2 * SLOT_BITS",
           ["tests/test_galois.py"]),
    Mutant("dot-cross-term-dropped", "src/z4seq/lfsr.py",
           "(a0 & s1).bit_count() + (a1 & s0).bit_count()", "(a0 & s1).bit_count()",
           ["tests/test_lfsr.py"]),
    Mutant("scale-three-as-one", "src/z4seq/lfsr.py",
           "return b0, (b1 ^ b0 if t == 3 else b1)", "return b0, b1",
           ["tests/test_lfsr.py"]),
    Mutant("reeds-sloane-valuation-check-dropped", "src/z4seq/lfsr.py",
           "if (db & 1 or not d & 1) and cand < bestL:", "if cand < bestL:",
           ["tests/test_lfsr.py"]),
    Mutant("reeds-sloane-one-level-only", "src/z4seq/lfsr.py",
           "new1 = corrected(L1, lo1, hi1, d1, k) if d1 else (L1, lo1, hi1)",
           "new1 = (L1, lo1, hi1)",
           ["tests/test_lfsr.py"]),
    Mutant("annihilation-check-starts-early", "src/z4seq/lfsr.py",
           "for i in range(L0, N))", "for i in range(L0 - 1, N))",
           ["tests/test_lfsr.py"]),
    Mutant("power-table-order-check-dropped", "src/z4seq/analysis.py",
           "        if pows[n // d] == 1:\n", "        if False:\n",
           ["tests/test_ring_arrays.py"]),
    Mutant("fill-without-frobenius-step", "src/z4seq/analysis.py",
           "            vals = tuple(ring.sigma(v) for v in vals)\n", "",
           ["tests/test_analysis.py"]),
    Mutant("root-of-unity-sums-forced-true", "src/z4seq/analysis.py",
           'checks["root-of-unity-sums"] = sum_p', 'checks["root-of-unity-sums"] = True or sum_p',
           ["tests/test_analysis.py"]),
    Mutant("class-sums-forced-true", "src/z4seq/analysis.py",
           'checks["class-sums"] = (all(', 'checks["class-sums"] = True or (all(',
           ["tests/test_analysis.py"]),
    Mutant("inner-products-forced-true", "src/z4seq/analysis.py",
           'checks["inner-products"] = _inner_products(',
           'checks["inner-products"] = True or _inner_products(',
           ["tests/test_analysis.py"]),
    Mutant("agree-without-theorem-check", "src/z4seq/analysis.py",
           "    agree = (lc_formula == lc_dft == synth.length and synth.annihilates\n"
           "             and _theorem_holds(system, ring, rho, at_cosets))\n",
           "    agree = lc_formula == lc_dft == synth.length and synth.annihilates\n",
           ["tests/test_analysis.py"]),
    Mutant("reeds-sloane-method-ignores-check", "src/z4seq/cli.py",
           "        value, ok = synth.length, synth.annihilates\n",
           "        value = synth.length\n",
           ["tests/test_cli.py"]),
    Mutant("lc-by-count-renamed", "src/z4seq/analysis.py",
           "def lc_by_count(", "def lc_by_nonzero_count(",
           ["tests/test_surface.py"]),
    Mutant("removed-name-re-exported", "src/z4seq/__init__.py",
           '"lc_by_count", "power_table"', '"lc_by_count", "dft_nonzero_count", "power_table"',
           ["tests/test_surface.py"]),
    Mutant("getattr-without-submodule-branch", "src/z4seq/__init__.py",
           "    if name in _SUBMODULES:\n"
           '        return importlib.import_module(f"{__name__}.{name}")\n',
           "",
           ["tests/test_imports.py"]),
    Mutant("eager-analysis-import-in-cli", "src/z4seq/cli.py",
           "from . import cyclotomy\n", "from . import analysis, cyclotomy\n",
           ["tests/test_imports.py"]),
    Mutant("library-imports-the-cli", "src/z4seq/galois.py",
           "from .numtheory import R_MAX, factorize\n",
           "from .numtheory import R_MAX, factorize\nfrom .cli import main  # noqa: F401\n",
           ["tests/test_imports.py"]),
    Mutant("lazy-numpy-planted", "src/z4seq/galois.py",
           "    if r < 1:\n", "    from numpy import int64  # noqa: F401\n    if r < 1:\n",
           ["tests/test_imports.py"]),
]


def run_pytest(root: Path, tests):
    """pytest's exit status on `tests`, or None if it outlasts PYTEST_TIMEOUT_S."""
    # no bytecode: a mutant and its original can share size and mtime second
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=PYTEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    finally:
        try:  # the run and whatever it forked, a pool a mutant hangs included
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="z4seq-mutants-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", root)
        union = sorted({t for m in chosen for t in m.tests})
        code = run_pytest(root, union)
        if code != 0:
            how = "times out on" if code is None else "fails"
            print(f"unmutated copy {how} {' '.join(union)}", file=sys.stderr)
            return 1
        for m in chosen:
            path = root / m.path
            original = path.read_text()
            count = original.count(m.old)
            if count != 1:
                print(f"{m.name}: old string occurs {count} times in {m.path}")
                bad += 1
                continue
            path.write_text(original.replace(m.old, m.new))
            started = time.perf_counter()
            code = run_pytest(root, m.tests)
            path.write_text(original)
            verdict = {None: "timed out", 0: "SURVIVED", 1: "killed"}.get(
                code, f"BROKEN (pytest exit {code})")
            print(f"{m.name}: {verdict} by {' '.join(m.tests)} "
                  f"({time.perf_counter() - started:.1f} s)")
            bad += code != 1
    print(f"{len(chosen) - bad}/{len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
