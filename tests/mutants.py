"""Mutant catalogue: deliberate breaks of the library that named tests must catch.

    python3 tests/mutants.py           # every mutant
    python3 tests/mutants.py NAME ...  # the named ones

The runner copies src/, tests/ and pyproject.toml to a temporary directory
and first runs the union of the entries' test files there unmutated.  Then,
one entry at a time, it replaces the entry's old string, which must occur
exactly once in its file, with the new one and runs pytest on the entry's
test files.  A mutant is killed when pytest reports failing tests (exit
status 1); any other status, a syntax error for one, counts as a broken
entry, and so does a run that outlasts `PYTEST_TIMEOUT_S`, reported as
`timed out`.  Each run is its own process group, killed whole when it ends,
so no process a mutant lets loose outlives it.  The exit status is 0 only
if the unmutated run passes, every old string matches exactly once and
every mutant is killed.  Stdlib only; pytest does not collect this file.
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
           'tuple(_tiling_orbits(system, f"D{i}", step)',
           'tuple(_tiling_orbits(system, f"D{i}", 2)',
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
           "return sum(len(c) for c, v in zip(cosets, values) if v)",
           "return sum(1 for c, v in zip(cosets, values) if v)",
           ["tests/test_analysis.py"]),
    Mutant("taps-without-constant-term", "src/z4seq/galois.py",
           "[j for j in range(r) if f >> j & 1]",
           "[j for j in range(1, r) if f >> j & 1]",
           ["tests/test_ring_setup.py"]),
    Mutant("reeds-sloane-tie-takes-later", "src/z4seq/lfsr.py",
           "cand < bestL", "cand <= bestL",
           ["tests/test_lfsr.py"]),
    Mutant("span-even-half-dropped", "src/z4seq/lfsr.py",
           "            else:  # g = 2 * g1\n"
           "                half = g1\n",
           "            else:  # g = 2 * g1\n"
           "                half = 0\n",
           ["tests/test_lfsr.py"]),
    Mutant("span-pivot-half-dropped", "src/z4seq/lfsr.py",
           "                half = g0\n", "                half = 0\n",
           ["tests/test_lfsr.py"]),
    Mutant("span-reduction-without-borrow", "src/z4seq/lfsr.py",
           "lo, hi = _sub(lo, hi, *v)", "lo, hi = lo ^ v[0], hi ^ v[1]",
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
    Mutant("no-flush-before-fork", "src/z4seq/_sweep.py",
           "    sys.stdout.flush()  # so the children's copies of the buffers are empty\n"
           "    sys.stderr.flush()\n",
           "",
           ["tests/test_cli.py"]),
    Mutant("child-exits-by-sys-exit", "src/z4seq/_sweep.py",
           "os._exit(status)", "sys.exit(status)",
           ["tests/test_cli.py"]),
    Mutant("child-stdout-not-flushed", "src/z4seq/_sweep.py",
           "            sys.stdout.flush()  # os._exit skips the flush of a normal exit\n",
           "",
           ["tests/test_cli.py"]),
    Mutant("dead-child-pair-not-lost", "src/z4seq/_sweep.py",
           "done[held] = _lost(pairs[held], worker.reap())", "worker.reap()",
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
    Mutant("reap-without-waitpid", "src/z4seq/_sweep.py",
           "_, status = os.waitpid(self.pid, 0)", "status = 0",
           ["tests/test_cli.py"]),
    Mutant("exit-without-freeze", "src/z4seq/cli.py",
           "    finally:\n        gc.freeze()\n", "    finally:\n        pass\n",
           ["tests/test_exit.py"]),
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
        for part in ("src", "tests"):
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
