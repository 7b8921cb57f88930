"""The import graph: each CLI call loads only the modules its command runs.

The library and its tests import the standard library, z4seq, each other,
pytest and hypothesis, and nothing else; the `test` extra is pytest and
hypothesis.  No library module imports numpy, nor does the span oracle of
`tests/span_reference.py`, which imports no z4seq module at all, and
no call loads `dataclasses` (which pulls in `inspect`), `typing` or
`random`; `system` and `lc --method formula` load neither `sequence` nor
a ring module, `json` loads only where JSON is written, `lfsr` only where a
register is synthesized, `trace_repr` only for `trace` and the sweep's rows
`_sweep` only for `sweep`, whose pool loads no thread, queue or
process-pool machinery.  No library module imports the CLI.  Each case
runs in a fresh interpreter, since this test process has long since
imported all of them; the CLI probes run it with `-S`, so that no site hook
can import a module first and hide the CLI's own import.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import z4seq

SRC = str(Path(z4seq.__file__).resolve().parents[1])
STAGES = Path(__file__).resolve().parents[1] / "bench" / "stages.py"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent
LIBRARY = sorted(Path(SRC, "z4seq").glob("*.py"))

# Runs the CLI's main on argv and reports, as the last stderr line, the exit
# code and every module imported by then.
PROBE = """
import sys
from z4seq.cli import main
code = main(sys.argv[1:])
print("PROBE", code, *sorted(sys.modules), file=sys.stderr)
"""
# Loaded by no CLI call: dataclasses brings inspect, ast and dis with it
NEVER = {"numpy", "dataclasses", "inspect", "typing", "random"}


def run_fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120, check=False)


def probe(*argv):
    """(exit code, imported modules, stdout, other stderr lines) of one call."""
    done = run_fresh("-S", "-c", PROBE, *argv)
    *errors, last = done.stderr.splitlines()
    tag, code, *modules = last.split()
    assert tag == "PROBE", done.stderr
    return int(code), set(modules), done.stdout, errors


def test_package_and_cli_import_without_numpy():
    done = run_fresh("-c", "import sys, z4seq, z4seq.cli; "
                           "print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_stage_module_loads_on_first_access():
    done = run_fresh("-c", "import sys, z4seq; m = z4seq.analysis; "
                           "print(m is sys.modules['z4seq.analysis'], "
                           "'numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True False\n"


@pytest.mark.parametrize("command", ["lc", "trace"])
def test_stage_script_runs_from_a_cold_package(command):
    # the traced benchmark run imports only z4seq.cli, then reads the stage
    # modules off the package
    done = run_fresh(str(STAGES), command, "5", "13")
    assert done.returncode == 0, done.stderr
    cli = run_fresh("-m", "z4seq.cli", command, "--p", "5", "--q", "13")
    assert json.loads(done.stdout)["stdout"] == cli.stdout


PAIR = ("--p", "5", "--q", "13")


@pytest.mark.parametrize("argv, code, stdout", [
    (("system", *PAIR), 0, "case=Case2"),
    (("gen", *PAIR), 0, "2010201330"),
    (("lc", "--method", "formula", *PAIR), 0, "65\n"),
    (("lc", "--method", "reeds-sloane", *PAIR), 0, "65\n"),
    (("--help",), 0, "usage: z4seq"),
    (("system", "--p", "4", "--q", "13"), 2, ""),
    (("lc", "--method", "all", *PAIR), 0, "65 65 65 AGREE\n"),
    (("verify", *PAIR), 0, "result PASS\n"),
    (("trace", *PAIR), 0, "PASS\n"),
    (("defpoly", *PAIR), 0, "0,R,200000000000\n"),
    (("sweep", "--p-max", "13", "--q-max", "13", "--workers", "1"), 0,
     "5,13,Case2,1,65,65,65,true,12,\n"),
])
def test_commands_load_only_what_they_run(argv, code, stdout):
    got, modules, out, errors = probe(*argv)
    assert got == code, errors
    assert not modules & NEVER, modules & NEVER
    assert "json" not in modules  # text and CSV output
    if argv[0] in ("system", "gen", "--help"):  # no ring, no DFT
        assert not modules & {"z4seq.analysis", "z4seq.galois"}
    if argv[0] == "system":  # the class data alone: no sequence, no ring module
        assert {m for m in modules if m.startswith("z4seq.")} == {
            "z4seq.cli", "z4seq.cyclotomy", "z4seq.errors", "z4seq.numtheory"}
    if argv[0] in ("verify", "trace", "defpoly"):
        assert "z4seq.lfsr" not in modules
    if argv[0] == "lc":
        assert "z4seq.trace_repr" not in modules
    if argv[:3] == ("lc", "--method", "formula"):  # the theorem alone: no sequence
        assert "z4seq.sequence" not in modules
    assert ("z4seq._sweep" in modules) == (argv[0] == "sweep")
    assert stdout in out
    if code == 2:
        assert errors == ["ERROR NotPrime: 4 is not an odd prime >= 3"]


def test_pooled_sweep_loads_no_thread_or_queue():
    code, modules, out, errors = probe("sweep", "--p-max", "13", "--q-max", "13",
                                       "--workers", "2")
    assert code == 0 and not errors, errors
    assert "z4seq._sweep" in modules
    assert not modules & {"concurrent.futures", "multiprocessing", "threading",
                          "queue"}
    assert out.endswith("5,13,Case2,1,65,65,65,true,12,\n"
                        "13,5,Case2,1,65,65,65,true,12,\n"
                        "# pairs=2 agree=2 disagree=0 errors=0\n")


# sha256 of the JSON bytes, as written before json became a lazy import
@pytest.mark.parametrize("argv, digest", [
    (("system", *PAIR, "--format", "json"),
     "b8f8a146546abaf833d595f396766779521acf1e13b91eb8184c664896b485cc"),
    (("lc", "--method", "all", *PAIR, "--format", "json"),
     "5ad097ab84ce6632adbefedab8e9f43e725eb6fddf0fccf123e9b568f6fca57e"),
    (("sweep", "--p-max", "13", "--q-max", "13", "--workers", "1",
      "--format", "json"),
     "eb06308608838af3c923f3fcb119e1a71f3d45b6cd219d862e9391ab3cd427b2"),
])
def test_json_loads_only_for_json_output(argv, digest):
    code, modules, out, errors = probe(*argv)
    assert code == 0 and not errors, errors
    assert "json" in modules
    assert not modules & NEVER, modules & NEVER
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_span_oracle_runs_without_numpy():
    # nor with any z4seq module: a fault there cannot reach the oracle too
    done = run_fresh("-S", "-c", f"import sys; sys.path.insert(0, {str(TESTS)!r}); "
                                 "from span_reference import span_min_length; "
                                 "print(span_min_length([1, 0, 0, 0, 0]), "
                                 "'numpy' in sys.modules, "
                                 "any(m.split('.')[0] == 'z4seq' for m in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5 False False\n"


def file_imports(paths):
    """(file name, line, names) of each import in the files.

    A `from` import names its module and each module.name it takes, so
    `from . import cli` names `.cli`.
    """
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield path.name, node.lineno, [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                yield path.name, node.lineno, [base] + [
                    f"{base.rstrip('.')}.{alias.name}" for alias in node.names]


def library_imports():
    return file_imports(LIBRARY)


def test_code_imports_only_the_standard_library_pytest_and_hypothesis():
    # a relative import stays inside the package
    allowed = (set(sys.stdlib_module_names) | {p.stem for p in TESTS.glob("*.py")}
               | {"z4seq", "pytest", "hypothesis"})
    for name, line, names in file_imports(LIBRARY + sorted(TESTS.glob("*.py"))):
        tops = {n.split(".")[0] for n in names if not n.startswith(".")}
        assert tops <= allowed, (name, line, tops - allowed)


def test_test_extra_is_pytest_and_hypothesis():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    extra = project["optional-dependencies"]["test"]
    assert sorted(re.match(r"[\w.-]+", req)[0] for req in extra) == ["hypothesis", "pytest"]


def test_no_library_module_imports_numpy():
    for name, line, names in library_imports():
        assert not any(n.split(".")[0] == "numpy" for n in names), (name, line)


def test_no_library_module_imports_the_cli():
    # under `python -m z4seq.cli` an import of z4seq.cli would compile and
    # run cli.py a second time
    for name, line, names in library_imports():
        assert not {"z4seq.cli", ".cli"} & set(names), (name, line)
