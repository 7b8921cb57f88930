"""The public surface: package exports, and the stage script of the benchmark."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import z4seq
from z4seq.cli import main
from z4seq.cyclotomy import CyclotomicSystem, build_system
from z4seq.galois import make_ring, root_of_unity
from z4seq.lfsr import reeds_sloane
from z4seq.sequence import QuaternarySequence
from z4seq.trace_repr import trace_params

BENCH = Path(__file__).resolve().parents[1] / "bench"
STAGES = BENCH / "stages.py"
LIBRARY = Path(z4seq.__file__).resolve().parent


def test_exports_resolve_once():
    assert len(z4seq.__all__) == len(set(z4seq.__all__))
    for name in z4seq.__all__:
        assert hasattr(z4seq, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from z4seq import *", namespace)
    assert len(z4seq.__all__) == 34
    for name in z4seq.__all__:
        assert namespace[name] is getattr(z4seq, name), name


def test_dir_lists_exports_and_stage_modules():
    listed = dir(z4seq)
    assert set(z4seq.__all__) <= set(listed)
    assert {"analysis", "cyclotomy", "galois", "lfsr", "trace_repr"} <= set(listed)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'z4seq' has no attribute 'no_such_name'"):
        getattr(z4seq, "no_such_name")


def test_stage_modules_resolve_to_the_imported_modules():
    for module in ("analysis", "cyclotomy", "galois", "lfsr", "numtheory",
                   "sequence", "trace_repr", "errors", "cli"):
        assert getattr(z4seq, module) is sys.modules[f"z4seq.{module}"], module
    assert z4seq.lc_by_theorem is z4seq.cyclotomy.lc_by_theorem
    assert z4seq.analysis.lc_by_theorem is z4seq.cyclotomy.lc_by_theorem
    assert z4seq.R_MAX == z4seq.galois.R_MAX == z4seq.numtheory.R_MAX == 64


def code_names(path):
    """Every name the code of one file reads: names, attributes and imports.

    String constants and docstrings are not code, so `__init__._EXPORTS`
    alone keeps no name alive.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_library_definition_serves_the_library_or_the_benchmark():
    # a function or class that only tests call belongs in tests/, as the
    # span and SNF oracles do
    used = set().union(*map(code_names, [*LIBRARY.glob("*.py"), *BENCH.glob("*.py")]))
    unused = [f"{path.name}:{node.name}" for path in sorted(LIBRARY.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []


def test_record_contract(monkeypatch):
    s = build_system(5, 13)
    ring = make_ring(12)
    records = [(s, "class_of"), (trace_params(s, ring, root_of_unity(ring, s.pq)), "rho"),
               (reeds_sloane([1, 0, 0, 0, 0] * 2), "length")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    # classes and two_class are computed on first use, once per system
    calls = []
    for name in ("classes", "two_class"):
        prop = getattr(CyclotomicSystem, name)
        monkeypatch.setattr(prop, "func",
                            lambda self, f=prop.func, n=name: calls.append(n) or f(self))
    fresh = build_system(5, 13)
    assert fresh.classes is fresh.classes and fresh.two_class == fresh.two_class == 1
    assert calls == ["classes", "two_class"]
    swapped = tuple({"D1": "D3", "D3": "D1"}.get(lab, lab) for lab in fresh.class_of)
    assert fresh._replace(class_of=swapped).two_class == 3

    assert QuaternarySequence(2, (0, 3)) == QuaternarySequence(period=2, digits=(0, 3))
    with pytest.raises(ValueError, match="1 digits for period 2"):
        QuaternarySequence(2, (1,))
    with pytest.raises(ValueError, match="Z4"):
        QuaternarySequence(period=1, digits=(4,))


@pytest.fixture(scope="module")
def stages():
    spec = importlib.util.spec_from_file_location("bench_stages", STAGES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", ["lc", "verify", "trace", "analyze"])
def test_stage_script_prints_cli_stdout(stages, command, capsys):
    # the traced benchmark run calls library stages by name: it must keep
    # reproducing the CLI's bytes (for `analyze`, the pair's sweep row) and
    # the counters recorded in the benchmark's reference
    if command == "analyze":
        argv = ["sweep", "--workers", "1", "--p-max", "5", "--q-max", "13"]
    else:
        argv = [command, "--p", "5", "--q", "13"]
    assert main(argv) == 0
    cli_out = capsys.readouterr().out
    if command == "analyze":
        cli_out = next(line + "\n" for line in cli_out.splitlines()
                       if line.startswith("5,13,"))
    stages.main([command, "5", "13"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["stdout"] == cli_out
    reference = json.loads((BENCH / "reference.json").read_text())
    assert doc["counters"] == reference["counters"][f"{command} 5 13"]
