"""The public surface: package exports, and the stage script of the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

import z4seq
from z4seq.cli import main

STAGES = Path(__file__).resolve().parents[1] / "bench" / "stages.py"


def test_exports_resolve_once():
    assert len(z4seq.__all__) == len(set(z4seq.__all__))
    for name in z4seq.__all__:
        assert hasattr(z4seq, name), name


@pytest.fixture(scope="module")
def stages():
    spec = importlib.util.spec_from_file_location("bench_stages", STAGES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", ["lc", "verify", "trace"])
def test_stage_script_prints_cli_stdout(stages, command, capsys):
    # the traced benchmark run calls library stages by name: it must keep
    # reproducing the CLI's bytes
    assert main([command, "--p", "5", "--q", "13"]) == 0
    cli_out = capsys.readouterr().out
    stages.main([command, "5", "13"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["stdout"] == cli_out
