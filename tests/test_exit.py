"""How a CLI process ends: `python -m z4seq.cli` runs `entry()`, which ends
each call as `main()` does in-process, then freezes the collector.

`gc.freeze()` on the way out lets the interpreter's shutdown collections skip
the whole live heap; every exit code, stream byte and `--out` file must be
the same as without it, and `main()` must leave the collector alone for
in-process callers.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import z4seq
from z4seq.cli import entry, main

SRC = str(Path(z4seq.__file__).resolve().parents[1])
OUT = object()  # stands for an --out path, a different file on each side
PAIR = ("--p", "5", "--q", "13")


def run_module(*argv, unbuffered=True, **popen):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "z4seq.cli", *argv],
                            env=env, **popen)


def read_bytes(path):
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("argv, code", [
    (("lc", "--method", "all", *PAIR), 0),
    (("system", "--p", "4", "--q", "13"), 2),
    (("lc", "--bogus", *PAIR), 2),
    (("--help",), 0),
    (("gen", *PAIR, "--out", OUT), 0),
    (("sweep", "--p-max", "17", "--q-max", "17", "--r-max", "24",
      "--workers", "2"), 0),
], ids=["lc-all", "domain-error", "unknown-flag", "help", "gen-out", "pooled-sweep"])
def test_module_run_matches_main(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
    collector = gc.isenabled(), gc.get_freeze_count()
    here, fresh = tmp_path / "main.out", tmp_path / "process.out"
    try:
        got = main([str(here) if a is OUT else a for a in argv])
    except SystemExit as exc:  # argparse's --help and usage errors
        got = exc.code
    out, err = capsys.readouterr()
    assert (gc.isenabled(), gc.get_freeze_count()) == collector
    assert got == code
    with run_module(*(str(fresh) if a is OUT else a for a in argv),
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True) as proc:
        stdout, stderr = proc.communicate(timeout=120)
    assert (proc.returncode, stdout, stderr) == (code, out, err)
    assert read_bytes(fresh) == read_bytes(here)
    assert (OUT in argv) == (read_bytes(here) is not None)


@pytest.mark.parametrize("argv, code", [
    (("lc", "--method", "formula", *PAIR), 0),
    (("system", "--p", "4", "--q", "13"), 2),
    (("--help",), 0),
], ids=["lc-formula", "domain-error", "help"])
def test_entry_freezes_the_collector_on_every_way_out(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["z4seq", *argv])
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()


def gen_into_a_reader_that_stops_after_one_byte(unbuffered):
    """(exit code, stderr) of `gen` at (5,40009) whose reader closes after one byte.

    200,046 bytes of digits, more than a pipe holds, so the reader's close
    breaks main's own write.
    """
    with run_module("gen", "--p", "5", "--q", "40009", unbuffered=unbuffered,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == b"2"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
    return proc.returncode, stderr


def test_gen_into_a_reader_that_stops_after_one_byte():
    # the status and stderr are those of the commit before entry() froze the
    # collector
    assert gen_into_a_reader_that_stops_after_one_byte(unbuffered=False) == (
        2, b"ERROR BrokenPipeError: [Errno 32] Broken pipe\n")


def test_unbuffered_gen_into_a_reader_that_stops_after_one_byte():
    # an unbuffered stdout takes part of the write before the reader closes;
    # the tail must not be dropped with exit 0
    assert gen_into_a_reader_that_stops_after_one_byte(unbuffered=True) == (
        2, b"ERROR BrokenPipeError: [Errno 32] Broken pipe\n")
