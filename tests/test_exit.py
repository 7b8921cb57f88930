"""How a CLI process ends: `python -m z4seq.cli` runs `entry()`, which ends
each call as `main()` does in-process, then ends the process by `os._exit`.

Before `os._exit` the atexit handlers run and both standard streams are
flushed, so every exit code, stream byte and `--out` file must be the same
as those of `main()` in-process, with stdout buffered or not.  Where the
flush fails, the interpreter's own exit takes over: `--help` into a closed
pipe keeps the status and message of an interpreter exit.  Output into a
pipe whose reader has gone exits 2 with one `ERROR BrokenPipeError` line,
buffered or not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import z4seq
from z4seq.cli import main

SRC = str(Path(z4seq.__file__).resolve().parents[1])
OUT = object()  # stands for an --out path, a different file on each side
PAIR = ("--p", "5", "--q", "13")


def run_python(*args, unbuffered=True, **popen):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, *args], env=env, **popen)


def run_module(*argv, **kwargs):
    return run_python("-m", "z4seq.cli", *argv, **kwargs)


def read_bytes(path):
    return path.read_bytes() if path.exists() else None


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of `main(argv)` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    return (code, *capsys.readouterr())


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
    here, fresh = tmp_path / "main.out", tmp_path / "process.out"
    expected = run_main(capsys, [str(here) if a is OUT else a for a in argv])
    assert expected[0] == code
    assert (OUT in argv) == (read_bytes(here) is not None)
    for unbuffered in (True, False):
        fresh.unlink(missing_ok=True)
        with run_module(*(str(fresh) if a is OUT else a for a in argv),
                        unbuffered=unbuffered, stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE, text=True) as proc:
            stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stdout, stderr) == expected, unbuffered
        assert read_bytes(fresh) == read_bytes(here), unbuffered


# Runs entry() on argv with each standard stream on a buffer whose bytes show
# only once flushed, an atexit handler that writes to stderr, and os._exit
# replaced: the replacement writes [status, stdout, stderr] as JSON on the
# real stdout, then exits.  An entry() that ends some other way writes nothing.
# It runs in a fresh interpreter, because entry() runs and clears every
# atexit handler of its process, this test runner's included.
ENTRY_PROBE = """
import atexit, io, json, os, sys
from z4seq.cli import entry

flushed = {name: io.BytesIO() for name in ("stdout", "stderr")}
for name, raw in flushed.items():
    setattr(sys, name, io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8"))
atexit.register(lambda: print("atexit handler", file=sys.stderr))
real_exit = os._exit

def record_exit(status):
    got = [flushed[name].getvalue().decode() for name in ("stdout", "stderr")]
    os.write(1, json.dumps([status, *got]).encode())
    real_exit(status)

os._exit = record_exit
entry()
"""


@pytest.mark.parametrize("argv", [
    ("lc", "--method", "formula", *PAIR),
    ("system", "--p", "4", "--q", "13"),
    ("--help",),
    ("lc", "--bogus", *PAIR),
], ids=["lc-formula", "domain-error", "help", "unknown-flag"])
def test_entry_ends_by_os_exit_after_atexit_and_flush(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_main(capsys, list(argv))
    with run_python("-c", ENTRY_PROBE, *argv, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True) as proc:
        stdout, stderr = proc.communicate(timeout=120)
    assert stdout, f"entry() did not end by os._exit: {stderr}"
    assert json.loads(stdout) == [code, out, err + "atexit handler\n"]
    assert proc.returncode == code


def into_a_closed_pipe(argv, unbuffered):
    """(exit code, stderr) of a call whose stdout pipe has no reader from the start."""
    read, write = os.pipe()
    os.close(read)
    try:
        with run_module(*argv, unbuffered=unbuffered, stdout=write,
                        stderr=subprocess.PIPE) as proc:
            _, stderr = proc.communicate(timeout=120)
    finally:
        os.close(write)
    return proc.returncode, stderr


BROKEN_PIPE = b"ERROR BrokenPipeError: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("system", *PAIR),
    ("lc", "--method", "formula", *PAIR),
    ("gen", *PAIR),
], ids=["system", "lc", "gen"])
def test_small_output_into_a_closed_pipe(argv, unbuffered):
    # a buffered stdout keeps bytes the gone reader never took; the exit's
    # flush must not fail on them a second time
    assert into_a_closed_pipe(argv, unbuffered) == (2, BROKEN_PIPE)


def test_help_into_a_closed_pipe_keeps_the_interpreter_exit():
    # argparse drops a failed write: unbuffered, nothing is left to flush;
    # buffered, the flush fails and the interpreter's exit reports it
    assert into_a_closed_pipe(("--help",), unbuffered=True) == (0, b"")
    code, stderr = into_a_closed_pipe(("--help",), unbuffered=False)
    assert code == 120
    assert stderr.startswith(b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert stderr.endswith(b"\nBrokenPipeError: [Errno 32] Broken pipe\n")


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
    # the error reaches main, which reports it once
    assert gen_into_a_reader_that_stops_after_one_byte(unbuffered=False) == (2, BROKEN_PIPE)


def test_unbuffered_gen_into_a_reader_that_stops_after_one_byte():
    # an unbuffered stdout takes part of the write before the reader closes;
    # the tail must not be dropped with exit 0
    assert gen_into_a_reader_that_stops_after_one_byte(unbuffered=True) == (2, BROKEN_PIPE)
