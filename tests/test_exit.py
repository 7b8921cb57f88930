"""How a CLI process ends: `python -m z4seq.cli` runs `entry()`, which ends
each call as `main()` does in-process, then ends the process by `os._exit`.

Before `os._exit` the atexit handlers run and both standard streams are
flushed, so every exit code, stream byte and `--out` file must be the same
as those of `main()` in-process, with stdout buffered or not.  A failed
write of any output, `--help` included, exits 2 with one `ERROR` line,
buffered or not: into a pipe whose reader has gone, `ERROR BrokenPipeError`;
into a full device, `ERROR OSError` for ENOSPC.  A call started with stdout
closed (`sys.stdout` None) exits 2 with one `ERROR OSError` line for EBADF,
`--help` included, and a pooled sweep into `--out` still writes the whole
file.  With stderr closed, an error, a usage error included, still exits 2,
with nothing written.
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
    return (main(argv), *capsys.readouterr())


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
    ("--help",),
], ids=["system", "lc", "gen", "help"])
def test_small_output_into_a_closed_pipe(argv, unbuffered):
    # a buffered stdout keeps bytes the gone reader never took; the exit's
    # flush must not fail on them a second time
    assert into_a_closed_pipe(argv, unbuffered) == (2, BROKEN_PIPE)


NO_SPACE = b"ERROR OSError: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--help",), ("system", *PAIR)], ids=["help", "system"])
def test_output_into_a_full_device(argv, unbuffered):
    # the bytes a buffered stdout still holds must not fail the exit's flush
    with open("/dev/full", "wb") as full, run_module(
            *argv, unbuffered=unbuffered, stdout=full, stderr=subprocess.PIPE) as proc:
        _, stderr = proc.communicate(timeout=120)
    assert (proc.returncode, stderr) == (2, NO_SPACE)


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


def with_stdout_closed(argv):
    """(exit code, stderr) of a call started with file descriptor 1 closed."""
    with run_module(*argv, stderr=subprocess.PIPE,
                    preexec_fn=lambda: os.close(1)) as proc:
        _, stderr = proc.communicate(timeout=120)
    return proc.returncode, stderr


SWEEP = ("sweep", "--p-max", "17", "--q-max", "17", "--r-max", "24")
BAD_FD = b"ERROR OSError: [Errno 9] Bad file descriptor\n"


@pytest.mark.parametrize("argv", [
    ("system", *PAIR),
    ("gen", *PAIR),
    ("lc", *PAIR),
    ("defpoly", *PAIR),
    ("trace", *PAIR),
    ("verify", *PAIR),
    (*SWEEP, "--workers", "2"),
    (*SWEEP, "--workers", "2", "--format", "json"),
    ("--help",),
], ids=["system", "gen", "lc", "defpoly", "trace", "verify", "sweep-csv",
        "pooled-sweep-json", "help"])
def test_output_with_stdout_closed(argv):
    # the JSON sweep writes only after its pool has run all its pairs; the
    # help, like any output, does not turn to stderr
    assert with_stdout_closed(argv) == (2, BAD_FD)


DOMAIN_ERROR = ("system", "--p", "4", "--q", "13")
UNKNOWN_FLAG = ("--bogus",)
BAD_FORMAT = ("lc", *PAIR, "--format", "xml")  # a subcommand's usage error


@pytest.mark.parametrize("argv, unbuffered", [
    (DOMAIN_ERROR, False), (DOMAIN_ERROR, True),
    (UNKNOWN_FLAG, False), (UNKNOWN_FLAG, True),
    (BAD_FORMAT, False), (BAD_FORMAT, True),
], ids=["buffered", "unbuffered", "unknown-flag-buffered", "unknown-flag-unbuffered",
        "bad-format-buffered", "bad-format-unbuffered"])
def test_error_with_stderr_closed(argv, unbuffered):
    # the ERROR line, or argparse's usage, has nowhere to go; the status
    # alone reports the error
    with run_module(*argv, unbuffered=unbuffered, stdout=subprocess.PIPE,
                    preexec_fn=lambda: os.close(2)) as proc:
        stdout, _ = proc.communicate(timeout=120)
    assert (proc.returncode, stdout) == (2, b"")


def test_error_in_process_without_stderr(capsys, monkeypatch):
    # no stderr (None) is not a reason to write the ERROR line, or a usage
    # error's usage line, to stdout
    monkeypatch.setattr(sys, "stderr", None)
    for argv in (DOMAIN_ERROR, UNKNOWN_FLAG):
        assert main(list(argv)) == 2
        assert capsys.readouterr().out == ""


def test_pooled_sweep_into_a_file_with_stdout_closed(tmp_path, capsys):
    expected = tmp_path / "main.csv"
    assert run_main(capsys, [*SWEEP, "--out", str(expected)]) == (0, "", "")
    for workers in ("1", "2"):
        out = tmp_path / f"workers-{workers}.csv"
        assert with_stdout_closed((*SWEEP, "--workers", workers, "--out", str(out))) == (0, b"")
        assert out.read_bytes() == expected.read_bytes(), workers
