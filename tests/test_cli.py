import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

import z4seq
from z4seq import _sweep, analysis, galois, lfsr
from z4seq.lfsr import LfsrResult
from z4seq.cli import SWEEP_R_MAX_DEFAULT, main
from z4seq.numtheory import R_MAX


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_system_text(capsys):
    code, out, _ = run(capsys, "system", "--p", "5", "--q", "13")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["g"] == "2" and fields["h"] == "27" and fields["e"] == "12"
    assert fields["case"] == "Case2" and fields["two_class"] == "1"


def test_system_json_roundtrip(capsys):
    code, out, _ = run(capsys, "system", "--p", "5", "--q", "17",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 5 and doc["q"] == 17 and doc["g"] == 3
    assert doc["case"] == "Case1" and doc["two_class"] == 2


def test_system_error_exit(capsys):
    code, out, err = run(capsys, "system", "--p", "3", "--q", "13")
    assert code == 2 and not out
    assert err.startswith("ERROR GcdNotFour:")


def test_missing_pair_is_usage_error(capsys):
    code, _, err = run(capsys, "system")
    assert code == 2 and "ERROR" in err


def test_gen_text(capsys):
    code, out, _ = run(capsys, "gen", "--p", "5", "--q", "13")
    assert code == 0
    assert len(out) == 66 and out.endswith("\n")
    assert out[0] == "2" and set(out.strip()) <= set("0123")


def test_gen_csv(capsys):
    code, out, _ = run(capsys, "gen", "--p", "5", "--q", "13", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,digit" and lines[1] == "0,2" and len(lines) == 66


def test_lc_all(capsys):
    code, out, _ = run(capsys, "lc", "--p", "5", "--q", "13", "--method", "all")
    assert code == 0
    assert out.strip() == "65 65 65 AGREE"


def test_lc_single_methods(capsys):
    for method in ("formula", "dft", "reeds-sloane"):
        code, out, _ = run(capsys, "lc", "--p", "5", "--q", "13",
                           "--method", method)
        assert code == 0 and out.strip() == "65"


def test_lc_json(capsys):
    code, out, _ = run(capsys, "lc", "--p", "5", "--q", "17", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lc_formula"] == doc["lc_dft"] == doc["lc_reeds_sloane"] == 81
    assert doc["agree"] is True


def test_defpoly(capsys):
    code, out, _ = run(capsys, "defpoly", "--p", "5", "--q", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exponent,label,coefficient"
    assert len(lines) == 66
    exp0 = lines[1].split(",")
    assert exp0[0] == "0" and exp0[1] == "R"
    assert exp0[2] == "2" + "0" * 11  # constant 2 in GR(4, 4^12)


def test_trace_check(capsys):
    # at (5, 73) and (5, 89) e*eps/(4*ell) is not an integer
    for q in ("13", "73", "89"):
        code, out, _ = run(capsys, "trace", "--p", "5", "--q", q)
        assert code == 0 and out.strip() == "PASS", q


def test_trace_check_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "trace", "--p", "5", "--q", "13", "--check")
    assert code == 2 and not out
    assert "unrecognized arguments: --check" in err


def test_lc_above_default_cap(capsys):
    # ord_2(13 * 29) = 84: a ring past the default degree cap of 64
    code, out, _ = run(capsys, "lc", "--p", "13", "--q", "29", "--r-max", "84")
    assert code == 0 and out == "377 377 377 AGREE\n"


def test_trace_above_default_cap(capsys):
    # ord_2(5 * 101) = 100 and ord_2(5 * 337) = 84
    for q in ("101", "337"):
        code, out, _ = run(capsys, "trace", "--p", "5", "--q", q, "--r-max", "100")
        assert code == 0 and out == "PASS\n", q


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--p", "5", "--q", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "result PASS"
    assert all(line.endswith("PASS") for line in lines)


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "--p-max", "17", "--q-max", "17",
                       "--r-max", "24", "--workers", "1")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["p", "q", "case", "two_class"]
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    pairs = {(int(r[0]), int(r[1])) for r in rows}
    assert pairs == {(5, 13), (13, 5), (5, 17), (17, 5), (13, 17), (17, 13)}
    assert all(r[7] == "true" for r in rows)
    assert lines[-1].startswith("# pairs=6 agree=6 disagree=0 errors=0")


def test_pooled_sweep_matches_serial(tmp_path, capsys):
    argv = ("sweep", "--p-max", "17", "--q-max", "17", "--r-max", "24")
    _, serial, _ = run(capsys, *argv, "--workers", "1")
    target = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, *argv, "--workers", "2", "--out", str(target))
    assert_no_child_left()
    assert code == 0 and not out and target.read_text() == serial


SRC = str(Path(z4seq.__file__).resolve().parents[1])
# A fresh interpreter writing to a pipe buffers its stdout (PYTHONUNBUFFERED
# is cleared), so the first line is still in the buffer when a pooled sweep
# forks.
SCRIPT = """
import sys
from z4seq.cli import main
sys.stdout.write("# before the sweep\\n")
sys.exit(main(sys.argv[1:]))
"""
SMALL_SWEEP = ("sweep", "--p-max", "17", "--q-max", "17", "--r-max", "24")


def run_process(*argv):
    """(exit code, stdout, stderr) of main in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    return done.returncode, done.stdout, done.stderr


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_pooled_sweep_to_stdout_matches_serial(fmt):
    serial = run_process(*SMALL_SWEEP, "--format", fmt, "--workers", "1")
    code, out, err = serial
    assert code == 0 and not err and out.startswith("# before the sweep\n")
    assert run_process(*SMALL_SWEEP, "--format", fmt, "--workers", "2") == serial


def untimed(fmt, out):
    """The output without its seconds values, and each line's column count."""
    body = out.split("\n", 1)[1]
    if fmt == "json":
        doc = json.loads(body)
        assert all(isinstance(row.pop("seconds"), float) for row in doc["rows"])
        return doc
    sep = "," if fmt == "csv" else "\t"
    lines = [line.split(sep) for line in body.splitlines()]
    seconds = 9  # after the nine data columns
    return [(len(cols), cols[:seconds] + cols[seconds + 1:])
            if len(cols) > seconds else cols for cols in lines]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_pooled_sweep_timings_match_serial(fmt):
    argv = (*SMALL_SWEEP, "--format", fmt, "--timings")
    code, serial, err = run_process(*argv, "--workers", "1")
    assert code == 0 and not err
    code, pooled, err = run_process(*argv, "--workers", "2")
    assert code == 0 and not err
    assert untimed(fmt, pooled) == untimed(fmt, serial)


def test_pooled_sweep_error_is_a_row(monkeypatch, capsys):
    argv = ("sweep", "--p-max", "13", "--q-max", "13", "--workers", "2")
    real = analysis.analyze

    def analyze(system, r_max):
        if (system.p, system.q) == (13, 5):
            raise RuntimeError("injected failure")
        return real(system, r_max)

    monkeypatch.setattr(analysis, "analyze", analyze)
    code, out, err = run(capsys, *argv)
    assert_no_child_left()
    assert code == 1 and not err
    lines = out.strip().splitlines()
    assert lines[1].startswith("5,13,Case2,")
    assert lines[2] == "13,5,,,,,,,,RuntimeError: injected failure"
    assert lines[-1] == "# pairs=2 agree=1 disagree=0 errors=1"


def test_worker_death_is_a_row(monkeypatch, capsys):
    argv = (*SMALL_SWEEP, "--workers", "2")
    _, clean, _ = run(capsys, *argv)
    real = analysis.analyze

    def analyze(system, r_max):
        if (system.p, system.q) == (13, 5):
            os._exit(3)
        return real(system, r_max)

    monkeypatch.setattr(analysis, "analyze", analyze)
    code, out, err = run(capsys, *argv)
    assert_no_child_left()
    assert code == 1 and not err
    lost = "13,5,,,,,,,,WorkerLost: worker exited with status 3"
    want = [lost if line.startswith("13,5,") else line
            for line in clean.splitlines()[:-1]]
    assert out.splitlines() == want + ["# pairs=6 agree=5 disagree=0 errors=1"]


def test_no_worker_left(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "analyze", lambda system, r_max: os._exit(4))
    code, out, err = run(capsys, *SMALL_SWEEP, "--workers", "2")
    assert_no_child_left()
    assert code == 1 and not err
    errors = [line.split(",")[-1] for line in out.splitlines()[1:-1]]
    assert errors.count("WorkerLost: worker exited with status 4") == 2
    assert errors.count("WorkerLost: no worker left") == 4
    assert out.splitlines()[-1] == "# pairs=6 agree=0 disagree=0 errors=6"


def sweep_notes(monkeypatch, tmp_path, name):
    """The lines the pairs of a 2-worker sweep print on `sys.<name>`, there a
    block-buffered file, which pytest's capture is not."""
    real = analysis.analyze

    def analyze(system, r_max):
        print(f"note {system.p},{system.q}", file=getattr(sys, name))
        return real(system, r_max)

    monkeypatch.setattr(analysis, "analyze", analyze)
    argv = [*SMALL_SWEEP, "--workers", "2", "--out", str(tmp_path / "sweep.csv")]
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh, monkeypatch.context() as patch:
        patch.setattr(sys, name, fh)
        assert main(argv) == 0
    return sorted(path.read_text().splitlines())


NOTES = ["note 13,17", "note 13,5", "note 17,13", "note 17,5", "note 5,13", "note 5,17"]


def test_worker_print_reaches_stdout(monkeypatch, tmp_path):
    assert sweep_notes(monkeypatch, tmp_path, "stdout") == NOTES


def test_worker_print_reaches_stderr(monkeypatch, tmp_path):
    assert sweep_notes(monkeypatch, tmp_path, "stderr") == NOTES


def test_worker_failure_report_reaches_stderr(monkeypatch, tmp_path):
    real = analysis.analyze

    def analyze(system, r_max):
        if (system.p, system.q) == (13, 5):
            raise KeyboardInterrupt  # not a pair's error: it ends the worker
        return real(system, r_max)

    monkeypatch.setattr(analysis, "analyze", analyze)
    # the default hook flushes stderr itself; this one, like many, does not
    monkeypatch.setattr(sys, "excepthook", traceback.print_exception)
    out = tmp_path / "sweep.csv"
    stderr = tmp_path / "stderr"
    with open(stderr, "w", encoding="utf-8") as fh, monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", fh)
        assert main([*SMALL_SWEEP, "--workers", "2", "--out", str(out)]) == 1
    assert_no_child_left()
    assert "13,5,,,,,,,,WorkerLost: worker exited with status 1" in out.read_text()
    report = stderr.read_text()
    assert report.startswith("Traceback") and report.endswith("\nKeyboardInterrupt\n")


@pytest.mark.parametrize("workers", [2, 3])
def test_workers_pin_one_cpu_each(monkeypatch, tmp_path, workers):
    mask = os.sched_getaffinity(0)
    real = analysis.analyze

    def analyze(system, r_max):
        print(os.getpid(), *sorted(os.sched_getaffinity(0)))
        return real(system, r_max)

    monkeypatch.setattr(analysis, "analyze", analyze)
    argv = [*SMALL_SWEEP, "--workers", str(workers), "--out", str(tmp_path / "sweep.csv")]
    stdout = tmp_path / "stdout"
    # a block-buffered stdout, as in test_worker_print_reaches_stdout
    with open(stdout, "w", encoding="utf-8") as fh, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", fh)
        assert main(argv) == 0
    assert_no_child_left()
    pins = {}
    for line in stdout.read_text().splitlines():
        pid, *cpus = map(int, line.split())
        pins.setdefault(pid, set()).add(tuple(cpus))
    # each worker is fed a pair before any gets a second, so all report
    assert len(pins) == workers
    assert all(len(reported) == 1 for reported in pins.values())
    # one CPU each, the first CPUs of the mask, round robin past its end
    assert {cpus for reported in pins.values() for cpus in reported} == {
        (cpu,) for cpu in sorted(mask)[:workers]}
    assert os.sched_getaffinity(0) == mask


def test_failed_pin_loses_no_row(monkeypatch, capsys):
    _, serial, _ = run(capsys, *SMALL_SWEEP, "--workers", "1")

    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    code, out, err = run(capsys, *SMALL_SWEEP, "--workers", "2")
    assert_no_child_left()
    assert code == 0 and not err and out == serial
    assert "WorkerLost" not in out


@pytest.mark.parametrize("cpus, pooled", [({0}, []), ({0, 1, 2}, [3])])
def test_default_workers_follow_affinity(monkeypatch, capsys, cpus, pooled):
    seen = []
    real = _sweep._forked

    def forked(pairs, r_max, workers):
        seen.append(workers)
        return real(pairs, r_max, workers)

    monkeypatch.setattr(_sweep, "_forked", forked)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    code, _, _ = run(capsys, *SMALL_SWEEP)
    assert code == 0 and seen == pooled


def test_sweep_without_fork_runs_serially(monkeypatch, capsys):
    _, serial, _ = run(capsys, *SMALL_SWEEP, "--workers", "1")
    monkeypatch.delattr(os, "fork")
    code, out, _ = run(capsys, *SMALL_SWEEP, "--workers", "2")
    assert code == 0 and out == serial


def test_sweep_empty(capsys):
    code, out, _ = run(capsys, "sweep", "--p-max", "5", "--q-max", "5",
                       "--workers", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header plus summary only
    assert lines[-1].startswith("# pairs=0")


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--p-max", "13", "--q-max", "13",
                       "--format", "json", "--workers", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["pairs"] == 2 and doc["summary"]["disagree"] == 0
    assert {(r["p"], r["q"]) for r in doc["rows"]} == {(5, 13), (13, 5)}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "digits.txt"
    code, out, _ = run(capsys, "gen", "--p", "5", "--q", "13",
                       "--out", str(target))
    assert code == 0 and not out
    assert len(target.read_text()) == 66


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\nq = 13  # the standard pair\nmethod = all\n")
    code, out, _ = run(capsys, "lc", "--config", str(cfg))
    assert code == 0 and out.strip() == "65 65 65 AGREE"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\nq = 13\nformat = json\n")
    code, out, _ = run(capsys, "system", "--config", str(cfg), "--q", "17",
                       "--format", "text")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["q"] == "17" and fields["case"] == "Case1"


def test_config_replaces_and_flags_override_parser_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p-max = 17\nq-max = 17\nr-max = 12\nformat = text\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--r-max", "24")
    assert (code, out) == run(capsys, "sweep", "--p-max", "17", "--q-max", "17",
                              "--r-max", "24", "--format", "text")[:2]
    assert code == 0 and out.endswith("pairs=6 agree=6 disagree=0 errors=0\n")
    cfg.write_text("p = 5\nq = 13\nmethod = formula\n")
    assert run(capsys, "lc", "--config", str(cfg))[:2] == (0, "65\n")
    assert run(capsys, "lc", "--config", str(cfg), "--method", "all")[:2] == \
        (0, "65 65 65 AGREE\n")


def test_byte_determinism(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "sweep", "--p-max", "13", "--q-max", "13",
                           "--workers", "1")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_sweep_error_is_a_row(monkeypatch, capsys):
    argv = ("sweep", "--p-max", "13", "--q-max", "13", "--workers", "1")
    _, clean, _ = run(capsys, *argv)
    real = analysis.analyze

    def analyze(system, r_max):
        if (system.p, system.q) == (13, 5):
            raise RuntimeError("injected failure")
        return real(system, r_max)

    monkeypatch.setattr(analysis, "analyze", analyze)
    code, out, err = run(capsys, *argv)
    assert code == 1 and "Traceback" not in err
    lines = out.strip().splitlines()
    clean_lines = clean.strip().splitlines()
    assert lines[0] == clean_lines[0]
    assert lines[1] == clean_lines[1] and lines[1].startswith("5,13,")
    assert lines[2] == "13,5,,,,,,,,RuntimeError: injected failure"
    assert lines[-1] == "# pairs=2 agree=1 disagree=0 errors=1"


COMMA_ERROR = 'ValueError: not enough values to unpack (expected 2, got 1) at "x"'


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_error_with_a_comma_keeps_its_row(monkeypatch, capsys, workers):
    real = analysis.analyze

    def analyze(system, r_max):
        if (system.p, system.q) == (13, 5):
            raise ValueError(COMMA_ERROR.split(": ", 1)[1])
        return real(system, r_max)

    monkeypatch.setattr(analysis, "analyze", analyze)
    argv = ("sweep", "--p-max", "13", "--q-max", "13", "--workers", workers)
    code, out, _ = run(capsys, *argv)
    header, *rows = csv.reader(out.splitlines()[:-1])
    assert code == 1 and len(header) == 10 and len(rows) == 2
    assert all(len(row) == len(header) for row in rows)
    assert rows[1][-1] == COMMA_ERROR
    code, out, _ = run(capsys, *argv, "--format", "text")
    rows = [line.split("\t") for line in out.splitlines()[:-1]]
    assert code == 1 and len(rows) == 2
    assert all(len(row) == len(header) for row in rows)
    assert rows[1][-1] == COMMA_ERROR


@pytest.mark.parametrize("message", ["line one\nline\ttwo", "one\ttab"],
                         ids=["line-break", "tab"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_error_with_a_tab_or_line_break_keeps_its_row(monkeypatch, capsys, workers,
                                                            message):
    # a field holding the separator, a CR or an LF is quoted in text rows too
    real = analysis.analyze

    def analyze(system, r_max):
        if (system.p, system.q) == (13, 5):
            raise ValueError(message)
        return real(system, r_max)

    monkeypatch.setattr(analysis, "analyze", analyze)
    argv = ("sweep", "--p-max", "13", "--q-max", "13", "--workers", workers)
    for fmt, sep in (("csv", ","), ("text", "\t")):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        *records, summary = csv.reader(io.StringIO(out), delimiter=sep)
        rows = records[1:] if fmt == "csv" else records
        assert code == 1 and len(rows) == 2, fmt
        assert all(len(row) == 10 for row in rows), fmt
        assert rows[1][-1] == f"ValueError: {message}", fmt
        assert summary[0].endswith("pairs=2 agree=1 disagree=0 errors=1"), fmt


CONFIG = object()  # stands for a --config file's path


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["--help"], 0), (["lc", "--help"], 0), (["--bogus"], 2),
    (["lc", "--p", "5", "--q", "13", "--method", "x"], 2),
    (["lc", "--config", CONFIG, "--help"], 0),
], ids=["empty", "help", "lc-help", "unknown-flag", "bad-method", "config-help"])
def test_main_returns_argparse_exits(tmp_path, capsys, argv, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\nq = 13\n")
    assert main([str(cfg) if a is CONFIG else a for a in argv]) == code
    assert capsys.readouterr().err.startswith("usage: z4seq") == (code == 2)


@pytest.mark.parametrize("argv", [
    "lc --p 5 --q 13 --method all --format json",
    "defpoly --p 13 --q 17 --format csv",
    "sweep --p-max 40 --q-max 40 --r-max 64 --workers 1 --format text",
    "sweep --p-max 17 --q-max 17 --r-max 24 --workers 2",
    "--help",
    "lc --p 5 --q 13 --bogus",
    "system --p 4 --q 13",
])
def test_main_writes_text_only_streams(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
    expected = run(capsys, *argv.split())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    assert (code, out.getvalue(), err.getvalue()) == expected
    if argv in GOLDEN:
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[argv]


def test_unknown_method_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "lc", "--p", "5", "--q", "13", "--method", "bogus")
    assert code == 2 and not out
    assert "argument --method: invalid choice: 'bogus'" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\nq = 13\nmethod = bogus\n")
    code, out, err = run(capsys, "lc", "--config", str(cfg))
    assert code == 2 and not out
    assert err == ("ERROR ValueError: config method = 'bogus' is not one of "
                   "formula, dft, reeds-sloane, all\n")


def test_config_value_checked_like_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for body, named in (("format = xml", "'xml'"), ("p = five", "config p:")):
        cfg.write_text(f"q = 13\n{body}\n")
        code, out, err = run(capsys, "system", "--config", str(cfg))
        assert code == 2 and not out
        assert err.startswith("ERROR ValueError:") and named in err


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\nq = 13\ncolour = red\n")
    code, out, err = run(capsys, "system", "--config", str(cfg))
    assert code == 2 and not out
    assert err.startswith("ERROR ValueError:") and "'colour'" in err


@pytest.mark.parametrize("command", ["system", "gen"])
def test_r_max_only_where_a_ring_is_built(tmp_path, capsys, command):
    code, _, err = run(capsys, command, "--p", "5", "--q", "13", "--r-max", "8")
    assert code == 2
    assert "unrecognized arguments: --r-max 8" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\nq = 13\nr_max = 8\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and not out
    assert err.startswith("ERROR ValueError: unknown config key 'r_max'")


@pytest.mark.parametrize("command, default", [
    ("lc", R_MAX), ("defpoly", R_MAX), ("trace", R_MAX), ("verify", R_MAX),
    ("sweep", SWEEP_R_MAX_DEFAULT),
])
def test_r_max_help_states_the_default(capsys, command, default):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert f"ring-degree cap (default {default})" in " ".join(out.split())


def test_register_failing_its_check_disagrees(monkeypatch, capsys):
    real = lfsr.reeds_sloane

    def reeds_sloane(digits):
        res = real(digits)
        return LfsrResult(res.length, res.connection, annihilates=False)

    # analyze imports reeds_sloane from lfsr when it runs
    monkeypatch.setattr(lfsr, "reeds_sloane", reeds_sloane)
    code, out, _ = run(capsys, "lc", "--p", "5", "--q", "13", "--method", "all")
    assert code == 1 and out == "65 65 65 DISAGREE\n"
    # the single method prints the same length, and fails the same way
    code, out, _ = run(capsys, "lc", "--p", "5", "--q", "13", "--method", "reeds-sloane")
    assert code == 1 and out == "65\n"
    code, out, _ = run(capsys, "lc", "--p", "5", "--q", "13", "--method", "reeds-sloane",
                       "--format", "json")
    assert code == 1
    assert out == '{"p": 5, "q": 13, "method": "reeds-sloane", "value": 65}\n'
    code, out, _ = run(capsys, "sweep", "--p-max", "13", "--q-max", "13",
                       "--workers", "1")
    rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
    assert code == 1 and len(rows) == 2
    assert all(r[4] == r[5] == r[6] and r[7] == "false" for r in rows)


@pytest.mark.parametrize("command, fmt", [
    ("system", "csv"), ("gen", "json"), ("trace", "json"), ("trace", "csv"),
    ("verify", "json"), ("verify", "csv"),
])
def test_unwritten_format_is_rejected(tmp_path, capsys, command, fmt):
    code, _, err = run(capsys, command, "--p", "5", "--q", "13", "--format", fmt)
    assert code == 2 and "invalid choice" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p = 5\nq = 13\nformat = {fmt}\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and not out
    assert err.startswith("ERROR ValueError:") and f"'{fmt}'" in err


def test_slot_overflow_pair(capsys):
    # pq = 10565: 9 * pq passes 0xFFFF, so a digit-weighted sum of the whole
    # period in one packed int would carry between slots
    code, out, _ = run(capsys, "lc", "--p", "5", "--q", "2113")
    assert code == 0 and out == "8449 8449 8449 AGREE\n"
    code, out, _ = run(capsys, "verify", "--p", "5", "--q", "2113")
    assert code == 0 and out.endswith("result PASS\n")


# SHA-256 of stdout, keyed by the argv after `z4seq`; every call exits 0 with
# an empty stderr.  The lc and defpoly json bytes at (5,13), (5,113) and
# (17,29) come from the numpy uint8 implementation and carry every DFT
# coefficient (defpoly) and rho (lc); the defpoly text bytes, every
# coefficient string, from the packed-int DFT filled round each coset by the
# Frobenius map.  The rest were recorded before the Reeds-Sloane length
# bookkeeping, the admissible-case raises and the list-product Graeffe lift
# left the library.
GOLDEN = {
    "lc --p 5 --q 13 --method formula --format text":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 5 --q 13 --method formula --format json":
        "dd4befbaf6af35fdde17334f9e3019706719ab64b7d507d70600492ddb938ea1",
    "lc --p 5 --q 13 --method formula --format csv":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 5 --q 13 --method dft --format text":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 5 --q 13 --method dft --format json":
        "a7a97b64d2ffa7cdfed560beddc4a711e5e0af3a1acbf0548e01cfde82384ce8",
    "lc --p 5 --q 13 --method dft --format csv":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 5 --q 13 --method reeds-sloane --format text":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 5 --q 13 --method reeds-sloane --format json":
        "72f35ee7babac3f918b916c2fc67dca429d5d55e4f1c628aabffeb1248b74d2b",
    "lc --p 5 --q 13 --method reeds-sloane --format csv":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 5 --q 13 --method all --format text":
        "dd8dd63d8995cc6fdba66480f378b55aa3ed76ce179d51ef09261b831648ca3c",
    "lc --p 5 --q 13 --method all --format json":
        "5ad097ab84ce6632adbefedab8e9f43e725eb6fddf0fccf123e9b568f6fca57e",
    "lc --p 5 --q 13 --method all --format csv":
        "9be088e38e7b369a6a0e4c383730ab4c94009e09d5fce41f9977504fb6b358c0",
    "defpoly --p 5 --q 13 --format text":
        "ef94274cc0e391bb18d69a8a3839c02b71b84b4573860b5843742c1d56daed85",
    "defpoly --p 5 --q 13 --format json":
        "8ea34a3bd240f523271b239ff280383acf54c41dcf703a3dfce2ac9560c4db98",
    "defpoly --p 5 --q 13 --format csv":
        "ef94274cc0e391bb18d69a8a3839c02b71b84b4573860b5843742c1d56daed85",
    "verify --p 5 --q 13":
        "136786eecd6d347a1618ea9f4b6628a4ee6d83383a9eb3d3d6e5e356f621f512",
    "trace --p 5 --q 13":
        "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431",
    "lc --p 13 --q 5 --method formula --format text":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 13 --q 5 --method formula --format json":
        "c5efc884d4b5960581880597d6f6dc279f120d479a7aae1de17a1fba5b48356b",
    "lc --p 13 --q 5 --method formula --format csv":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 13 --q 5 --method dft --format text":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 13 --q 5 --method dft --format json":
        "4579a11d416291f7644aebe0eb29d9faf1520b16c457b81528a28b99b210d4ca",
    "lc --p 13 --q 5 --method dft --format csv":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 13 --q 5 --method reeds-sloane --format text":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 13 --q 5 --method reeds-sloane --format json":
        "d8862b8e032decd6580efde4f687c59a03cc40de7947e64e3dd25006c1b913e2",
    "lc --p 13 --q 5 --method reeds-sloane --format csv":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    "lc --p 13 --q 5 --method all --format text":
        "dd8dd63d8995cc6fdba66480f378b55aa3ed76ce179d51ef09261b831648ca3c",
    "lc --p 13 --q 5 --method all --format json":
        "a140c2ee0f76dc3217b2f6b51d84051eb57426b22a6aa2febca491ad5495dcee",
    "lc --p 13 --q 5 --method all --format csv":
        "752dd6ba5b0f31ef239af401ea84f33bbea15351e7d02afae7967cc0d7ef2016",
    "defpoly --p 13 --q 5 --format text":
        "f67e089e66fe746d7e7a26b93d119a93f72d8cd874528f1c16b32abcf4458c92",
    "defpoly --p 13 --q 5 --format json":
        "a276e925eed435a147e7be922ad8575a5644b8f4dbb8182b720f260e75a2f55a",
    "defpoly --p 13 --q 5 --format csv":
        "f67e089e66fe746d7e7a26b93d119a93f72d8cd874528f1c16b32abcf4458c92",
    "verify --p 13 --q 5":
        "136786eecd6d347a1618ea9f4b6628a4ee6d83383a9eb3d3d6e5e356f621f512",
    "trace --p 13 --q 5":
        "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431",
    "lc --p 13 --q 17 --method formula --format text":
        "b4954200c4fde0dc36bd14fb64c23faca965ac900b036bf71ef9c1590b0d56ed",
    "lc --p 13 --q 17 --method formula --format json":
        "bfa7991f6db0f514628ec0a508cbbb3cd51a0085a0d99683f437bae1dcf1595e",
    "lc --p 13 --q 17 --method formula --format csv":
        "b4954200c4fde0dc36bd14fb64c23faca965ac900b036bf71ef9c1590b0d56ed",
    "lc --p 13 --q 17 --method dft --format text":
        "b4954200c4fde0dc36bd14fb64c23faca965ac900b036bf71ef9c1590b0d56ed",
    "lc --p 13 --q 17 --method dft --format json":
        "2df57d8ddc71475a038caace179496edee61d78dde0c48c480bd2f8ac8c898e5",
    "lc --p 13 --q 17 --method dft --format csv":
        "b4954200c4fde0dc36bd14fb64c23faca965ac900b036bf71ef9c1590b0d56ed",
    "lc --p 13 --q 17 --method reeds-sloane --format text":
        "b4954200c4fde0dc36bd14fb64c23faca965ac900b036bf71ef9c1590b0d56ed",
    "lc --p 13 --q 17 --method reeds-sloane --format json":
        "e9dbf364260e1e9994922186ac4886e5246c705f63503b3b357d2237ec90e4fa",
    "lc --p 13 --q 17 --method reeds-sloane --format csv":
        "b4954200c4fde0dc36bd14fb64c23faca965ac900b036bf71ef9c1590b0d56ed",
    "lc --p 13 --q 17 --method all --format text":
        "b827abe1739c7bbf0b6b2f7563c027f0dd43158250cc8e3b8efceee56b7b0dcc",
    "lc --p 13 --q 17 --method all --format json":
        "3246e9ac7a87fbf27c797269448891c5eecb265d08ae27d0b24eb11d67a35feb",
    "lc --p 13 --q 17 --method all --format csv":
        "027adee7cc1e4d95152834338e6ab1c770c401011851792ba9449799c85edab3",
    "defpoly --p 13 --q 17 --format text":
        "98b8f52ac25e247597d1bf6e978524c22e722a0bf0310fc3aaf7e60dec04250e",
    "defpoly --p 13 --q 17 --format json":
        "25ce85bf34814258bb6076183cbe8c81d417938416054bee89d77a1e31539145",
    "defpoly --p 13 --q 17 --format csv":
        "98b8f52ac25e247597d1bf6e978524c22e722a0bf0310fc3aaf7e60dec04250e",
    "verify --p 13 --q 17":
        "136786eecd6d347a1618ea9f4b6628a4ee6d83383a9eb3d3d6e5e356f621f512",
    "trace --p 13 --q 17":
        "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431",
    "lc --p 5 --q 29 --method formula --format text":
        "bec4c0b05bdca335d3f6f76051d1054cb36e2dd3f3b963d4222cf221059dea8b",
    "lc --p 5 --q 29 --method formula --format json":
        "cc4dcc1d8cf7e8daf55336c30f32b587a772595c45df7a7d464a2acd30d6c3f4",
    "lc --p 5 --q 29 --method formula --format csv":
        "bec4c0b05bdca335d3f6f76051d1054cb36e2dd3f3b963d4222cf221059dea8b",
    "lc --p 5 --q 29 --method dft --format text":
        "bec4c0b05bdca335d3f6f76051d1054cb36e2dd3f3b963d4222cf221059dea8b",
    "lc --p 5 --q 29 --method dft --format json":
        "e824a06ba06fd37d3661a1771bc242855711113c168017b8e0017514ba1fc1f1",
    "lc --p 5 --q 29 --method dft --format csv":
        "bec4c0b05bdca335d3f6f76051d1054cb36e2dd3f3b963d4222cf221059dea8b",
    "lc --p 5 --q 29 --method reeds-sloane --format text":
        "bec4c0b05bdca335d3f6f76051d1054cb36e2dd3f3b963d4222cf221059dea8b",
    "lc --p 5 --q 29 --method reeds-sloane --format json":
        "2c3bc3745f5d51f09ad28a802c9f03caf8ad3420f30457881b5d95ff54438076",
    "lc --p 5 --q 29 --method reeds-sloane --format csv":
        "bec4c0b05bdca335d3f6f76051d1054cb36e2dd3f3b963d4222cf221059dea8b",
    "lc --p 5 --q 29 --method all --format text":
        "420cce0b94626b88df5d4ba6310ebe3c919e9565ed064c7beda4f33905d5da0a",
    "lc --p 5 --q 29 --method all --format json":
        "d11480ef143b8abd5b68de00e1c8d80ef8e5db365cfd3faf02bbd35c559fa5d8",
    "lc --p 5 --q 29 --method all --format csv":
        "f666146f529507a0f43d947d3aee52b74cf5d0984269f277bf2c13c4b982126d",
    "defpoly --p 5 --q 29 --format text":
        "7a132f121298e2260b48b5ca3e7535852575d727ffe63f97465149b5d6f7ec78",
    "defpoly --p 5 --q 29 --format json":
        "1876a7c5b917096c78c7935826db0c07f5192548cd7a8fe87a6c44d09b58fbd8",
    "defpoly --p 5 --q 29 --format csv":
        "7a132f121298e2260b48b5ca3e7535852575d727ffe63f97465149b5d6f7ec78",
    "verify --p 5 --q 29":
        "136786eecd6d347a1618ea9f4b6628a4ee6d83383a9eb3d3d6e5e356f621f512",
    "trace --p 5 --q 29":
        "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431",
    "lc --p 37 --q 5 --method formula --format text":
        "4a6082659f35a2809c92fdf5707625c448b72cdf0a4e0c55a68c722bc8136947",
    "lc --p 37 --q 5 --method formula --format json":
        "f3cf00542ba2a22895c2fdc8b7b8a1ca3a8cbc3bac9289bb5b965f0079975728",
    "lc --p 37 --q 5 --method formula --format csv":
        "4a6082659f35a2809c92fdf5707625c448b72cdf0a4e0c55a68c722bc8136947",
    "lc --p 37 --q 5 --method dft --format text":
        "4a6082659f35a2809c92fdf5707625c448b72cdf0a4e0c55a68c722bc8136947",
    "lc --p 37 --q 5 --method dft --format json":
        "a49b6660aac7e07f300f6d445ed9409f2168a153f46c916e827d07c745c2d3e3",
    "lc --p 37 --q 5 --method dft --format csv":
        "4a6082659f35a2809c92fdf5707625c448b72cdf0a4e0c55a68c722bc8136947",
    "lc --p 37 --q 5 --method reeds-sloane --format text":
        "4a6082659f35a2809c92fdf5707625c448b72cdf0a4e0c55a68c722bc8136947",
    "lc --p 37 --q 5 --method reeds-sloane --format json":
        "c62bc7a24652b79bbb296113b42e61b5d58a1ed53eb1d47304c3a19f3f389001",
    "lc --p 37 --q 5 --method reeds-sloane --format csv":
        "4a6082659f35a2809c92fdf5707625c448b72cdf0a4e0c55a68c722bc8136947",
    "lc --p 37 --q 5 --method all --format text":
        "ef9707399dda6e64c6187d50a6d95d32396b930685d1c696ea4970d719967fd9",
    "lc --p 37 --q 5 --method all --format json":
        "5afd48a413039700e653ea0dd232c9e1b4825ff67a4bc0c7b52f42ac9bd0df38",
    "lc --p 37 --q 5 --method all --format csv":
        "1e85daca63d890358b45faf41f8c8bec98e2c35e4cb8f2b2655eba4e844fe272",
    "defpoly --p 37 --q 5 --format text":
        "1984c3d2b0fbfba0315488f667d62bdc27b733dfa619b79e337a55d00e9d8dd4",
    "defpoly --p 37 --q 5 --format json":
        "6abbb367e77889685150156d2aa1a23b0b602a88daeca1a9c23374f9ece427db",
    "defpoly --p 37 --q 5 --format csv":
        "1984c3d2b0fbfba0315488f667d62bdc27b733dfa619b79e337a55d00e9d8dd4",
    "verify --p 37 --q 5":
        "136786eecd6d347a1618ea9f4b6628a4ee6d83383a9eb3d3d6e5e356f621f512",
    "trace --p 37 --q 5":
        "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431",
    "lc --p 5 --q 113 --method formula --format text":
        "e3eebf5db7f62a8a42bdea11ff52c2e05664e676fb96fe668d51a960f7e6165e",
    "lc --p 5 --q 113 --method formula --format json":
        "81b01e467ce85f7b8b596aad88ab35d52043d7b6a543b70cdcac64896d8a8407",
    "lc --p 5 --q 113 --method formula --format csv":
        "e3eebf5db7f62a8a42bdea11ff52c2e05664e676fb96fe668d51a960f7e6165e",
    "lc --p 5 --q 113 --method dft --format text":
        "e3eebf5db7f62a8a42bdea11ff52c2e05664e676fb96fe668d51a960f7e6165e",
    "lc --p 5 --q 113 --method dft --format json":
        "eb55dcd1826883f19abf2bc6d0b14268784698ae66a1e6e3f948264ea430cd6b",
    "lc --p 5 --q 113 --method dft --format csv":
        "e3eebf5db7f62a8a42bdea11ff52c2e05664e676fb96fe668d51a960f7e6165e",
    "lc --p 5 --q 113 --method reeds-sloane --format text":
        "e3eebf5db7f62a8a42bdea11ff52c2e05664e676fb96fe668d51a960f7e6165e",
    "lc --p 5 --q 113 --method reeds-sloane --format json":
        "a8ad545b3b531af012e7f49e771bbb68acfa0de06a3c527a80c876f4e98157a5",
    "lc --p 5 --q 113 --method reeds-sloane --format csv":
        "e3eebf5db7f62a8a42bdea11ff52c2e05664e676fb96fe668d51a960f7e6165e",
    "lc --p 5 --q 113 --method all --format text":
        "a8162a5678f7784f85a412626e71ae348efe46515386c5dde0ffcfac21f0661e",
    "lc --p 5 --q 113 --method all --format json":
        "a2d15fc125ee923221d0faa9021280542384bd2ba99fc128aa3920fb7061e2bb",
    "lc --p 5 --q 113 --method all --format csv":
        "bb3f0f91b31727b0fb46f459ef13461a32f6f11426f6573a815e816963c4b839",
    "defpoly --p 5 --q 113 --format text":
        "efb088cc4a885ee98e7e48bda8a28202b08774b1a03b5b8f075ac21a77c687cc",
    "defpoly --p 5 --q 113 --format json":
        "57a6c53bd08acef04d3f4fc1d79a7849c94dd3988be833a3240f31c825a3942a",
    "defpoly --p 5 --q 113 --format csv":
        "efb088cc4a885ee98e7e48bda8a28202b08774b1a03b5b8f075ac21a77c687cc",
    "verify --p 5 --q 113":
        "136786eecd6d347a1618ea9f4b6628a4ee6d83383a9eb3d3d6e5e356f621f512",
    "trace --p 5 --q 113":
        "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431",
    "lc --p 5 --q 73 --method formula --format text":
        "e1b731715e45909f0522043acc90cb457dd31a8736186c058cc3fd6271878326",
    "lc --p 5 --q 73 --method formula --format json":
        "45368ba6ca80e5f543ed245c3afcaa5b44c5762792570f7a8214164a0bd659b9",
    "lc --p 5 --q 73 --method formula --format csv":
        "e1b731715e45909f0522043acc90cb457dd31a8736186c058cc3fd6271878326",
    "lc --p 5 --q 73 --method dft --format text":
        "e1b731715e45909f0522043acc90cb457dd31a8736186c058cc3fd6271878326",
    "lc --p 5 --q 73 --method dft --format json":
        "30ec96813fa47097d08bdfebf8f717054976ca722b437ee983e4f61646df1041",
    "lc --p 5 --q 73 --method dft --format csv":
        "e1b731715e45909f0522043acc90cb457dd31a8736186c058cc3fd6271878326",
    "lc --p 5 --q 73 --method reeds-sloane --format text":
        "e1b731715e45909f0522043acc90cb457dd31a8736186c058cc3fd6271878326",
    "lc --p 5 --q 73 --method reeds-sloane --format json":
        "6d522b96e28591c24ec68d63167dbc756a3835353e13e2daa71ea9e7635b7b9f",
    "lc --p 5 --q 73 --method reeds-sloane --format csv":
        "e1b731715e45909f0522043acc90cb457dd31a8736186c058cc3fd6271878326",
    "lc --p 5 --q 73 --method all --format text":
        "e7e94cc757b76a7853da1446782a98f108211a404cf0cd153541b87ad56656ae",
    "lc --p 5 --q 73 --method all --format json":
        "cc126a97152c8b2856ec0c78e0ba84f003637275d6b41b451ca7e54b0088b5a2",
    "lc --p 5 --q 73 --method all --format csv":
        "fb74ee5f0978878761833faaf69edbb23e88c66ca9dd57dced8d048b1dba047e",
    "defpoly --p 5 --q 73 --format text":
        "27eb7355427f60800dbd38c734e42f24d9187de440e540f167ef986a98257148",
    "defpoly --p 5 --q 73 --format json":
        "26d4bad74c7c8b6a7ce5686f78fabdaa59d8e3a70daef2e60e223e15f7278bc0",
    "defpoly --p 5 --q 73 --format csv":
        "27eb7355427f60800dbd38c734e42f24d9187de440e540f167ef986a98257148",
    "verify --p 5 --q 73":
        "136786eecd6d347a1618ea9f4b6628a4ee6d83383a9eb3d3d6e5e356f621f512",
    "trace --p 5 --q 73":
        "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431",
    "lc --p 17 --q 29 --method formula --format text":
        "d4055e6d5eadf6706ccf773327b59b1de9db8c5024908a9c18af27a0009706f4",
    "lc --p 17 --q 29 --method formula --format json":
        "8442ea41a059f2c2ac32e4d96aba3abe0d1863f2ad4f2c748690cb1751b56863",
    "lc --p 17 --q 29 --method formula --format csv":
        "d4055e6d5eadf6706ccf773327b59b1de9db8c5024908a9c18af27a0009706f4",
    "lc --p 17 --q 29 --method dft --format text":
        "d4055e6d5eadf6706ccf773327b59b1de9db8c5024908a9c18af27a0009706f4",
    "lc --p 17 --q 29 --method dft --format json":
        "0296205b4983a44fad9b824f6c7c854c82e35e829138506d78a3d805653ccdda",
    "lc --p 17 --q 29 --method dft --format csv":
        "d4055e6d5eadf6706ccf773327b59b1de9db8c5024908a9c18af27a0009706f4",
    "lc --p 17 --q 29 --method reeds-sloane --format text":
        "d4055e6d5eadf6706ccf773327b59b1de9db8c5024908a9c18af27a0009706f4",
    "lc --p 17 --q 29 --method reeds-sloane --format json":
        "aa1a1ce79fcf7db3cec42c592430b75e07631e769595cec343893129ff860b6b",
    "lc --p 17 --q 29 --method reeds-sloane --format csv":
        "d4055e6d5eadf6706ccf773327b59b1de9db8c5024908a9c18af27a0009706f4",
    "lc --p 17 --q 29 --method all --format text":
        "197ea7c12c932782ddf4a74b8ab0a519cb2a5a08cb9f16f896adab5416d0c644",
    "lc --p 17 --q 29 --method all --format json":
        "e2bc8d11e2e871cc623dbf9f54a5dfd5b55a7f15099d1eae5fca601e89202a22",
    "lc --p 17 --q 29 --method all --format csv":
        "10ea125ff7fc679da53fbedaadb462da0e99e0ba705eb1cad79b090c2978908f",
    "defpoly --p 17 --q 29 --format text":
        "fa327588a44c52d2c2ae43a926eccc815de720cb424fcf12eca36eb3721c76c2",
    "defpoly --p 17 --q 29 --format json":
        "a387e3d6935a738917c217ebef859be3c59d2187b65f03ae52416ec2d783ff29",
    "defpoly --p 17 --q 29 --format csv":
        "fa327588a44c52d2c2ae43a926eccc815de720cb424fcf12eca36eb3721c76c2",
    "verify --p 17 --q 29":
        "136786eecd6d347a1618ea9f4b6628a4ee6d83383a9eb3d3d6e5e356f621f512",
    "trace --p 17 --q 29":
        "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431",
    "sweep --p-max 40 --q-max 40 --r-max 64 --workers 1 --format csv":
        "1e23a2e8d0ce7d3e93d8b1a3522bc17439ab3747d268a282f7924dafcd3784a7",
    "sweep --p-max 40 --q-max 40 --r-max 64 --workers 1 --format json":
        "a693bcf15381281f36fdd5533dd20b77fc8503ce9635ec13f0fad726c843032f",
    "sweep --p-max 40 --q-max 40 --r-max 64 --workers 1 --format text":
        "a36b4f1920a8faef75e9d61cfad12ce5ab22e5cbb07d1a6e12c7015472222698",
}
DFT_PAIRS = [("5", "13"), ("5", "113"), ("17", "29")]  # the first pinned DFT bytes


def golden_key(command, fmt, p, q):
    method = " --method all" if command == "lc" else ""
    return f"{command} --p {p} --q {q}{method} --format {fmt}"


def golden_cases(fmt):
    commands = ("defpoly", "lc") if fmt == "json" else ("defpoly",)
    return sorted((command, p, q) for command in commands for p, q in DFT_PAIRS)


def assert_golden(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("command, p, q", golden_cases("json"))
def test_json_bytes_are_golden(capsys, command, p, q):
    assert_golden(capsys, golden_key(command, "json", p, q))


@pytest.mark.parametrize("command, p, q", golden_cases("text"))
def test_text_bytes_are_golden(capsys, command, p, q):
    assert_golden(capsys, golden_key(command, "text", p, q))


DFT_KEYS = {golden_key(c, f, p, q) for f in ("json", "text") for c, p, q in golden_cases(f)}


@pytest.mark.parametrize("argv", [a for a in GOLDEN if a not in DFT_KEYS])
def test_cli_bytes_are_golden(capsys, argv):
    assert_golden(capsys, argv)


def test_degree_cap_error_bytes(monkeypatch, capsys):
    code, out, err = run(capsys, "lc", "--p", "5", "--q", "2113", "--r-max", "30")
    assert (code, out) == (2, "")
    assert err == "ERROR DegreeTooLarge: extension degree 44 exceeds cap 30\n"
    # ell = 7348 passes the 7281 degrees 16-bit slots hold; the slot cap is
    # checked before the primitive search, still running after 10 s at this degree
    def search(r):
        raise AssertionError(f"primitive search reached at degree {r}")

    monkeypatch.setattr(galois, "_smallest_primitive_binary", search)
    code, out, err = run(capsys, "lc", "--p", "5", "--q", "7349", "--r-max", "9000")
    assert (code, out) == (2, "")
    assert err == ("ERROR DegreeTooLarge: degree 7348 exceeds 7281, "
                   "the most 16-bit slots hold\n")
