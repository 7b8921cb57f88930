import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import z4seq
from z4seq import _sweep, analysis, lfsr
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
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--p", "5", "--q", "13", "--check"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and not captured.out
    assert "unrecognized arguments: --check" in captured.err


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


def test_worker_print_reaches_stdout(monkeypatch, tmp_path):
    real = analysis.analyze

    def analyze(system, r_max):
        print(f"note {system.p},{system.q}")
        return real(system, r_max)

    monkeypatch.setattr(analysis, "analyze", analyze)
    argv = [*SMALL_SWEEP, "--workers", "2", "--out", str(tmp_path / "sweep.csv")]
    stdout = tmp_path / "stdout"
    # a block-buffered stdout, which pytest's capture is not
    with open(stdout, "w", encoding="utf-8") as fh, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", fh)
        assert main(argv) == 0
    notes = stdout.read_text().splitlines()
    assert sorted(notes) == ["note 13,17", "note 13,5", "note 17,13", "note 17,5",
                             "note 5,13", "note 5,17"]


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


def test_unknown_method_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lc", "--p", "5", "--q", "13", "--method", "bogus"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and not captured.out
    assert "argument --method: invalid choice: 'bogus'" in captured.err
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
    with pytest.raises(SystemExit) as exc:
        main([command, "--p", "5", "--q", "13", "--r-max", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --r-max 8" in capsys.readouterr().err
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
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"ring-degree cap (default {default})" in " ".join(capsys.readouterr().out.split())


def test_register_failing_its_check_disagrees(monkeypatch, capsys):
    real = lfsr.reeds_sloane

    def reeds_sloane(digits):
        res = real(digits)
        return LfsrResult(res.length, res.connection, annihilates=False)

    # analyze imports reeds_sloane from lfsr when it runs
    monkeypatch.setattr(lfsr, "reeds_sloane", reeds_sloane)
    code, out, _ = run(capsys, "lc", "--p", "5", "--q", "13", "--method", "all")
    assert code == 1 and out == "65 65 65 DISAGREE\n"
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
    with pytest.raises(SystemExit) as exc:
        main([command, "--p", "5", "--q", "13", "--format", fmt])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
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


# SHA-256 of the json output of the numpy uint8 implementation: the bytes
# carry every DFT coefficient (defpoly) and rho (lc)
GOLDEN = {
    ("defpoly", "5", "13"): "8ea34a3bd240f523271b239ff280383acf54c41dcf703a3dfce2ac9560c4db98",
    ("lc", "5", "13"): "5ad097ab84ce6632adbefedab8e9f43e725eb6fddf0fccf123e9b568f6fca57e",
    ("defpoly", "5", "113"): "57a6c53bd08acef04d3f4fc1d79a7849c94dd3988be833a3240f31c825a3942a",
    ("lc", "5", "113"): "a2d15fc125ee923221d0faa9021280542384bd2ba99fc128aa3920fb7061e2bb",
    ("defpoly", "17", "29"): "a387e3d6935a738917c217ebef859be3c59d2187b65f03ae52416ec2d783ff29",
    ("lc", "17", "29"): "e2bc8d11e2e871cc623dbf9f54a5dfd5b55a7f15099d1eae5fca601e89202a22",
}


@pytest.mark.parametrize("command, p, q", sorted(GOLDEN))
def test_json_bytes_are_golden(capsys, command, p, q):
    code, out, _ = run(capsys, command, "--p", p, "--q", q, "--r-max", "64",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command, p, q]
