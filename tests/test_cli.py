import json

import pytest

from z4seq import analysis
from z4seq.cli import main


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
    code, out, _ = run(capsys, "trace", "--p", "5", "--q", "13", "--check")
    assert code == 0 and out.strip() == "PASS"


def test_trace_check_flag_is_deprecated(capsys):
    plain = run(capsys, "trace", "--p", "5", "--q", "13")
    flagged = run(capsys, "trace", "--p", "5", "--q", "13", "--check")
    assert plain[:2] == flagged[:2] == (0, "PASS\n")
    assert plain[2] == ""
    assert len(flagged[2].splitlines()) == 1 and "deprecated" in flagged[2]


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
