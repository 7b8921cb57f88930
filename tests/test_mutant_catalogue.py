"""Every mutant of `tests/mutants.py` still applies to the tree it breaks.

The catalogue itself runs outside the quick suite; this only checks that
each entry's old string occurs exactly once in its file, that its test
files exist and that the mutated file still compiles, so an edit that
strands or breaks a mutant fails here at once, and that the runner ends a
pytest run that outlasts its time limit.
"""

import time
from pathlib import Path

import pytest

import mutants
from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_string_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)
    # the mutated file still compiles, so the catalogue run reports a kill
    # or a survival, never a syntax error
    assert mutant.new != mutant.old
    compile(text.replace(mutant.old, mutant.new), mutant.path, "exec")


def ended(pid):
    """Whether `pid` has exited (gone, or a zombie no one has reaped yet)."""
    stat = Path(f"/proc/{pid}/stat")
    try:
        return stat.read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_run_past_the_time_limit_is_killed_with_its_children(tmp_path, monkeypatch):
    pid_file = tmp_path / "child.pid"
    (tmp_path / "test_hang.py").write_text(
        "import os, time\n"
        "def test_hang():\n"
        "    child = os.fork()\n"
        "    if child == 0:\n"
        "        time.sleep(120)\n"
        "        os._exit(0)\n"
        f"    open({str(pid_file)!r}, 'w').write(str(child))\n"
        "    time.sleep(120)\n")
    monkeypatch.setattr(mutants, "PYTEST_TIMEOUT_S", 5)
    assert mutants.run_pytest(tmp_path, ["test_hang.py"]) is None
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 10
    while not ended(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert ended(child)
