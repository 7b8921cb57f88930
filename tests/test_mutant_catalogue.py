"""Every mutant of `tests/mutants.py` still applies to the tree it breaks.

The catalogue itself runs outside the quick suite; this only checks that
each entry's old string occurs exactly once in its file and that its test
files exist, so an edit that strands a mutant fails here at once.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_string_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)
