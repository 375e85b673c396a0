"""The engine-mutant list stays in step with the source."""

from mutants import MUTANTS, PACKAGE, ROOT


def test_every_mutant_applies_to_the_source_once():
    # ``python tests/mutants.py`` runs the mutants; here each old text must
    # still occur exactly once, so that no entry rots silently.
    for file, old, new, what, tests in MUTANTS:
        assert (ROOT / PACKAGE / file).read_text().count(old) == 1, what
        assert old != new and tests, what
