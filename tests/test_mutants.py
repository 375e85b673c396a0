"""The engine-mutant list stays in step with the source."""

from mutants import MUTANTS, PACKAGE, ROOT, edits


def test_every_mutant_applies_to_the_source_once():
    # ``python tests/mutants.py`` runs the mutants; here each old text must
    # still occur exactly once, so that no entry rots silently.
    for file, old, new, what, tests in MUTANTS:
        source = (ROOT / PACKAGE / file).read_text()
        for text, replacement in edits(old, new):
            assert source.count(text) == 1, what
            assert text != replacement, what
        assert tests, what
