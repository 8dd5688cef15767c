"""The mutation probe's mutants still apply to the tree.

``tests/mutation_probe.py`` rewrites each mutant's old text, which must
occur exactly once in its file; a refactor that rewrites such a line
would otherwise be found only when the probe is run by hand.
"""

from mutation_probe import MUTANTS, ROOT


def test_every_mutant_applies_once():
    stale = [(index, mutant.file, mutant.reason)
             for index, mutant in enumerate(MUTANTS)
             if not (ROOT / mutant.file).is_file()
             or (ROOT / mutant.file).read_text().count(mutant.old) != 1
             or mutant.new == mutant.old]
    assert stale == []
