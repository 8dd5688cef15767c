"""Mutation probe: every mutant in ``MUTANTS`` must make Tier-1 fail.

Run from anywhere, with the test requirements installed:

    python tests/mutation_probe.py          # every mutant
    python tests/mutation_probe.py 0 3      # the mutants at those indices

The probe first runs the Tier-1 suite on an unmutated copy of the
repository, which must pass.  Then, for each mutant, it copies the
repository into a temporary directory, replaces the mutant's old text
(which must occur exactly once in its file) by the new text, and runs
``python -m pytest -q -x --continue-on-collection-errors`` there with
that copy's ``src`` first on the path.  A mutant is killed when pytest
exits nonzero.  It prints one line per mutant and the score, and exits 1
if any mutant survives.

Pytest does not collect this file, since its name does not match
``test_*.py``.  A change to ``src/`` adds mutants of its own rules here
and records the score in CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "out")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


MUTANTS = [
    Mutant(
        "src/crankrank/partitions.py",
        "while below and mu[below - 1][0] <= j:",
        "while below and mu[below - 1][0] < j:",
        "oracle crank walk: parts equal to j counted as greater than j",
    ),
    Mutant(
        "src/crankrank/partitions.py",
        "strings[N] += strings_one if j == 1 else strings_more",
        "strings[N] += strings_more",
        "oracle strings: the odd string from a single 1 dropped at j = 1",
    ),
    Mutant(
        "src/crankrank/partitions.py",
        "durfee_one = durfee_size(with_one)",
        "durfee_one = durfee_size(mu)",
        "oracle Durfee size: that of an empty mu (0) used for 1^j",
    ),
    Mutant(
        "src/crankrank/partitions.py",
        "key = rank_one + 1 - j",
        "key = rank_one",
        "oracle rank: no step down for each further one",
    ),
    Mutant(
        "src/crankrank/partitions.py",
        "    _check_enumerable(n)\n"
        "    count, spt, strings, durfee = ([0] * (n + 1) for _ in range(4))\n",
        "    count, spt, strings, durfee = ([0] * (n + 1) for _ in range(4))\n"
        "    _check_enumerable(n)\n",
        "oracle size check made after the per-N lists are allocated",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(2, ctx.nmax + 1)",
        "for N in range(3, ctx.nmax + 1)",
        "positive-moment-inequality checks from N = 3, not the N = 2 stated",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(2, ctx.nmax + 1)",
        "for N in range(2, ctx.nmax)",
        "positive-moment-inequality stops before the N = nmax stated",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(1, ctx.nmax) if ctx.ospt[N + 1] < ctx.ospt[N]",
        "for N in range(2, ctx.nmax) if ctx.ospt[N + 1] < ctx.ospt[N]",
        "ospt-nondecreasing checks from N = 2, not N = 1",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(1, ctx.nmax) if ctx.ospt[N + 1] < ctx.ospt[N]",
        "for N in range(1, ctx.nmax - 1) if ctx.ospt[N + 1] < ctx.ospt[N]",
        "ospt-nondecreasing stops before comparing ospt(nmax - 1) with "
        "ospt(nmax)",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(1, ctx.nmax + 1)\n             if ctx.ospt[N] % 2",
        "for N in range(2, ctx.nmax + 1)\n             if ctx.ospt[N] % 2",
        "parity-predictor checks from N = 2, not N = 1",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(1, ctx.nmax + 1)\n             if ctx.ospt[N] % 2",
        "for N in range(1, ctx.nmax)\n             if ctx.ospt[N] % 2",
        "parity-predictor stops before the N = nmax stated",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(1, ctx.nmax + 1)\n             for kind, _, pos, _",
        "for N in range(2, ctx.nmax + 1)\n             for kind, _, pos, _",
        "moment-parity checks from N = 2, not N = 1",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(1, ctx.nmax + 1)\n             for kind, _, pos, _",
        "for N in range(1, ctx.nmax)\n             for kind, _, pos, _",
        "moment-parity stops before the N = nmax stated",
    ),
    Mutant(
        "src/crankrank/parity.py",
        "while p * p <= remaining:",
        "while p * p < remaining:",
        "factorize: a remaining p^2 taken for a prime",
    ),
    Mutant(
        "src/crankrank/parity.py",
        "for cand in (p, p + 2):",
        "for cand in (p,):",
        "factorize: the 6k + 1 candidates never tried",
    ),
    Mutant(
        "src/crankrank/parity.py",
        "    if remaining > 1:\n        factors[remaining] = 1\n",
        "",
        "factorize: the prime left over after trial division dropped",
    ),
    Mutant(
        "src/crankrank/cli.py",
        "circle.check_quadrature_order(N, r_list[-1])",
        "circle.check_quadrature_order(N, r_list[0])",
        "circle: only the smallest order checked before the exact "
        "coefficients are built",
    ),
    Mutant(
        "src/crankrank/circle.py",
        "    if exact == 0:\n",
        "    if False:\n",
        "wright_integrals: an exact coefficient of 0 sent to quadrature",
    ),
]


def tier1(tree: Path) -> int:
    """Exit code of the Tier-1 suite, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant | None) -> int:
    """Tier-1's exit code on a copy of the repository with ``mutant``."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if mutant is not None:
            path = tree / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.file}: old text of "
                                 f"{mutant.reason!r} is not there exactly once")
            path.write_text(text.replace(mutant.old, mutant.new))
        return tier1(tree)


def main(argv: list) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    if run(None) != 0:
        print("the unmutated tree fails Tier-1; no mutant can be scored")
        return 1
    killed = 0
    for index in chosen:
        mutant = MUTANTS[index]
        start = time.monotonic()
        dead = run(mutant) != 0
        killed += dead
        print(f"{index}: {'killed' if dead else 'SURVIVED'} "
              f"({time.monotonic() - start:.1f} s) {mutant.file}: "
              f"{mutant.reason}", flush=True)
    print(f"killed {killed} of {len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
