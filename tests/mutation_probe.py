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
# test_mutation_probe.py checks MUTANTS against the unmutated tree, so the
# copies leave it out
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "out", "test_mutation_probe.py")


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
    Mutant(
        "src/crankrank/moments.py",
        "for j in range(max(0, abs(m) - q0), n + 1 - q0):",
        "for j in range(max(0, abs(m) - q0), n - q0):",
        "dense_rows: row n left without its numerator monomials",
    ),
    Mutant(
        "src/crankrank/moments.py",
        "for j in range(max(0, abs(m) - q0), n + 1 - q0):",
        "for j in range(n + 1 - q0):",
        "dense_rows: a column m written into the rows N < |m|",
    ),
    Mutant(
        "src/crankrank/moments.py",
        "return self.dense_rows(self.nmax)",
        "return self.dense_rows(self.nmax - 1)",
        "rows: unpacked one row short of nmax",
    ),
    Mutant(
        "src/crankrank/moments.py",
        "return self.full_moments(range(2, 2 * k_max + 1, 2))",
        "return self.full_moments(range(2, 2 * k_max, 2))",
        "full_even_moments_upto: order 2 k_max left out",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "if full[2 * k][N] != 2 * pos[N][2 * k]",
        "if full[N][2 * k] != 2 * pos[N][2 * k]",
        "even-moment-halving: the {r: list over N} family read as [N][r]",
    ),
    Mutant(
        "src/crankrank/verification.py",
        'for kind, start in (("crank", 2), ("rank", 0))',
        'for kind, start in (("crank", 3), ("rank", 0))',
        "table-vs-brute-crank checks from N = 3, not N = 2",
    ),
    Mutant(
        "src/crankrank/verification.py",
        'for kind, start in (("crank", 2), ("rank", 0))',
        'for kind, start in (("crank", 2), ("rank", 1))',
        "table-vs-brute-rank checks from N = 1, not N = 0",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(start, ctx.brute_nmax + 1)",
        "for N in range(start, ctx.brute_nmax)",
        "table-vs-brute stops before N = brute_nmax",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N, s in enumerate(moments.positive_from_symmetrized(sym, r))",
        "for N, s in enumerate(moments.positive_from_symmetrized(sym, r)[1:],"
        " 1)",
        "positive-moment-reconciliation checks from N = 1, not N = 0",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N, s in enumerate(moments.positive_from_symmetrized(sym, r))",
        "for N, s in enumerate(moments.positive_from_symmetrized(sym, r)[:-1])",
        "positive-moment-reconciliation stops before N = nmax",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for r in orders\n             for kind, _, pos, sym",
        "for r in orders[:-1]\n             for kind, _, pos, sym",
        "positive-moment-reconciliation stops before r = MOMENT_ORDER_MAX",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(ctx.nmax + 1)\n             if full[2 * k][N]",
        "for N in range(1, ctx.nmax + 1)\n             if full[2 * k][N]",
        "even-moment-halving checks from N = 1, not N = 0",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(ctx.nmax + 1)\n             if full[2 * k][N]",
        "for N in range(ctx.nmax)\n             if full[2 * k][N]",
        "even-moment-halving stops before N = nmax",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for k in range(1, 6) for N in range(1, ctx.nmax + 1)",
        "for k in range(1, 6) for N in range(2, ctx.nmax + 1)",
        "full-even-moment-inequality checks from N = 2, not N = 1",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for k in range(1, 6) for N in range(1, ctx.nmax + 1)",
        "for k in range(1, 6) for N in range(1, ctx.nmax)",
        "full-even-moment-inequality stops before N = nmax",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(ctx.nmax + 1)\n         if _moment_difference",
        "for N in range(1, ctx.nmax + 1)\n         if _moment_difference",
        "spt-ospt-series-scale checks from N = 1, not N = 0",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(ctx.nmax + 1)\n         if _moment_difference",
        "for N in range(ctx.nmax)\n         if _moment_difference",
        "spt-ospt-series-scale stops before N = nmax",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in Ns if ctx.brute[N].durfee_sum",
        "for N in Ns[1:] if ctx.brute[N].durfee_sum",
        "durfee-first-moment checks from N = 2, not N = 1",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in Ns if ctx.brute[N].durfee_sum",
        "for N in Ns[:-1] if ctx.brute[N].durfee_sum",
        "durfee-first-moment stops before N = brute_nmax",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(offset, ctx.nmax + 1, modulus)",
        "for N in range(offset + modulus, ctx.nmax + 1, modulus)",
        "ramanujan-congruences skips the first N of each progression",
    ),
    Mutant(
        "src/crankrank/verification.py",
        "for N in range(offset, ctx.nmax + 1, modulus)",
        "for N in range(offset, ctx.nmax - 1, modulus)",
        "ramanujan-congruences stops before N = nmax - 1",
    ),
    Mutant(
        "src/crankrank/circle.py",
        "if max(r * log_recip, log_panel) >= ",
        "if r * log_recip >= ",
        "circle: the order refused on 1/(1 - |q|)^r alone, not on the "
        "integrand bound",
    ),
    Mutant(
        "src/crankrank/circle.py",
        "if max(r * log_recip, log_panel) >= ",
        "if log_panel >= ",
        "circle: the order refused on the integrand bound alone, with "
        "1/(1 - |q|)^r past double range",
    ),
    Mutant(
        "src/crankrank/series.py",
        "return head / (1.0 - aq ** (ell * nb))",
        "return head",
        "appell_sum_value: tail without its geometric factor "
        "1/(1 - |q|^(ell (n+1)))",
    ),
    Mutant(
        "src/crankrank/series.py",
        "ratio = (1.0 + 1.0 / nb) * aq ** (nb + 1)",
        "ratio = aq ** (nb + 1)",
        "ospt_numerator_value: tail ratio without its factor (1 + 1/(n+1))",
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
