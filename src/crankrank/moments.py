"""Exact crank/rank tables and moment computations.

Two independent routes to the same numbers live here:

* the *table route*: build the full histogram M(m, N) of crank or rank
  values from the bivariate generating function and read moments off it
  as weighted sums over m;
* the *series route*: read symmetrized positive moments directly as the
  integer coefficients of A_{ell,r}(q) / (q;q)_inf, A being
  ``series.appell_sum`` (ell=1 for crank, ell=3 for rank), and recover
  ordinary positive moments through the exact binomial basis change.
  Each formula of this route is written once: ``symmetrized_family``
  forms the quotients, ``positive_from_symmetrized`` applies the basis
  change and ``spt_ospt_from_symmetrized`` combines the first two orders
  into spt and ospt.  ``symmetrized_series``, ``positive_moment_series``
  and ``spt_ospt`` are single-family calls into them.

The two routes meeting exactly, for every N and r, is one of the main
verification targets of the package.

Conventions: all moment computations use the raw generating-function
histogram, including the anomalous crank column at N=1, which is the
normalization under which the series route is exact.  The combinatorial
convention (the q^1 crank column replaced by a single partition of crank
zero) is available for table export only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import series as qs

GENERATING_FUNCTION = "generating_function"
COMBINATORIAL = "combinatorial"

#: Largest default order for moment tables; big enough for the asymptotic
#: trend checks, small enough for minutes-scale runs.
DEFAULT_NMAX = 2000


class CrankRankTable:
    """Exact histogram counts[N][m] of crank or rank over partitions of N.

    Rows are dense Laurent rows of length 2N+1 (index m+N).  The negative
    and positive halves are computed independently from the generating
    function, so row symmetry is a genuine check rather than a storage
    artifact.
    """

    def __init__(self, kind: str, rows, convention: str = GENERATING_FUNCTION):
        if kind not in ("crank", "rank"):
            raise ValueError(f"kind must be 'crank' or 'rank', got {kind!r}")
        if convention not in (GENERATING_FUNCTION, COMBINATORIAL):
            raise ValueError(f"unknown convention {convention!r}")
        if convention == COMBINATORIAL and kind != "crank":
            raise ValueError("the combinatorial convention only applies to crank")
        self.kind = kind
        self.rows = rows
        self.convention = convention

    @classmethod
    def build(cls, kind: str, nmax: int = DEFAULT_NMAX,
              convention: str = GENERATING_FUNCTION) -> "CrankRankTable":
        """Extract the table from the bivariate generating function.

        With convention="combinatorial" (crank only) the N=1 row is
        patched from {-1: 1, 0: -1, 1: 1} to the true count {0: 1}.
        """
        biv = qs.bivariate_series(kind, nmax)
        table = cls(kind, biv.terms, GENERATING_FUNCTION)
        if convention == COMBINATORIAL:
            if kind != "crank":
                raise ValueError("the combinatorial convention only applies to crank")
            rows = list(table.rows)
            if nmax >= 1:
                rows[1] = [0, 1, 0]
            table = cls(kind, rows, COMBINATORIAL)
        return table

    @property
    def nmax(self) -> int:
        return len(self.rows) - 1

    def count(self, m: int, N: int) -> int:
        """Number of partitions of N with statistic value m."""
        if not 0 <= N <= self.nmax:
            raise ValueError(f"N={N} outside table range 0..{self.nmax}")
        if abs(m) > N:
            return 0
        return self.rows[N][m + N]

    def distribution(self, N: int) -> dict:
        """Nonzero histogram entries of row N as a map m -> count."""
        if not 0 <= N <= self.nmax:
            raise ValueError(f"N={N} outside table range 0..{self.nmax}")
        return {m - N: c for m, c in enumerate(self.rows[N]) if c}

    def _require_gf(self) -> None:
        if self.convention != GENERATING_FUNCTION:
            raise ValueError(
                "moments are defined on the generating-function convention; "
                "rebuild the table without the combinatorial patch"
            )

    def positive_moment(self, r: int, N: int) -> int:
        """sum_{m>=1} m^r counts[N][m]; r=0 gives the positive-value count."""
        self._require_gf()
        if r < 0:
            raise ValueError("r must be >= 0")
        row = self.rows[N] if 0 <= N <= self.nmax else None
        if row is None:
            raise ValueError(f"N={N} outside table range 0..{self.nmax}")
        return sum(m ** r * row[m + N] for m in range(1, N + 1))

    def full_moment(self, r: int, N: int) -> int:
        """sum over all m of m^r counts[N][m], both signs included."""
        self._require_gf()
        if r < 0:
            raise ValueError("r must be >= 0")
        if not 0 <= N <= self.nmax:
            raise ValueError(f"N={N} outside table range 0..{self.nmax}")
        row = self.rows[N]
        return sum(m ** r * row[m + N] for m in range(-N, N + 1))

    def symmetrized_moment(self, r: int, N: int) -> int:
        """sum_{m>=1} C(m + floor((r-1)/2), r) counts[N][m].

        This is the direct binomial-weighted route; it must coincide with
        the coefficients of ``symmetrized_family``.
        """
        self._require_gf()
        if r < 1:
            raise ValueError("r must be >= 1")
        if not 0 <= N <= self.nmax:
            raise ValueError(f"N={N} outside table range 0..{self.nmax}")
        off = (r - 1) // 2
        row = self.rows[N]
        return sum(
            comb(m + off, r) * row[m + N]
            for m in range(1, N + 1)
            if row[m + N]
        )

    def positive_moments_upto(self, r_max: int):
        """All positive moments r=0..r_max for every N, in one table pass.

        Returns a list indexed by N of lists indexed by r.  Powers of m
        are built incrementally, which is what makes r_max=10 over the
        full default range affordable.
        """
        self._require_gf()
        out = []
        for N in range(self.nmax + 1):
            row = self.rows[N]
            acc = [0] * (r_max + 1)
            for m in range(1, N + 1):
                c = row[m + N]
                if c:
                    acc[0] += c
                    pw = 1
                    for r in range(1, r_max + 1):
                        pw *= m
                        acc[r] += pw * c
            out.append(acc)
        return out

    def full_even_moments_upto(self, k_max: int):
        """Full moments of orders 2, 4, ..., 2*k_max for every N, one pass.

        Sums m^{2k} (counts[N][m] + counts[N][-m]) over m >= 1, touching
        both halves of each row independently, so this does not assume the
        symmetry it is typically used to cross-check.  Returns a list
        indexed by N of lists indexed by k (entry 0 unused).
        """
        self._require_gf()
        out = []
        for N in range(self.nmax + 1):
            row = self.rows[N]
            acc = [0] * (k_max + 1)
            for m in range(1, N + 1):
                c = row[N + m] + row[N - m]
                if c:
                    m2 = m * m
                    pw = 1
                    for k in range(1, k_max + 1):
                        pw *= m2
                        acc[k] += pw * c
            out.append(acc)
        return out

    def write_csv(self, fh) -> None:
        """Write rows ``kind,n,m,coefficient`` sorted by (n, m)."""
        fh.write("kind,n,m,coefficient\n")
        for N, row in enumerate(self.rows):
            for i, c in enumerate(row):
                if c:
                    fh.write(f"{self.kind},{N},{i - N},{c}\n")


@dataclass(frozen=True)
class MomentTable:
    """A single family of exact moment values indexed by N."""

    kind: str           # "crank" | "rank"
    variant: str        # "full" | "positive" | "symmetrized"
    r: int
    ell: int | None     # 1 or 3 for symmetrized, None otherwise
    values: list

    def write_csv(self, fh) -> None:
        fh.write("N,value\n")
        for N, v in enumerate(self.values):
            fh.write(f"{N},{v}\n")


def kind_for_ell(ell: int) -> str:
    if ell == 1:
        return "crank"
    if ell == 3:
        return "rank"
    raise ValueError(f"ell must be 1 or 3, got {ell}")


def ell_for_kind(kind: str) -> int:
    if kind == "crank":
        return 1
    if kind == "rank":
        return 3
    raise ValueError(f"kind must be 'crank' or 'rank', got {kind!r}")


def symmetrized_family(ell: int, orders, nmax: int) -> dict:
    """Symmetrized positive moments of every order in ``orders``, as {r: coeffs}.

    coeffs[N] is the coefficient of q^N in A_{ell,r}(q) / (q;q)_inf, where
    A_{ell,r} is ``series.appell_sum``; it equals the binomial-weighted
    moment sum_{m>=1} C(m + floor((r-1)/2), r) M(m, N) over the crank
    (ell=1) or rank (ell=3) histogram.  This is the one place the quotient
    is formed: 1/(q;q)_inf is built once, and each order costs one product.
    """
    p = qs.partition_series(nmax)
    return {r: (qs.appell_sum(ell, r, nmax) * p).coeffs for r in orders}


def symmetrized_series(ell: int, r: int, nmax: int) -> MomentTable:
    """The order-r symmetrized positive moments, see ``symmetrized_family``."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return MomentTable(
        kind=kind_for_ell(ell), variant="symmetrized", r=r, ell=ell,
        values=symmetrized_family(ell, (r,), nmax)[r],
    )


def _binomial_basis_polynomial(ell: int) -> list:
    """Coefficients (as Fractions, ascending) of m -> C(m + floor((ell-1)/2), ell)."""
    if ell == 0:
        return [Fraction(1)]
    off = (ell - 1) // 2
    poly = [Fraction(1)]
    for i in range(ell):
        shift = off - i
        poly = [Fraction(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] += shift * poly[k + 1]
    return [c / factorial(ell) for c in poly]


def basis_change_coeffs(r: int) -> list:
    """Integers a_0..a_{r-1} with m^r = r! C(m+floor((r-1)/2), r) + sum a_l C(m+floor((l-1)/2), l).

    Solved by triangular elimination in the binomial basis over exact
    rationals; a non-integral solution would indicate a convention bug and
    raises AssertionError.  Consequently the ordinary positive moments
    decompose over the symmetrized ones with these weights.  a_0 is always
    0: at m = 0 the left side and every basis element with l >= 1,
    C(floor((l-1)/2), l), vanish while the l = 0 element is 1.  So the
    positive-value count never enters the decomposition.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    # target polynomial m^r minus r! * (leading basis element)
    target = [Fraction(0)] * (r + 1)
    target[r] = Fraction(1)
    lead = _binomial_basis_polynomial(r)
    fact = factorial(r)
    for k, c in enumerate(lead):
        target[k] -= fact * c
    coeffs = [0] * r
    for ell in range(r - 1, -1, -1):
        c = target[ell] * factorial(ell)
        if c.denominator != 1:
            raise AssertionError(
                f"non-integral basis-change coefficient a_{ell} = {c} for r={r}"
            )
        coeffs[ell] = int(c)
        if c:
            basis = _binomial_basis_polynomial(ell)
            for k, b in enumerate(basis):
                target[k] -= c * b
    if any(target):
        raise AssertionError(f"basis change failed to terminate for r={r}")
    return coeffs


def positive_from_symmetrized(sym: dict, r: int) -> list:
    """Ordinary positive moments of order r from a symmetrized family.

    values[N] = r! sym[r][N] + sum_{1 <= l < r} a_l sym[l][N] with the
    weights of ``basis_change_coeffs`` (a_0, the weight of the
    positive-value count, is always 0).  ``sym`` maps each order to its
    coefficient list; orders whose weight is 0 may be missing.
    """
    coeffs = basis_change_coeffs(r)
    fact = factorial(r)
    values = [fact * s for s in sym[r]]
    for l in range(1, r):
        a = coeffs[l]
        if a:
            values = [v + a * s for v, s in zip(values, sym[l])]
    return values


def positive_moment_series(kind: str, r: int, nmax: int) -> MomentTable:
    """Ordinary positive moments via the symmetrized series and basis change."""
    if r < 1:
        raise ValueError("r must be >= 1")
    sym = symmetrized_family(ell_for_kind(kind), range(1, r + 1), nmax)
    return MomentTable(kind=kind, variant="positive", r=r, ell=None,
                       values=positive_from_symmetrized(sym, r))


def spt_ospt_from_symmetrized(sym_crank: dict, sym_rank: dict) -> tuple:
    """spt(N) and ospt(N) from the order-1 and order-2 symmetrized families.

    ospt is the difference of first positive moments mu_1 - eta_1; spt is
    the difference of second positive moments, which the basis change
    turns into 2(mu_2 - eta_2) + (mu_1 - eta_1).
    """
    ospt = [a - b for a, b in zip(sym_crank[1], sym_rank[1])]
    spt = [2 * (a - b) + d for a, b, d in zip(sym_crank[2], sym_rank[2], ospt)]
    return spt, ospt


def spt_ospt(nmax: int = DEFAULT_NMAX) -> tuple:
    """Exact spt(N) and ospt(N) for 0 <= N <= nmax, from the series route.

    Both lists carry a leading 0 entry for N=0.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return spt_ospt_from_symmetrized(symmetrized_family(1, (1, 2), nmax),
                                     symmetrized_family(3, (1, 2), nmax))


def ospt_from_numerator(nmax: int) -> list:
    """ospt(N) read from the dedicated numerator series, as a cross-check."""
    return qs.ospt_series(nmax).coeffs
