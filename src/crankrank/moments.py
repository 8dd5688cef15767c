"""Exact crank/rank tables and moment computations.

Two independent routes to the same numbers live here:

* the *table route*: the histogram M(m, N) of crank or rank values,
  kept as the sparse numerator columns of the bivariate generating
  function and nothing else (``CrankRankTable``), with moments read off
  it as weighted sums over m.  Every sum of one bulk accessor, for every
  N and every order at once, comes from one packed division of its
  weighted numerators by (q;q)_inf (``CrankRankTable.weighted_sums``),
  with neither p nor a product.  The weights are the table's own (m^r,
  m^{2k}, C(m + floor((r-1)/2), r)), never the series route's basis
  change;
* the *series route*: read symmetrized positive moments directly as the
  integer coefficients of A_{ell,r}(q) / (q;q)_inf, A being
  ``series.appell_sum`` (ell=1 for crank, ell=3 for rank), and recover
  ordinary positive moments through the exact binomial basis change.
  Each formula of this route is written once: ``symmetrized_family``
  forms the quotients, ``positive_from_symmetrized`` applies the basis
  change and ``spt_ospt_from_symmetrized`` combines the first two orders
  into spt and ospt.  ``symmetrized_series``, ``positive_moment_series``
  and ``spt_ospt`` are single-family calls into them.

Every family of moments, of either route, has one layout: {r: values},
values[N] for N = 0..nmax.  The two routes meeting exactly, for every N
and r, is one of the main verification targets of the package.  Both
divide by (q;q)_inf through ``series.euler_quotients``, each with
numerators of its own: the table route its weighted numerator columns,
the series route its Appell sums.  The identity suite checks that
division apart from both routes, through products with the
independently written ``euler_function`` (``ExactSeries.__mul__``): p
times it must give 1, and each symmetrized family times it must give
back its Appell sums.

Conventions: every table holds the raw generating-function histogram,
including the anomalous crank column at N=1, which is the normalization
under which the series route is exact.  The combinatorial convention
(the q^1 crank column replaced by a single partition of crank zero) is
applied to exported rows only, by ``combinatorial_row``.
"""

from __future__ import annotations

import functools
from math import comb, factorial

from . import series as qs

GENERATING_FUNCTION = "generating_function"
COMBINATORIAL = "combinatorial"


def _positive_power(r: int):
    """The weight m^r on m >= 1, 0 elsewhere."""
    return lambda m: m ** r if m >= 1 else 0


def _full_power(r: int):
    """The weight m^r on every m."""
    return lambda m: m ** r


def _binomial(r: int):
    """The weight C(m + floor((r-1)/2), r) on m >= 1, 0 elsewhere."""
    off = (r - 1) // 2
    return lambda m: comb(m + off, r) if m >= 1 else 0


class CrankRankTable:
    """Exact histogram counts M(m, N) of crank or rank over partitions of N.

    The table is kept factorized, as the generating function
    Num(w, q) / (q;q)_inf to order nmax: ``columns[m]`` is the coefficient
    of w^m in the sparse numerator Num (``series.bivariate_series``), a
    map q-exponent -> nonzero integer in increasing q-exponent order, so
    M(m, N) = sum_{q0 <= N} columns[m][q0] p(N - q0).  Each bulk accessor
    makes one ``weighted_sums`` call, which forms the sums over m for all
    of its weights in one packed division by (q;q)_inf, so no moment
    unpacks the histogram or builds p; the single-N accessors index that
    output.  Dense rows, of length 2N+1 with index m+N, are unpacked only
    for row lookups (``dense_rows``, ``rows``) and for export by the
    ``tables`` command.  Columns m and -m hold separately computed
    monomials, so row symmetry is a genuine check rather than a storage
    artifact.
    """

    def __init__(self, kind: str, columns: dict, nmax: int):
        if kind not in ("crank", "rank"):
            raise ValueError(f"kind must be 'crank' or 'rank', got {kind!r}")
        self.kind = kind
        self.columns = columns
        self.nmax = nmax

    @classmethod
    def build(cls, kind: str, nmax: int) -> "CrankRankTable":
        """Extract the table from the bivariate generating function."""
        return cls(kind, qs.bivariate_series(kind, nmax), nmax)

    def _check_row(self, n: int) -> None:
        if not 0 <= n <= self.nmax:
            raise ValueError(f"N={n} outside table range 0..{self.nmax}")

    def weighted_sums(self, weights) -> list:
        """[sum_m w(m) M(m, N) over N = 0..nmax for w in weights], each a
        list of nmax+1 integers, in one pass for every weight at once.

        The weights enter linearly: weight w_j has the numerator
        t_j = sum_m w_j(m) columns[m], formed monomial by monomial over
        the columns where w_j is nonzero, and ``series.euler_quotients``
        divides every t_j by (q;q)_inf in one pass, giving T_j(N) =
        sum_{m, q0 <= N} w_j(m) columns[m][q0] p(N - q0), the wanted sum.
        """
        numerators = []
        for weight in weights:
            t = [0] * (self.nmax + 1)
            for m, col in self.columns.items():
                w = weight(m)
                if w:
                    for q0, c in col.items():
                        t[q0] += w * c
            numerators.append(t)
        return qs.euler_quotients(numerators)

    def dense_rows(self, n: int) -> list:
        """Dense rows 0..n, row N a list of 2N+1 integers with index m+N,
        for 0 <= n <= nmax (ValueError otherwise), monomial by monomial:
        each numerator monomial c w^m q^q0 adds c p(j) to entry
        (q0 + j, m) for every j with |m| <= q0 + j <= n.

        Refused with ResourceLimitError above ``series.TABLE_BYTES_LIMIT``
        (see ``series.check_dense_table``) before anything is allocated.
        """
        self._check_row(n)
        qs.check_dense_table(n)
        p = qs.partition_series(n).coeffs
        scaled = {}  # c -> c * p, one list per distinct numerator coefficient
        rows = [[0] * (2 * N + 1) for N in range(n + 1)]
        for m, col in self.columns.items():
            for q0, c in col.items():
                if q0 > n:
                    break
                cp = scaled.get(c) or scaled.setdefault(c, [c * x for x in p])
                for j in range(max(0, abs(m) - q0), n + 1 - q0):
                    N = q0 + j
                    rows[N][m + N] += cp[j]
        return rows

    @functools.cached_property
    def rows(self) -> list:
        """Every dense row, unpacked on first access and then kept."""
        return self.dense_rows(self.nmax)

    def collapse_marker(self) -> qs.ExactSeries:
        """Set w = 1, i.e. sum each Laurent row."""
        return qs.ExactSeries(self.weighted_sums([lambda m: 1])[0])

    def first_asymmetric_row(self) -> int | None:
        """Smallest n whose row is not invariant under m -> -m, or None.

        Row n is symmetric for every n exactly when each numerator column m
        equals column -m, because p has constant term 1 and so is
        invertible; and the first row where M(m, .) and M(-m, .) differ is
        the lowest q-exponent where columns m and -m differ.
        """
        first = None
        for m, col in self.columns.items():
            other = self.columns.get(-m, {})
            if col != other:
                diff = min(q0 for q0 in col.keys() | other.keys()
                           if col.get(q0) != other.get(q0))
                first = diff if first is None else min(first, diff)
        return first

    def full_moments(self, orders) -> dict:
        """{r: sum over all m of m^r counts[N][m] for every N} for each r in
        ``orders``, both signs included, in one pass."""
        orders = list(orders)
        if any(r < 0 for r in orders):
            raise ValueError("r must be >= 0")
        return dict(zip(orders, self.weighted_sums(map(_full_power, orders))))

    def full_moment(self, r: int, N: int) -> int:
        """sum over all m of m^r counts[N][m], both signs included."""
        self._check_row(N)
        return self.full_moments([r])[r][N]

    def symmetrized_moments(self, orders) -> dict:
        """{r: sum_{m>=1} C(m + floor((r-1)/2), r) counts[N][m] for every N}
        for each r in ``orders``, in one pass.

        This is the direct binomial-weighted route; it must coincide with
        ``symmetrized_family``, which has the same layout.
        """
        orders = list(orders)
        if any(r < 1 for r in orders):
            raise ValueError("r must be >= 1")
        return dict(zip(orders, self.weighted_sums(map(_binomial, orders))))

    def symmetrized_moment(self, r: int, N: int) -> int:
        """sum_{m>=1} C(m + floor((r-1)/2), r) counts[N][m]."""
        self._check_row(N)
        return self.symmetrized_moments([r])[r][N]

    def positive_moments_upto(self, r_max: int) -> dict:
        """{r: sum_{m>=1} m^r counts[N][m] for every N} for r = 0..r_max,
        in one pass."""
        orders = range(r_max + 1)
        return dict(zip(orders,
                        self.weighted_sums(map(_positive_power, orders))))

    def full_even_moments_upto(self, k_max: int) -> dict:
        """``full_moments`` of the orders 2, 4, ..., 2*k_max.

        Weighs m^{2k} on every column m <= -1 and m >= 1 by itself, so this
        does not assume the symmetry it is typically used to cross-check.
        """
        return self.full_moments(range(2, 2 * k_max + 1, 2))


def combinatorial_row(N: int, row: list) -> list:
    """Dense crank row N in the combinatorial convention, for export: row 1,
    the generating function's w^-1 - 1 + w, becomes the single partition
    (1) of crank 0; every other row is returned as it is."""
    return [0, 1, 0] if N == 1 else row


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
    is formed: the Appell sums of all orders are divided by (q;q)_inf in
    one pass (``series.euler_quotients``), and p is never built.  The
    family's size is estimated first (``series.check_quotient_family``)
    and refused with ResourceLimitError before anything is built.
    """
    orders = list(orders)
    qs.check_quotient_family(orders, nmax)
    sums = [qs.appell_sum(ell, r, nmax).coeffs for r in orders]
    return dict(zip(orders, qs.euler_quotients(sums)))


def symmetrized_series(ell: int, r: int, nmax: int) -> list:
    """The order-r symmetrized positive moments for N = 0..nmax, see
    ``symmetrized_family``."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return symmetrized_family(ell, (r,), nmax)[r]


def basis_change_coeffs(r: int) -> list:
    """Integers a_0..a_{r-1} with m^r = r! C(m+floor((r-1)/2), r) + sum a_l C(m+floor((l-1)/2), l).

    Newton interpolation of m^r on the central nodes x_0, x_1, ... =
    0, 1, -1, 2, -2, ...: the basis element B_l(m) = C(m + floor((l-1)/2), l)
    vanishes at x_0..x_{l-1} and is 1 at x_l, so B_l = B_{l-1} (m - x_{l-1}) / l
    and the coefficients solve a unit lower-triangular integer system,
    a_j = x_j^r - sum_{l<j} a_l B_l(x_j) for j = 0..r, with no division
    except the exact ones of that product.  Its last step must give
    a_r = r!, the leading coefficient of m^r; anything else would indicate
    a convention bug and raises AssertionError.  Consequently the ordinary
    positive moments decompose over the symmetrized ones with these weights.
    a_0 is always 0: at m = 0 the left side and every basis element with
    l >= 1, C(floor((l-1)/2), l), vanish while the l = 0 element is 1.  So
    the positive-value count never enters the decomposition.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    nodes = [(j + 1) // 2 if j % 2 else -(j // 2) for j in range(r + 1)]
    coeffs = []
    for x in nodes:
        value, basis = x ** r, 1
        for l, a in enumerate(coeffs):
            value -= a * basis
            basis = basis * (x - nodes[l]) // (l + 1)
        coeffs.append(value)
    if coeffs[r] != factorial(r):
        raise AssertionError(
            f"basis change gives a_{r} = {coeffs[r]} for r={r}, not {r}!"
        )
    return coeffs[:r]


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


def positive_moment_series(kind: str, r: int, nmax: int) -> list:
    """Ordinary positive moments for N = 0..nmax, via the symmetrized series
    and the basis change."""
    if r < 1:
        raise ValueError("r must be >= 1")
    sym = symmetrized_family(ell_for_kind(kind), range(1, r + 1), nmax)
    return positive_from_symmetrized(sym, r)


def spt_ospt_from_symmetrized(sym_crank: dict, sym_rank: dict) -> tuple:
    """spt(N) and ospt(N) from the order-1 and order-2 symmetrized families.

    ospt is the difference of first positive moments mu_1 - eta_1; spt is
    the difference of second positive moments, which the basis change
    turns into 2(mu_2 - eta_2) + (mu_1 - eta_1).
    """
    ospt = [a - b for a, b in zip(sym_crank[1], sym_rank[1])]
    spt = [2 * (a - b) + d for a, b, d in zip(sym_crank[2], sym_rank[2], ospt)]
    return spt, ospt


def spt_ospt(nmax: int) -> tuple:
    """Exact spt(N) and ospt(N) for 0 <= N <= nmax, from the series route.

    Both lists carry a leading 0 entry for N=0.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return spt_ospt_from_symmetrized(symmetrized_family(1, (1, 2), nmax),
                                     symmetrized_family(3, (1, 2), nmax))
