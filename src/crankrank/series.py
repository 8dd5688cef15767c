"""Exact truncated q-series arithmetic over arbitrary-precision integers.

This module builds the q-expansions everything else consumes:

* ``partition_series`` -- 1/(q;q)_inf, whose coefficient of q^N is the
  partition count p(N), by the pentagonal-number recurrence: the one
  in-place division by (q;q)_inf (``_divide_by_euler``) applied to 1.
* ``euler_function`` -- the sparse pentagonal expansion of (q;q)_inf.
* ``bivariate_series`` -- the two-variable crank and rank generating
  functions, kept factorized (``BivariateSeries``): the sparse numerator
  (q;q)_inf * F(w, q), one column per power of the statistic marker w,
  together with p(N).  Sums over the powers of w, for any number of
  weights, are one packed division of the numerator by (q;q)_inf; dense
  Laurent rows are unpacked only on request.
* ``appell_sum`` -- the one-sided Appell-type sums
  sum_{n>=1} (-1)^{n+1} q^{l*n^2/2 + (r/2+rho)n} / (1-q^n)^r,
  whose quotients by (q;q)_inf generate symmetrized positive moments.
* ``ospt_numerator`` -- the alternating sum
  sum_{n>=1} (-1)^{n+1} q^{n(n+1)/2} (1-q^{n^2}) / (1-q^n),
  whose quotient by (q;q)_inf generates the ospt sequence.

All series arithmetic is exact (Python integers) and silently truncated at
a fixed order ``nmax``.  Every quotient by (q;q)_inf is the in-place
division of ``_divide_by_euler``: ``ospt_series`` divides the ospt
numerator, and ``divide_packed`` divides many series in one pass, packed
side by side, one integer per power of q with one slot per series:
``BivariateSeries.weighted_sums`` packs every weighted sum of a table,
``moments.symmetrized_family`` the Appell sums of every order of a
family.  A product (``ExactSeries.__mul__``) is the direct truncated
Cauchy product, one pass per nonzero coefficient of its right factor;
the identity suite multiplies by the sparse ``euler_function`` to check
the division apart from both routes.  Complex floating-point evaluation
of the same functions, with certified tail bounds, lives in the
``*_value`` functions; those sum the defining series directly and never
go through the truncated integer expansions, so the two routes can be
played against each other.
Every power of q they need is built by multiplication, as a running
product from term to term, never by a complex exp or power.  They take a
complex point or a numpy array of points (the Euler product bounds each
point relative to its own value; the Appell and ospt tails are one bound
taken at the largest |q|), are the package's only complex evaluators, and
import numpy on first use only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import TYPE_CHECKING

from .errors import ConvergenceError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

EVAL_MAX_TERMS = 10**6

#: Largest estimated size, in bytes, of a crank/rank table: of a dense one
#: (``check_dense_table``, about nmax = 5500) and of a factorized one
#: (``bivariate_series``); and of a family of quotient series
#: (``check_quotient_family``).
TABLE_BYTES_LIMIT = 2**31


class ExactSeries:
    """Power series in q with integer coefficients, truncated at q^nmax.

    ``coeffs[n]`` is the coefficient of q^n; the list always has exactly
    ``nmax + 1`` entries.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")

    @property
    def nmax(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.nmax >= 6 else ""
        return f"ExactSeries([{head}{tail}], nmax={self.nmax})"

    def __mul__(self, other: "ExactSeries") -> "ExactSeries":
        """Exact Cauchy product, truncated at nmax: each nonzero coefficient
        y of q^j in ``other`` adds y times ``self``, shifted by j.  The cost
        is one pass over ``self`` per nonzero coefficient of ``other``, so
        the sparse factor goes on the right."""
        if self.nmax != other.nmax:
            raise ValueError(
                f"truncation orders differ: {self.nmax} != {other.nmax}"
            )
        out = [0] * (self.nmax + 1)
        for j, y in enumerate(other.coeffs):
            if y:
                out[j:] = [c + x * y for c, x in zip(out[j:], self.coeffs)]
        return ExactSeries(out)

    def partial_value(self, x: complex) -> complex:
        """Horner evaluation of the truncated polynomial at x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class BivariateSeries:
    """A two-variable generating function kept factorized: Num(w, q) / (q;q)_inf.

    ``columns[m]`` is the coefficient of w^m in the sparse numerator Num,
    a map q-exponent -> nonzero integer in increasing q-exponent order;
    ``p`` is 1/(q;q)_inf (``partition_series``) to the same order.  The
    coefficient of w^m q^n of the function itself is therefore
    sum_{q0 <= n} columns[m][q0] * p(n - q0).  Sums over m weighted by
    any number of weights w(m) are one packed division by (q;q)_inf
    (``weighted_sums``); dense Laurent rows are unpacked only on request
    (``dense_row``, ``dense_rows``).
    """

    __slots__ = ("columns", "p")

    def __init__(self, columns: dict, p: ExactSeries):
        self.columns = columns
        self.p = p

    @property
    def nmax(self) -> int:
        return self.p.nmax

    def weighted_sums(self, weights) -> list:
        """[sum_m w(m) (coefficient series of w^m) for w in weights], each a
        list of nmax+1 integers, in one pass for every weight at once.

        The weights enter linearly, so they share one numerator and one
        division: column m gets the packed weight W(m) = sum_j w_j(m) X^j
        with X = 2^B, the packed numerator sum_m W(m) columns[m] is formed
        monomial by monomial, and ``divide_packed`` divides it by
        (q;q)_inf once and reads back T_j(N) = sum_{m, q0 <= N} w_j(m)
        columns[m][q0] p(N - q0), the wanted sum, from slot j.

        Only the slots must fit.  p is positive and nondecreasing, so
        p(N - q0) <= p(nmax), and whatever the columns,
        |T_j(N)| <= p(nmax) * max |w| * sum_{m, q0} |columns[m][q0]|, with
        max |w| taken over every weight and column; that is below
        2^(bits(p(nmax)) + bits(max |w|) + bits(sum |c|)), and B is one
        bit more, so |T_j(N)| < X/2.
        """
        weights = list(weights)
        count = len(weights)
        if not count:
            return []
        table = [([weight(m) for weight in weights], col)
                 for m, col in self.columns.items()]
        top = max(map(abs, chain.from_iterable([w for w, _ in table])),
                  default=0)
        total = sum(map(abs, chain.from_iterable(
            [col.values() for col in self.columns.values()])))
        bits = (self.p.coeffs[-1].bit_length() + top.bit_length()
                + total.bit_length() + 1)
        acc = [0] * (self.nmax + 1)
        while table:  # each column's weights are dropped once packed
            w, col = table.pop()
            packed = pack_slots(w, bits)
            for q0, c in col.items():
                acc[q0] += c * packed
        return divide_packed(acc, count, bits)

    def dense_row(self, n: int) -> list:
        """The q^n coefficient as a dense list of 2n+1 integers, index m+n."""
        p = self.p.coeffs
        row = [0] * (2 * n + 1)
        for m in range(-n, n + 1):
            for q0, c in self.columns.get(m, {}).items():
                if q0 > n:
                    break
                row[m + n] += c * p[n - q0]
        return row

    def dense_rows(self) -> list:
        """Every dense row 0..nmax, monomial by monomial: each numerator
        monomial c w^m q^q0 adds c p(j) to entry (q0 + j, m) for every j.

        Refused with ResourceLimitError above ``TABLE_BYTES_LIMIT`` (see
        ``check_dense_table``) before anything is allocated.
        """
        nmax = self.nmax
        check_dense_table(nmax)
        p = self.p.coeffs
        scaled = {}  # c -> c * p, one list per distinct numerator coefficient
        rows = [[0] * (2 * N + 1) for N in range(nmax + 1)]
        for m, col in self.columns.items():
            for q0, c in col.items():
                cp = scaled.get(c) or scaled.setdefault(c, [c * x for x in p])
                for j in range(nmax + 1 - q0):
                    N = q0 + j
                    rows[N][m + N] += cp[j]
        return rows

    def row(self, n: int) -> dict:
        """Nonzero entries of the q^n coefficient as a map m -> value."""
        return {m - n: c for m, c in enumerate(self.dense_row(n)) if c}

    def collapse_marker(self) -> ExactSeries:
        """Set w = 1, i.e. sum each Laurent row."""
        return ExactSeries(self.weighted_sums([lambda m: 1])[0])

    def first_asymmetric_row(self) -> int | None:
        """Smallest n whose row is not invariant under m -> -m, or None.

        Row n is symmetric for every n exactly when each numerator column m
        equals column -m, because p has constant term 1 and so is
        invertible; and the first row where C_m and C_{-m} differ is the
        lowest q-exponent where columns m and -m differ.
        """
        first = None
        for m, col in self.columns.items():
            other = self.columns.get(-m, {})
            if col != other:
                diff = min(q0 for q0 in col.keys() | other.keys()
                           if col.get(q0) != other.get(q0))
                first = diff if first is None else min(first, diff)
        return first


def _log_partition_bound(nmax: int) -> float:
    """pi sqrt(2 nmax/3), the log of a bound on p(nmax):
    p(n) < e^{pi sqrt(2n/3)} for n >= 1 (Apostol, Introduction to
    Analytic Number Theory, Thm 14.5)."""
    return math.pi * math.sqrt(2.0 * nmax / 3.0)


def partition_bits(nmax: int) -> int:
    """An upper bound on bits(p(nmax)), known without building p: the
    bound of ``_log_partition_bound`` in bits, plus 2 bits of margin for
    its rounding and for p(0) = 1."""
    return math.ceil(_log_partition_bound(nmax) / math.log(2.0)) + 2


def _entry_bytes(nmax: int) -> float:
    """Bytes of one stored table entry: a list slot and an int object
    (8 + 28 bytes) plus the digits of |coefficient| <= p(nmax)."""
    return 8 + 28 + _log_partition_bound(nmax) / math.log(256.0)


def _refuse_over_limit(what: str, size: float) -> None:
    """Raise ResourceLimitError when ``what``, estimated at ``size`` bytes,
    is over ``TABLE_BYTES_LIMIT``."""
    if size > TABLE_BYTES_LIMIT:
        raise ResourceLimitError(f"{what} needs about {size:.3g} bytes, "
                                 f"over the limit of {TABLE_BYTES_LIMIT}")


def check_dense_table(nmax: int) -> None:
    """Refuse a dense table to nmax, (nmax+1)^2 entries, estimated over the limit."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    _refuse_over_limit(f"a dense table to nmax={nmax}",
                       (nmax + 1) ** 2 * _entry_bytes(nmax))


def check_quotient_family(orders, nmax: int) -> None:
    """Refuse a family of quotient series, one list of nmax+1 moment sums
    per order, estimated over the limit.

    A moment sum of order r at N is at most N^r p(N), so each slot holds
    an int of at most r log2(nmax) bits more than a table entry.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    r_max = max(orders, default=0)
    slot = _entry_bytes(nmax) + r_max * math.log(max(nmax, 1), 256)
    _refuse_over_limit(
        f"a quotient family of {len(orders)} orders up to r={r_max} to "
        f"nmax={nmax}", len(orders) * (nmax + 1) * slot)


def _divide_by_euler(t: list) -> list:
    """Divide the truncated series ``t`` by (q;q)_inf in place; return t.

    By Euler's pentagonal theorem (q;q)_inf = sum_{k in Z} (-1)^k
    q^{k(3k-1)/2}, so the quotient T = t / (q;q)_inf satisfies
    T_n = t_n - sum_{k>=1} (-1)^k [T_{n-k(3k-1)/2} + T_{n-k(3k+1)/2}],
    terms of negative index left out.  T_n needs only earlier T's, so t
    is overwritten in increasing n: O(nmax^(3/2)) additions of whatever
    integers t holds.
    """
    size = len(t)
    gaps = []  # (k(3k-1)/2 and k(3k+1)/2, whether k is odd), increasing
    k = 1
    while k * (3 * k - 1) // 2 < size:
        gaps += [(k * (3 * k - 1) // 2, k % 2 == 1),
                 (k * (3 * k + 1) // 2, k % 2 == 1)]
        k += 1
    for n in range(1, size):
        total = t[n]
        for g, odd in gaps:
            if g > n:
                break
            if odd:
                total += t[n - g]
            else:
                total -= t[n - g]
        t[n] = total
    return t


def pack_slots(values, bits: int) -> int:
    """The integer sum_j values[j] 2^(j*bits), by Horner's rule: the
    values side by side in slots of ``bits`` bits, slot 0 lowest.  The
    values may have either sign; the sum is exact whatever they are."""
    packed = 0
    for x in reversed(values):
        packed = (packed << bits) + x
    return packed


def divide_packed(acc: list, count: int, bits: int) -> list:
    """Divide ``count`` series packed side by side by (q;q)_inf at once.

    acc[N] = sum_j t_j(N) X^j with X = 2^bits (``pack_slots``) packs the
    coefficients of q^N of the series t_0, ..., t_{count-1}.
    ``_divide_by_euler`` divides acc in place; Python integers are exact
    and the division is linear with integer coefficients, so acc[N]
    becomes exactly sum_j T_j(N) X^j, where T_j = t_j / (q;q)_inf, and
    the intermediate values need no bound.  Only the slots must fit: the
    caller chooses bits so that every |T_j(N)| < X/2.  Adding X/2 to
    every slot then puts each digit of acc[N] in (0, X): none borrows
    from its neighbour, and each is read back as T_j(N) + X/2.  Returns
    [T_0, ..., T_{count-1}], each a list of len(acc) integers.
    """
    _divide_by_euler(acc)
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    shifts = range(0, count * bits, bits)
    bias = sum(half << s for s in shifts)
    for N, t in enumerate(acc):  # each packed sum is dropped once read
        t += bias
        acc[N] = [((t >> s) & mask) - half for s in shifts]
    return [list(sums) for sums in zip(*acc)]


def partition_series(nmax: int) -> ExactSeries:
    """Expand 1/(q;q)_inf through q^nmax; coefficient of q^N is p(N).

    The pentagonal-number recurrence of ``_divide_by_euler``, applied to
    the series 1: p(N) = sum_{k>=1} (-1)^{k+1} [p(N-k(3k-1)/2) +
    p(N-k(3k+1)/2)], O(nmax^(3/2)) big-integer additions instead of the
    O(nmax^2) of repeated product inversion.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return ExactSeries(_divide_by_euler([1] + [0] * nmax))


def euler_function(nmax: int) -> ExactSeries:
    """Expand (q;q)_inf = sum_{k in Z} (-1)^k q^{k(3k-1)/2} through q^nmax."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    coeffs = [0] * (nmax + 1)
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > nmax:
            break
        sign = -1 if k % 2 == 1 else 1
        coeffs[g1] += sign
        g2 = k * (3 * k + 1) // 2
        if g2 <= nmax:
            coeffs[g2] += sign
        k += 1
    return ExactSeries(coeffs)


def _quadratic_exponent(kind: str, n: int) -> int:
    """Exponent of the bilateral theta-like sum: n(n+1)/2 or n(3n+1)/2."""
    if kind == "crank":
        return n * (n + 1) // 2
    if kind == "rank":
        return n * (3 * n + 1) // 2
    raise ValueError(f"kind must be 'crank' or 'rank', got {kind!r}")


def numerator_entries(kind: str, nmax: int):
    """Sparse monomials of (q;q)_inf times the crank/rank generating function.

    For n >= 1 the factor (1-w)/(1-w q^n) expands to
    1 + sum_{k>=1} w^k (q^{nk} - q^{n(k-1)}), and for n = -v <= -1 to
    sum_{k>=1} q^{vk} (w^{1-k} - w^{-k}), so each power of q receives only
    finitely many monomials.  Yields (q-exponent, w-exponent, +-1).
    """
    yield (0, 0, 1)
    n = 1
    while _quadratic_exponent(kind, n) <= nmax:
        base = _quadratic_exponent(kind, n)
        sign = 1 if n % 2 == 0 else -1
        yield (base, 0, sign)
        k = 1
        while base + n * (k - 1) <= nmax:
            if base + n * k <= nmax:
                yield (base + n * k, k, sign)
            yield (base + n * (k - 1), k, -sign)
            k += 1
        n += 1
    v = 1
    while _quadratic_exponent(kind, -v) + v <= nmax:
        base = _quadratic_exponent(kind, -v)
        sign = 1 if v % 2 == 0 else -1
        k = 1
        while base + v * k <= nmax:
            yield (base + v * k, 1 - k, sign)
            yield (base + v * k, -k, -sign)
            k += 1
        v += 1


def _numerator_size(kind: str, nmax: int) -> int:
    """How many monomials ``numerator_entries(kind, nmax)`` yields, counted
    in O(sqrt(nmax)) steps without yielding them.

    Each n >= 1 yields 2K monomials with K = (nmax - base) // n + 1, each
    n = -v <= -1 yields 2K with K = (nmax - base) // v, and (0, 0, 1) is
    one more: O(nmax log nmax) in all.
    """
    count = 1
    n = 1
    while (base := _quadratic_exponent(kind, n)) <= nmax:
        count += 2 * ((nmax - base) // n + 1)
        n += 1
    v = 1
    while (base := _quadratic_exponent(kind, -v)) + v <= nmax:
        count += 2 * ((nmax - base) // v)
        v += 1
    return count


def numerator_columns(entries) -> dict:
    """Group (q-exponent, w-exponent, coefficient) monomials into columns.

    Returns {m: {q0: c}} with equal monomials merged, zero coefficients
    dropped, columns in increasing m and each column in increasing q0: the
    ``columns`` layout of ``BivariateSeries``.
    """
    columns = {}
    for q0, m, c in entries:
        col = columns.setdefault(m, {})
        col[q0] = col.get(q0, 0) + c
    out = {}
    for m in sorted(columns):
        col = {q0: c for q0, c in sorted(columns[m].items()) if c}
        if col:
            out[m] = col
    return out


def bivariate_series(kind: str, nmax: int) -> BivariateSeries:
    """Two-variable crank or rank generating function through q^nmax.

    The coefficient of w^m q^N counts partitions of N with crank (or rank)
    equal to m, in the raw generating-function normalization.  For the
    crank that means the q^1 row reads w^-1 - 1 + w rather than the
    combinatorial single partition; downstream consumers decide whether to
    patch that column.  It is stored factorized, as the sparse numerator
    of ``numerator_entries`` and p (see ``BivariateSeries``): O(nmax log
    nmax) monomials and nmax+1 partition counts, whose size is estimated
    against ``TABLE_BYTES_LIMIT`` before either is built.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    # about 100 bytes per monomial (a dict slot with its share of the hash
    # table, and the int key), and nmax+1 entries of p; at nmax=2000 the
    # crank table is estimated at 3.5 MB and holds 3.1 MB (4.9 MB peak)
    _refuse_over_limit(
        f"a factorized {kind} table to nmax={nmax}",
        _numerator_size(kind, nmax) * 100 + (nmax + 1) * _entry_bytes(nmax))
    return BivariateSeries(numerator_columns(numerator_entries(kind, nmax)),
                           partition_series(nmax))


def _appell_exponent(ell: int, r: int, n: int) -> int:
    """Integer exponent l*n^2/2 + (r/2 + rho)*n, asserted integral.

    rho is 0 for odd r and 1/2 for even r, so r + 2 rho = r + 1 - r % 2."""
    twice = ell * n * n + (r + 1 - r % 2) * n
    if twice % 2:
        raise AssertionError(f"non-integral exponent for ell={ell}, r={r}, n={n}")
    return twice // 2


def appell_sum(ell: int, r: int, nmax: int) -> ExactSeries:
    """One-sided Appell-type sum through q^nmax.

    Expands sum_{n>=1} (-1)^{n+1} q^{l n^2/2 + (r/2+rho)n} / (1-q^n)^r with
    rho = 0 (odd r) or 1/2 (even r); the exponents are integral exactly for
    l in {1, 3}, the two cases with partition-statistic meaning (l=1 gives
    crank-side, l=3 rank-side symmetrized moments after division by
    (q;q)_inf).  Each denominator is expanded by the negative binomial
    series; the outer sum stops once its minimal exponent passes nmax.
    """
    if ell not in (1, 3):
        raise ValueError(f"ell must be 1 or 3, got {ell}")
    if r < 1:
        raise ValueError("r must be >= 1")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    coeffs = [0] * (nmax + 1)
    n = 1
    while True:
        base = _appell_exponent(ell, r, n)
        if base > nmax:
            break
        sign = 1 if n % 2 == 1 else -1
        k = 0
        while base + n * k <= nmax:
            coeffs[base + n * k] += sign * comb(k + r - 1, r - 1)
            k += 1
        n += 1
    return ExactSeries(coeffs)


def ospt_numerator(nmax: int) -> ExactSeries:
    """The alternating series whose quotient by (q;q)_inf generates ospt.

    Expands sum_{n>=1} (-1)^{n+1} q^{n(n+1)/2} (1-q^{n^2}) / (1-q^n)
    exactly: the factor (1-q^{n^2})/(1-q^n) is the geometric polynomial
    1 + q^n + ... + q^{n(n-1)}.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    coeffs = [0] * (nmax + 1)
    n = 1
    while n * (n + 1) // 2 <= nmax:
        base = n * (n + 1) // 2
        sign = 1 if n % 2 == 1 else -1
        for k in range(n):
            e = base + n * k
            if e > nmax:
                break
            coeffs[e] += sign
        n += 1
    return ExactSeries(coeffs)


def ospt_series(nmax: int) -> ExactSeries:
    """Generating series of ospt(N): ospt_numerator / (q;q)_inf, divided
    in place by ``_divide_by_euler``."""
    return ExactSeries(_divide_by_euler(ospt_numerator(nmax).coeffs))


# ---------------------------------------------------------------------------
# Direct complex evaluation with certified tail bounds.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesValue:
    """A floating-point evaluation (of q's shape) and its certified tail bound.

    The Euler product bounds each point on its own (an array of q's shape
    for an array q); the Appell and ospt sums bound every point by one
    float, taken at max|q|.
    """

    value: complex | np.ndarray
    tail_bound: float | np.ndarray
    terms: int


def _disk_points(q, tol: float):
    """Check a point or an array of points; return q and max|q|.

    Only a scalar q may be 0."""
    import numpy as np
    array = np.ndim(q) > 0
    q = np.asarray(q, dtype=complex) if array else q
    absq = np.abs(q)
    aq = float(np.max(absq))
    if aq >= 1.0:
        raise ValueError(f"|q| must be < 1, got |q| = {aq}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if array and not absq.min() > 0.0:
        raise ValueError("array points must be nonzero")
    return q, aq


def _power(q, k: int):
    """q^k for an integer k >= 1 by repeated multiplication, as a new object."""
    out = q * q if k > 1 else 1.0 * q
    for _ in range(k - 2):
        out *= q
    return out


def _alternating_sum(terms, tail, tol, max_terms, name) -> SeriesValue:
    """sum_{n>=1} (-1)^{n+1} t_n over the iterator ``terms`` of t_1, t_2, ...,
    stopped by a certified tail bound.

    Each term is added in place and dropped before the next is made, so on
    an array no more than one term is live at a time.  ``tail(n)`` bounds
    the remainder after n terms at every point (inf while none holds); the
    sum stops once it is <= tol * min |partial sum|.  That minimum is at
    most the modulus of the first partial sum, so while the bound exceeds
    tol times that one modulus the rule cannot hold, and the reduction over
    every point is skipped."""
    import numpy as np
    acc = 0j
    best = math.inf
    for n in range(1, max_terms + 1):
        if n % 2 == 1:
            acc += next(terms)
        else:
            acc -= next(terms)
        bound = tail(n)
        best = min(best, bound)
        lead = acc.flat[0] if isinstance(acc, np.ndarray) else acc
        if bound > tol * max(abs(lead), 1e-300):
            continue
        if bound <= tol * max(float(np.abs(acc).min()), 1e-300):
            return SeriesValue(acc, bound, n)
    raise ConvergenceError(f"{name} did not converge in {max_terms} terms",
                           achieved_bound=best)


def euler_inverse_value(q, tol: float = 1e-12,
                        max_terms: int = EVAL_MAX_TERMS) -> SeriesValue:
    """Evaluate 1/(q;q)_inf by direct products, at a point or an array of them.

    Multiplies out (1 - q^j) until the remaining log-tail
    sum_{j>J} |q|^j / (1-|q|^j), taken at max|q|, certifies a relative
    error below tol at every point.  The tail bound is that relative error
    times |value|, point by point.
    """
    q, aq = _disk_points(q, tol)
    prod = qpow = 1.0 + 0.0j
    for j in range(1, max_terms + 1):
        qpow *= q
        prod *= 1.0 - qpow
        apj = aq ** (j + 1)
        eps = apj / ((1.0 - apj) * (1.0 - aq))
        rel = math.expm1(eps) if eps < 1.0 else float("inf")
        if rel <= tol:
            value = 1.0 / prod
            return SeriesValue(value, rel * abs(value), j)
    raise ConvergenceError(
        f"euler_inverse did not converge in {max_terms} terms", achieved_bound=rel
    )


def appell_sum_value(ell: int, r: int, q, tol: float = 1e-12,
                     max_terms: int = EVAL_MAX_TERMS) -> SeriesValue:
    """Evaluate the one-sided Appell-type sum directly, at a point or an array of them.

    Every power of q is a running product, updated in place.  With
    s = r + 1 - r % 2 the exponent E(n) = (l n^2 + s n)/2 steps by
    E(n) - E(n-1) = l(n-1) + (s+l)/2 (at least 1), so q^E(n) is q^E(n-1)
    times a step that gains l factors of q per term; (1-q^n)^r is r-1
    multiplications.

    The term bound |q|^{E(n)} / (1-|q|)^r decays like a Gaussian in n;
    summation stops when the geometric majorant of the tail, taken at
    max|q|, drops below tol times the partial sum.
    """
    if ell not in (1, 3):
        raise ValueError(f"ell must be 1 or 3, got {ell}")
    if r < 1:
        raise ValueError("r must be >= 1")
    q, aq = _disk_points(q, tol)
    if aq == 0:
        return SeriesValue(0.0 + 0.0j, 0.0, 0)
    one_minus = 1.0 - aq

    def terms():
        qn = qe = 1.0 + 0.0j
        step = _power(q, (r + 1 - r % 2 + ell) // 2)  # q^{E(1) - E(0)}
        while True:
            qn *= q
            qe *= step
            for _ in range(ell):
                step *= q
            yield qe / _power(1.0 - qn, r)

    def tail(n):
        # tail <= bound(n+1) / (1 - |q|^{l(n+1)}): exponent gaps are >= l*n
        nb = n + 1
        head = aq ** _appell_exponent(ell, r, nb) / one_minus ** r
        return head / (1.0 - aq ** (ell * nb))

    return _alternating_sum(terms(), tail, tol, max_terms, "appell_sum")


def ospt_numerator_value(q, tol: float = 1e-12,
                         max_terms: int = EVAL_MAX_TERMS) -> SeriesValue:
    """Evaluate the ospt numerator series directly, at a point or an array of them.

    q^n, q^{n(n+1)/2} and q^{n^2} = q^{(n-1)^2} q^{n-1} q^n are running
    products.  Uses |(1-q^{n^2})/(1-q^n)| <= n, giving the term bound
    n |q|^{n(n+1)/2} and a geometric tail majorant.
    """
    q, aq = _disk_points(q, tol)
    if aq == 0:
        return SeriesValue(0.0 + 0.0j, 0.0, 0)

    def terms():
        qn = tri = sq = 1.0 + 0.0j
        while True:
            sq *= qn
            qn *= q
            sq *= qn
            tri *= qn
            yield tri * (1.0 - sq) / (1.0 - qn)

    def tail(n):
        nb = n + 1
        head = nb * aq ** (nb * (nb + 1) // 2)
        # bound on b_{m+1}/b_m for m >= nb, decreasing in m
        ratio = (1.0 + 1.0 / nb) * aq ** (nb + 1)
        return head / (1.0 - ratio) if ratio < 1.0 else math.inf

    return _alternating_sum(terms(), tail, tol, max_terms, "ospt_numerator")


def tau_to_q(tau: complex) -> complex:
    """Map a point in the upper half-plane to the unit disk, q = e^{2 pi i tau}."""
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    return cmath.exp(2j * cmath.pi * tau)
