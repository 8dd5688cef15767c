"""Exact truncated q-series arithmetic over arbitrary-precision integers.

This module builds the q-expansions everything else consumes:

* ``partition_series`` -- 1/(q;q)_inf, whose coefficient of q^N is the
  partition count p(N), by the pentagonal-number recurrence: the
  division by (q;q)_inf (``euler_quotients``) applied to 1.
* ``euler_function`` -- the sparse pentagonal expansion of (q;q)_inf.
* ``bivariate_series`` -- the two-variable crank and rank generating
  functions, kept factorized: the columns of the sparse numerator
  (q;q)_inf * F(w, q), one per power of the statistic marker w, and
  nothing else.  ``moments.CrankRankTable`` holds them and reads sums
  and rows off them.
* ``appell_sum`` -- the one-sided Appell-type sums
  sum_{n>=1} (-1)^{n+1} q^{l*n^2/2 + (r/2+rho)n} / (1-q^n)^r,
  whose quotients by (q;q)_inf generate symmetrized positive moments.
* ``ospt_numerator`` -- the alternating sum
  sum_{n>=1} (-1)^{n+1} q^{n(n+1)/2} (1-q^{n^2}) / (1-q^n),
  whose quotient by (q;q)_inf generates the ospt sequence.

All series arithmetic is exact (Python integers) and silently truncated at
a fixed order ``nmax``.  Every quotient by (q;q)_inf is one call of
``euler_quotients``, which divides any number of series in one pass of
the in-place pentagonal recurrence ``_divide_by_euler``: a single series
as it is, two or more packed side by side by halves, one integer per
power of q with one slot per series.  It sizes each slot for its own
series, bounding p(nmax) by ``partition_bits`` so that p is never
built.  Its callers are ``partition_series`` (the series 1),
``ospt_series`` (the ospt numerator), ``moments.CrankRankTable.weighted_sums``
(one weighted numerator per weight) and ``moments.symmetrized_family``
(the Appell sums of every order of a family).  A product
(``ExactSeries.__mul__``) is the direct truncated Cauchy product, one
pass per nonzero coefficient of its right factor; the identity suite
multiplies by the sparse ``euler_function`` to check the division apart
from both routes.  Complex floating-point evaluation of the same
functions, with certified tail bounds, lives in the ``*_value``
functions; those sum the defining series directly and never go through
the truncated integer expansions, so the two routes can be played
against each other.
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
import operator
from typing import TYPE_CHECKING, NamedTuple

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


def euler_quotients(numerators) -> list:
    """[t / (q;q)_inf for t in numerators], each t a list of nmax+1
    integers of either sign, all in one division; the numerators are
    left unchanged.

    A single series is divided as it is.  Two or more are packed side by
    side, acc[N] = sum_j t_j(N) 2^(o_j), slot j holding the B_j bits from
    o_j = B_0 + ... + B_(j-1) on, slot 0 lowest, and ``_divide_by_euler``
    divides acc in place.  Python integers are exact and the division is
    linear with integer coefficients, so acc[N] becomes exactly
    sum_j T_j(N) 2^(o_j), where T_j = t_j / (q;q)_inf, and the
    intermediate values need no bound.  Only the slots must fit.
    T_j(N) = sum_{k <= N} t_j(k) p(N - k), and p is positive and
    nondecreasing, so |T_j(N)| <= p(nmax) sum |t_j| <
    2^(partition_bits(nmax) + bits(sum |t_j|)), and B_j is one bit more:
    every |T_j(N)| < 2^(B_j - 1).  Adding 2^(B_j - 1) to every slot then
    puts each slot of acc[N] in [0, 2^(B_j)): none borrows from its
    neighbour, and each is read back as T_j(N) + 2^(B_j - 1).  p is never
    built.

    The pack and the unpack go by halves, so that no step shifts a whole
    packed integer once per slot.  Each packing level adds neighbouring
    pairs of series, the upper one shifted past the slots of the lower
    one, so that a level holds blocks of twice as many slots as the one
    before; an odd series out at the top of a level moves up as it is.
    The unpack splits each block of slots into its lower half (a mask)
    and its upper half (a shift), down to single slots.  Both work in
    place, each packed integer dropped as soon as it is merged or split,
    so the packed series is held in memory only once.
    """
    numerators = list(numerators)
    if len(numerators) < 2:
        return [_divide_by_euler(list(t)) for t in numerators]
    head = partition_bits(len(numerators[0]) - 1) + 1
    offsets = [0]  # slot j holds bits offsets[j] up to offsets[j + 1]
    for t in numerators:
        offsets.append(offsets[-1] + head + sum(map(abs, t)).bit_length())
    # level[i] holds the slots from i * size on; a copy of each list, so
    # that the numerators stay as they are
    level, size = [list(t) for t in numerators], 1
    while len(level) > 1:
        for i, (lo, hi) in enumerate(zip(level[::2], level[1::2])):
            w = offsets[(2 * i + 1) * size] - offsets[2 * i * size]
            for N in reversed(range(len(lo))):  # hi is emptied as it is added
                lo[N] += hi.pop() << w
        del level[1::2]
        size *= 2
    acc = _divide_by_euler(level.pop())
    # 2^(B_j - 1), the top bit of each slot, added while acc is split first
    bias = sum(1 << (b - 1) for b in offsets[1:])
    quotients = []
    # (series, first slot, slots) still to split, lowest slots last
    todo = [(acc, 0, len(numerators))]
    del acc
    while todo:
        t, j, slots = todo.pop()
        if slots == 1:
            half = 1 << (offsets[j + 1] - offsets[j] - 1)
            quotients.append([x - half for x in t])
            continue
        low = slots // 2
        w = offsets[j + low] - offsets[j]
        mask = (1 << w) - 1
        high = []
        for N, x in enumerate(t):  # each packed x is dropped once split
            if bias:
                x += bias
            high.append(x >> w)
            t[N] = x & mask
        bias = 0
        todo += [(high, j + low, slots - low), (t, j, low)]
    return quotients


def partition_series(nmax: int) -> ExactSeries:
    """Expand 1/(q;q)_inf through q^nmax; coefficient of q^N is p(N).

    The pentagonal-number recurrence of ``_divide_by_euler``, applied to
    the series 1: p(N) = sum_{k>=1} (-1)^{k+1} [p(N-k(3k-1)/2) +
    p(N-k(3k+1)/2)], O(nmax^(3/2)) big-integer additions instead of the
    O(nmax^2) of repeated product inversion.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return ExactSeries(euler_quotients([[1] + [0] * nmax])[0])


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
    dropped, columns in increasing m and each column in increasing q0.
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


def bivariate_series(kind: str, nmax: int) -> dict:
    """Two-variable crank or rank generating function through q^nmax, as
    the numerator columns {m: {q0: c}} of ``numerator_columns``.

    The function is Num(w, q) / (q;q)_inf, and column m holds the
    coefficient of w^m in the sparse numerator Num of
    ``numerator_entries``, so the coefficient of w^m q^N is
    sum_{q0 <= N} c p(N - q0) over that column.  It counts partitions of
    N with crank (or rank) equal to m, in the raw generating-function
    normalization: for the crank the q^1 row reads w^-1 - 1 + w rather
    than the single partition (1) of crank 0; table export patches that
    row (see the conventions of ``moments``).  The columns hold
    O(nmax log nmax) monomials, whose size is estimated against
    ``TABLE_BYTES_LIMIT`` before any is built.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    # about 100 bytes per monomial (a dict slot with its share of the hash
    # table, and the int key); at nmax=2000 the crank table is estimated
    # at 3.4 MB and holds 3.0 MB (4.9 MB peak)
    _refuse_over_limit(f"a factorized {kind} table to nmax={nmax}",
                       _numerator_size(kind, nmax) * 100)
    return numerator_columns(numerator_entries(kind, nmax))


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
    series, sum_k C(k + r - 1, k) q^{nk}, whose binomials are built once, by
    the exact ratio C(k + r - 1, k) = C(k + r - 2, k - 1) (k + r - 1) / k,
    and shared by every n; each n adds them to its exponents in one slice.
    The outer sum stops once its minimal exponent passes nmax.
    """
    if ell not in (1, 3):
        raise ValueError(f"ell must be 1 or 3, got {ell}")
    if r < 1:
        raise ValueError("r must be >= 1")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    binomials = [1] * (nmax + 1)
    for k in range(1, nmax + 1):
        binomials[k] = binomials[k - 1] * (k + r - 1) // k
    coeffs = [0] * (nmax + 1)
    n = 1
    while (base := _appell_exponent(ell, r, n)) <= nmax:
        step = operator.add if n % 2 == 1 else operator.sub
        coeffs[base::n] = map(step, coeffs[base::n], binomials)
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
    """Generating series of ospt(N): ospt_numerator / (q;q)_inf, by
    ``euler_quotients``."""
    return ExactSeries(euler_quotients([ospt_numerator(nmax).coeffs])[0])


# ---------------------------------------------------------------------------
# Direct complex evaluation with certified tail bounds.
# ---------------------------------------------------------------------------

class SeriesValue(NamedTuple):
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
    rel = math.inf
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
    max|q|, drops below tol times the partial sum.  That majorant divides
    by (1-|q|)^r, so an r for which it underflows to 0 raises
    OverflowError.
    """
    if ell not in (1, 3):
        raise ValueError(f"ell must be 1 or 3, got {ell}")
    if r < 1:
        raise ValueError("r must be >= 1")
    q, aq = _disk_points(q, tol)
    if aq == 0:
        return SeriesValue(0.0 + 0.0j, 0.0, 0)
    one_minus = 1.0 - aq
    if one_minus ** r == 0.0:
        raise OverflowError(f"(1 - |q|)^-{r} is past double range at "
                            f"|q| = {aq}")

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
