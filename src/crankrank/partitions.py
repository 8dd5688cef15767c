"""Brute-force partition enumeration and per-partition statistics.

Everything here is deliberately naive: partitions are enumerated one by
one and each statistic is read straight off its combinatorial definition.
That makes this module the independent oracle against which the
generating-function machinery in :mod:`crankrank.series` and
:mod:`crankrank.moments` is validated.

Enumeration is iterative: ``partitions_of`` steps one list from the
all-ones partition to ``(n,)`` by a successor rule, in lexicographic
order (the same order as the recursive reference generator in the
tests).  ``brute_aggregates`` enumerates the partitions of one n once
and tallies every statistic in that single pass.

A partition is represented as a weakly decreasing tuple of positive
integers; the empty tuple is the unique partition of 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ResourceLimitError

# p(80) is about 1.5e7; exhaustive statistics beyond that are impractical.
ENUMERATION_CAP = 80


@dataclass(frozen=True)
class PartitionStats:
    """The five statistics attached to a single partition.

    For the empty partition all fields are zero, which keeps the N=0 rows
    of every downstream table well defined.
    """

    rank: int
    crank: int
    durfee: int
    smallest_part_count: int
    string_count: int


@dataclass(frozen=True)
class BruteAggregates:
    """Statistic totals and histograms over all partitions of one integer.

    ``crank`` and ``rank`` map a statistic value to the number of
    partitions taking it, exactly as ``brute_distribution`` returns them.
    """

    n: int
    count: int
    spt: int
    ospt_strings: int
    durfee_sum: int
    crank: dict
    rank: dict


def check_partition(parts) -> tuple:
    """Validate and normalize a partition given as an iterable of parts."""
    t = tuple(parts)
    for a, b in zip(t, t[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing, got {t}")
    if t and t[-1] < 1:
        raise ValueError(f"parts must be positive, got {t}")
    return t


def partitions_of(n: int, cap: int = ENUMERATION_CAP):
    """Yield every partition of n exactly once, in lexicographic order.

    Partitions are weakly decreasing tuples compared left to right, so for
    n=4 the order is (1,1,1,1), (2,1,1), (2,2), (3,1), (4).

    One list is stepped in place, starting from n ones.  The successor
    takes the rightmost part a[i] other than the last with i == 0 or
    a[i] < a[i-1], adds 1 to it, and replaces every part after it by
    sum(a[i+1:]) - 1 ones; that is the next partition in the order above.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise ResourceLimitError(
            f"partition enumeration capped at n <= {cap}, got {n}"
        )
    a = [1] * n
    while True:
        yield tuple(a)
        i = len(a) - 2
        if i < 0:
            return
        # a is weakly decreasing, so a[i] < a[i-1] means a[i] != a[i-1]
        while i > 0 and a[i] == a[i - 1]:
            i -= 1
        rest = sum(a[i + 1:]) - 1
        a[i] += 1
        a[i + 1:] = [1] * rest


def rank_of(parts) -> int:
    """Largest part minus number of parts (0 for the empty partition)."""
    if not parts:
        return 0
    return parts[0] - len(parts)


def crank_of(parts) -> int:
    """Largest part if there are no ones, else (#parts > #ones) - #ones.

    This is the raw combinatorial rule; note that it assigns -1 to the
    single partition (1), whereas the generating function splits the q^1
    column as w^-1 - 1 + w.  Reconciling the two is the table builder's
    job, never this function's.
    """
    if not parts:
        return 0
    ones = 0
    for p in reversed(parts):
        if p != 1:
            break
        ones += 1
    if ones == 0:
        return parts[0]
    exceeding = 0
    for p in parts:
        if p > ones:
            exceeding += 1
        else:
            break
    return exceeding - ones


def durfee_size(parts) -> int:
    """Side of the largest square fitting in the Young diagram."""
    d = 0
    for i, p in enumerate(parts):
        if p >= i + 1:
            d = i + 1
        else:
            break
    return d


def smallest_part_count(parts) -> int:
    """Multiplicity of the smallest part (0 for the empty partition)."""
    if not parts:
        return 0
    smallest = parts[-1]
    c = 0
    for p in reversed(parts):
        if p != smallest:
            break
        c += 1
    return c


def string_count(parts) -> int:
    """Count even and odd strings in a partition.

    A run starting at s has length L when s, s+1, ..., s+L-1 all occur as
    parts and s+L does not.  A string is a run that starts at

    * an odd s, occurring exactly once, with L >= s (odd string), or
    * an even s, with s-1 absent and L odd, L >= s-1 (even string).

    One partition may contain several strings; each qualifying starting
    part contributes one.

    The parts are scanned once, largest first, one block of equal parts at
    a time: a block gives its value s and multiplicity, and the run from s
    is one longer than the run from the previous block's value when that
    value is s+1.  Whether s-1 is absent is known at the next block, so an
    even s whose run qualifies waits there.
    """
    total = 0
    waiting = False  # the previous block is an even s whose run qualifies
    run = prev = 0
    i, n = 0, len(parts)
    while i < n:
        s = parts[i]
        j = i + 1
        while j < n and parts[j] == s:
            j += 1
        if waiting and s != prev - 1:
            total += 1
        run = run + 1 if prev == s + 1 else 1
        if s % 2 == 1:
            waiting = False
            if j - i == 1 and run >= s:
                total += 1
        else:
            waiting = run % 2 == 1 and run >= s - 1
        prev = s
        i = j
    return total + waiting


def stats_of(parts) -> PartitionStats:
    """All five statistics of one partition (validated first)."""
    t = check_partition(parts)
    return PartitionStats(
        rank=rank_of(t),
        crank=crank_of(t),
        durfee=durfee_size(t),
        smallest_part_count=smallest_part_count(t),
        string_count=string_count(t),
    )


def brute_distribution(n: int, kind: str, cap: int = ENUMERATION_CAP) -> dict:
    """Histogram of crank or rank over all partitions of n.

    For kind="crank" and n=1 this returns the raw combinatorial histogram
    {-1: 1}; callers comparing against generating-function tables must
    reconcile the anomalous column themselves.
    """
    if kind not in ("crank", "rank"):
        raise ValueError(f"kind must be 'crank' or 'rank', got {kind!r}")
    return getattr(brute_aggregates(n, cap=cap), kind)


def brute_aggregates(n: int, cap: int = ENUMERATION_CAP) -> BruteAggregates:
    """Every brute-force statistic of the partitions of n, in one pass.

    Returns the crank and rank histograms together with the totals of
    spt, string counts and Durfee sizes, all from a single enumeration.
    """
    crank = Counter()
    rank = Counter()
    count = spt = strings = durfee = 0
    for parts in partitions_of(n, cap=cap):
        count += 1
        crank[crank_of(parts)] += 1
        rank[rank_of(parts)] += 1
        spt += smallest_part_count(parts)
        strings += string_count(parts)
        durfee += durfee_size(parts)
    return BruteAggregates(
        n=n, count=count, spt=spt, ospt_strings=strings, durfee_sum=durfee,
        crank=dict(crank), rank=dict(rank),
    )
