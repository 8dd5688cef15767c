"""Brute-force partition enumeration and per-partition statistics.

Everything here is deliberately naive: partitions are enumerated one by
one and each statistic is read straight off its combinatorial definition.
That makes this module the independent oracle against which the
generating-function machinery in :mod:`crankrank.series` and
:mod:`crankrank.moments` is validated.

A partition is a tuple of blocks ``(part, multiplicity)``, parts strictly
decreasing, so 3+1+1 is ``((3, 1), (1, 2))``; the empty tuple is the
unique partition of 0.  Each statistic reads the blocks, one per distinct
part, rather than every part.

Enumeration is iterative: ``partitions_of`` steps one list of blocks from
the all-ones partition to ``(n,)`` by a successor rule, in lexicographic
order of the parts (the same order as the recursive reference generator
in the tests).  ``brute_aggregates`` enumerates the partitions of n once
and tallies every statistic of every partition of every N <= n in that
single pass: each partition of N is a partition of n with n - N of its
ones taken off.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ResourceLimitError

# p(80) is about 1.5e7; exhaustive statistics beyond that are impractical.
ENUMERATION_CAP = 80


class BruteAggregates(NamedTuple):
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


def _check_enumerable(n: int) -> None:
    """Refuse an n whose partitions cannot be enumerated."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"partition enumeration capped at n <= {ENUMERATION_CAP}, got {n}"
        )


def partitions_of(n: int):
    """Yield every partition of n exactly once, as blocks, in lexicographic
    order of the parts.

    Written out as weakly decreasing parts compared left to right, the
    order for n=4 is 1+1+1+1, 2+1+1, 2+2, 3+1, 4; as blocks that is
    ((1, 4),), ((2, 1), (1, 2)), ((2, 2),), ((3, 1), (1, 1)), ((4, 1),).

    One list of blocks is stepped in place, starting from n ones.  The
    successor raises by 1 the first copy of the last part, or of the part
    before it when the last part occurs once, and turns every part after
    that copy into ones; that is the next partition in the order above.
    Only the blocks from the raised part on are rebuilt, and the raised
    part joins the block before it when they become equal.
    """
    _check_enumerable(n)
    blocks = [(1, n)] if n else []
    while True:
        yield tuple(blocks)
        if not blocks or blocks[0][0] == n:
            return
        part, mult = blocks.pop()
        ones = -1  # the parts after the raised copy, less the 1 it gains
        if mult == 1:  # the last part occurs once: raise the part before it
            ones += part
            part, mult = blocks.pop()
        ones += part * (mult - 1)
        if blocks and blocks[-1][0] == part + 1:
            blocks[-1] = (part + 1, blocks[-1][1] + 1)
        else:
            blocks.append((part + 1, 1))
        if ones:
            blocks.append((1, ones))


def rank_of(blocks) -> int:
    """Largest part minus number of parts (0 for the empty partition)."""
    if not blocks:
        return 0
    count = 0
    for _, mult in blocks:
        count += mult
    return blocks[0][0] - count


def crank_of(blocks) -> int:
    """Largest part if there are no ones, else (#parts > #ones) - #ones.

    This is the raw combinatorial rule; note that it assigns -1 to the
    single partition (1), whereas the generating function splits the q^1
    column as w^-1 - 1 + w.  Reconciling the two is never this function's
    job: the tables keep the generating-function row,
    ``moments.combinatorial_row`` turns it into the single partition of
    crank 0 at export, and the ``crank-anomalous-column`` check pins all
    three forms.
    """
    if not blocks:
        return 0
    smallest, ones = blocks[-1]
    if smallest != 1:
        return blocks[0][0]
    exceeding = 0
    for part, mult in blocks:
        if part <= ones:
            break
        exceeding += mult
    return exceeding - ones


def durfee_size(blocks) -> int:
    """Side of the largest square fitting in the Young diagram.

    That is the largest d whose d-th largest part is at least d.  While
    each part so far is at least its position, d counts them; a block of
    m parts equal to p after them holds positions d+1 .. d+m.
    """
    d = 0
    for part, mult in blocks:
        if part <= d:
            break
        if part < d + mult:
            return part
        d += mult
    return d


def smallest_part_count(blocks) -> int:
    """Multiplicity of the smallest part (0 for the empty partition)."""
    return blocks[-1][1] if blocks else 0


def string_count(blocks) -> int:
    """Count even and odd strings in a partition.

    A run starting at s has length L when s, s+1, ..., s+L-1 all occur as
    parts and s+L does not.  A string is a run that starts at

    * an odd s, occurring exactly once, with L >= s (odd string), or
    * an even s, with s-1 absent and L odd, L >= s-1 (even string).

    One partition may contain several strings; each qualifying starting
    part contributes one.

    The blocks are scanned once, largest first: the run from a block's
    part s is one longer than the run from the previous block's part when
    that part is s+1.  Whether s-1 is absent is known at the next block,
    so an even s whose run qualifies waits there.
    """
    total = 0
    waiting = False  # the previous block is an even s whose run qualifies
    run = prev = 0
    for s, mult in blocks:
        if waiting and s != prev - 1:
            total += 1
        run = run + 1 if prev == s + 1 else 1
        if s % 2 == 1:
            waiting = False
            if mult == 1 and run >= s:
                total += 1
        else:
            waiting = run % 2 == 1 and run >= s - 1
        prev = s
    return total + waiting


def brute_distribution(n: int, kind: str) -> dict:
    """Histogram of crank or rank over all partitions of n.

    For kind="crank" and n=1 this returns the raw combinatorial histogram
    {-1: 1}; callers comparing against generating-function tables must
    reconcile the anomalous column themselves.
    """
    if kind not in ("crank", "rank"):
        raise ValueError(f"kind must be 'crank' or 'rank', got {kind!r}")
    return getattr(brute_aggregates(n)[n], kind)


def brute_aggregates(n: int) -> list:
    """Every brute-force statistic of the partitions of each N = 0..n, from
    one enumeration of the partitions of n.

    Returns the ``BruteAggregates`` of N at index N: the crank and rank
    histograms, each in the order its values first occur when
    ``partitions_of(N)`` is enumerated, and the totals of spt, string
    counts and Durfee sizes.  The size checks of ``partitions_of`` run
    before any per-N list is allocated.

    Every partition of N <= n is mu + 1^j, where mu holds its parts of at
    least 2, of size M in all, and j = N - M counts its ones.  Then
    mu + 1^(n-M) is the partition of n that ends in n - M ones, so one
    pass over the partitions of n meets each mu exactly once.  It tallies
    mu itself into N = M, with each statistic read off its definition,
    and mu + 1^j into N = M + j for j = 1..n-M.  Adding ones to two
    partitions of N keeps their lexicographic order, because they first
    differ at a part both have; so each N's partitions are met in the
    order ``partitions_of(N)`` yields them, and each histogram keeps its
    key order.

    For j >= 1 each statistic of mu + 1^j follows from its definition:

    * rank: the largest part is that of mu + 1 and every one adds a part,
      so the rank is rank(mu + 1) - (j - 1);
    * crank: with j ones it is (#parts > j) - j, and no one exceeds j, so
      it is (#parts of mu greater than j) - j; as j grows the blocks of mu
      with part <= j drop out of that count from the smallest part up;
    * smallest-part count: the smallest part is 1, occurring j times;
    * Durfee size: a one at place d >= 2 is below d, so a one counts only
      as the first part, when mu is empty; the size is that of mu + 1;
    * strings: a run from s >= 2 never reaches 1, and an even string from
      s = 2 needs 1 absent, so the ones bear only on the odd string from
      s = 1, which needs exactly one 1; the count is that of mu + 1 at
      j = 1 and of mu + 1^2 for every j >= 2.
    """
    _check_enumerable(n)
    count, spt, strings, durfee = ([0] * (n + 1) for _ in range(4))
    crank = [{} for _ in range(n + 1)]
    rank = [{} for _ in range(n + 1)]
    for blocks in partitions_of(n):
        ones = blocks[-1][1] if blocks and blocks[-1][0] == 1 else 0
        mu = blocks[:-1] if ones else blocks
        size = n - ones
        count[size] += 1
        key = crank_of(mu)
        crank[size][key] = crank[size].get(key, 0) + 1
        key = rank_of(mu)
        rank[size][key] = rank[size].get(key, 0) + 1
        spt[size] += smallest_part_count(mu)
        strings[size] += string_count(mu)
        durfee[size] += durfee_size(mu)
        if not ones:
            continue
        with_one = mu + ((1, 1),)
        rank_one = rank_of(with_one)
        durfee_one = durfee_size(with_one)
        strings_one = string_count(with_one)
        strings_more = string_count(mu + ((1, 2),))
        exceeding = sum(mult for _, mult in mu)  # parts of mu greater than j
        below = len(mu)  # mu[:below] are the blocks with parts greater than j
        for j in range(1, ones + 1):
            N = size + j
            while below and mu[below - 1][0] <= j:
                below -= 1
                exceeding -= mu[below][1]
            count[N] += 1
            key = exceeding - j
            crank[N][key] = crank[N].get(key, 0) + 1
            key = rank_one + 1 - j
            rank[N][key] = rank[N].get(key, 0) + 1
            spt[N] += j
            strings[N] += strings_one if j == 1 else strings_more
            durfee[N] += durfee_one
    return [
        BruteAggregates(
            n=N, count=count[N], spt=spt[N], ospt_strings=strings[N],
            durfee_sum=durfee[N], crank=crank[N], rank=rank[N],
        )
        for N in range(n + 1)
    ]
