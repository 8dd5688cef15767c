from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crankrank import partitions as pt
from crankrank import series as qs
from crankrank.errors import ResourceLimitError


def recursive_partitions(n):
    """Reference enumeration: recursion on the first part, lexicographic order."""
    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(1, min(remaining, largest) + 1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n if n else 1)


def expand(blocks):
    """The parts of a partition given as (part, multiplicity) blocks."""
    return tuple(part for part, mult in blocks for _ in range(mult))


def blocks_of(parts):
    """The (part, multiplicity) blocks of weakly decreasing parts."""
    return tuple((part, len(list(run))) for part, run in groupby(parts))


class TestEnumeration:
    def test_zero_has_empty_partition(self):
        assert list(pt.partitions_of(0)) == [()]

    def test_four_lexicographic(self):
        assert list(pt.partitions_of(4)) == [
            ((1, 4),), ((2, 1), (1, 2)), ((2, 2),), ((3, 1), (1, 1)), ((4, 1),),
        ]

    def test_counts(self):
        assert sum(1 for _ in pt.partitions_of(10)) == 42

    def test_unique(self):
        seen = list(pt.partitions_of(9))
        assert len(seen) == len(set(seen)) == 30

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            next(pt.partitions_of(81))

    def test_negative(self):
        with pytest.raises(ValueError):
            next(pt.partitions_of(-1))

    def test_same_order_as_recursive_reference(self):
        for n in range(31):
            assert [expand(blocks) for blocks in pt.partitions_of(n)] == list(
                recursive_partitions(n))


@given(st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_enumeration_counts_and_shape(n):
    count = 0
    for blocks in pt.partitions_of(n):
        count += 1
        assert sum(part * mult for part, mult in blocks) == n
        assert all(mult >= 1 for _, mult in blocks)
        assert all(a > b for (a, _), (b, _) in zip(blocks, blocks[1:]))
    assert count == qs.partition_series(n).coeffs[n]


class TestStatistics:
    def test_three_one(self):
        blocks = ((3, 1), (1, 1))
        assert (pt.rank_of(blocks), pt.crank_of(blocks),
                pt.durfee_size(blocks)) == (1, 0, 1)
        assert pt.string_count(blocks) == 1

    def test_single_one(self):
        assert pt.crank_of(((1, 1),)) == -1  # raw combinatorial rule at N=1
        assert pt.rank_of(((1, 1),)) == 0

    def test_two_two(self):
        blocks = ((2, 2),)
        assert (pt.rank_of(blocks), pt.crank_of(blocks),
                pt.durfee_size(blocks)) == (0, 2, 2)
        assert pt.string_count(blocks) == 1

    def test_empty_partition(self):
        assert [statistic(()) for statistic in (
            pt.rank_of, pt.crank_of, pt.durfee_size, pt.smallest_part_count,
            pt.string_count)] == [0, 0, 0, 0, 0]

    def test_one_one_strings(self):
        # 1 occurs twice: no odd string at 1, and the even string at 2 is
        # blocked by the part 1
        assert pt.string_count(((1, 2),)) == 0

    def test_smallest_part_count(self):
        assert pt.smallest_part_count(((3, 1), (2, 3))) == 3
        assert pt.smallest_part_count(((5, 1),)) == 1

    def test_crank_no_ones(self):
        assert pt.crank_of(((6, 1), (3, 1), (2, 1))) == 6

    def test_durfee(self):
        assert pt.durfee_size(((4, 4),)) == 4
        assert pt.durfee_size(((2, 1), (1, 3))) == 1
        assert pt.durfee_size(((3, 2), (2, 1))) == 2


class TestDistributions:
    def test_crank_four(self):
        assert pt.brute_distribution(4, "crank") == {
            -4: 1, -2: 1, 0: 1, 2: 1, 4: 1,
        }

    def test_rank_four(self):
        assert pt.brute_distribution(4, "rank") == {
            -3: 1, -1: 1, 0: 1, 1: 1, 3: 1,
        }

    def test_zero(self):
        assert pt.brute_distribution(0, "crank") == {0: 1}
        assert pt.brute_distribution(0, "rank") == {0: 1}

    def test_crank_one_is_raw(self):
        assert pt.brute_distribution(1, "crank") == {-1: 1}

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            pt.brute_distribution(3, "spin")

    @pytest.mark.parametrize("kind", ["crank", "rank"])
    def test_symmetry(self, kind):
        for n in range(2, 26):
            hist = pt.brute_distribution(n, kind)
            assert all(hist[m] == hist.get(-m, 0) for m in hist)


class TestAggregates:
    def test_four(self):
        agg = pt.brute_aggregates(4)
        assert (agg.spt, agg.ospt_strings, agg.durfee_sum) == (10, 2, 6)

    def test_one(self):
        agg = pt.brute_aggregates(1)
        assert (agg.spt, agg.ospt_strings, agg.durfee_sum) == (1, 1, 1)

    def test_two(self):
        agg = pt.brute_aggregates(2)
        assert (agg.spt, agg.ospt_strings, agg.durfee_sum) == (3, 1, 2)

    def test_one_pass_matches_per_partition_statistics(self):
        # the pinned failure reports print the brute histograms in insertion
        # order, so the order of first occurrence must match as well
        for n in range(41):
            crank, rank = Counter(), Counter()
            spt = strings = durfee = 0
            for blocks in pt.partitions_of(n):
                parts = expand(blocks)
                crank[tuple_crank(parts)] += 1
                rank[tuple_rank(parts)] += 1
                spt += tuple_smallest_part_count(parts)
                strings += tuple_string_count(parts)
                durfee += tuple_durfee_size(parts)
            agg = pt.brute_aggregates(n)
            assert list(agg.crank.items()) == list(crank.items())
            assert list(agg.rank.items()) == list(rank.items())
            assert (agg.count, agg.spt, agg.ospt_strings, agg.durfee_sum) == (
                sum(crank.values()), spt, strings, durfee)

    def test_string_totals_weakly_increase(self):
        values = [pt.brute_aggregates(n).ospt_strings for n in range(1, 22)]
        assert all(b >= a for a, b in zip(values, values[1:]))


@st.composite
def random_parts(draw):
    """A random partition of some N <= 40, parts weakly decreasing."""
    remaining = draw(st.integers(0, 40))
    parts = []
    while remaining:
        part = draw(st.integers(1, remaining))
        parts.append(part)
        remaining -= part
    return tuple(sorted(parts, reverse=True))


def conjugate(parts):
    if not parts:
        return ()
    out = []
    for i in range(1, parts[0] + 1):
        out.append(sum(1 for p in parts if p >= i))
    return tuple(out)


@given(random_parts())
@settings(max_examples=80, deadline=None)
def test_conjugation_properties(parts):
    conj = conjugate(parts)
    assert sum(conj) == sum(parts)
    assert conjugate(conj) == parts
    blocks, conj_blocks = blocks_of(parts), blocks_of(conj)
    assert pt.rank_of(conj_blocks) == -pt.rank_of(blocks)
    assert pt.durfee_size(conj_blocks) == pt.durfee_size(blocks)


def counter_string_count(parts):
    """Reference string count: a Counter of the parts and a set of values."""
    if not parts:
        return 0
    counts = Counter(parts)
    present = set(counts)
    total = 0
    for s in present:
        run = 0
        while s + run in present:
            run += 1
        if s % 2 == 1:
            if counts[s] == 1 and run >= s:
                total += 1
        else:
            if (s - 1) not in present and run % 2 == 1 and run >= s - 1:
                total += 1
    return total


def tuple_rank(parts):
    """Reference rank: largest part minus number of parts."""
    if not parts:
        return 0
    return parts[0] - len(parts)


def tuple_crank(parts):
    """Reference crank: largest part if there are no ones, else
    (#parts > #ones) - #ones, by the raw combinatorial rule (-1 at (1))."""
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


def tuple_durfee_size(parts):
    """Reference Durfee size: side of the largest square in the diagram."""
    d = 0
    for i, p in enumerate(parts):
        if p >= i + 1:
            d = i + 1
        else:
            break
    return d


def tuple_smallest_part_count(parts):
    """Reference multiplicity of the smallest part (0 for no parts)."""
    if not parts:
        return 0
    smallest = parts[-1]
    c = 0
    for p in reversed(parts):
        if p != smallest:
            break
        c += 1
    return c


def tuple_string_count(parts):
    """Reference string count: one scan of the parts, a block of equal
    parts at a time, largest first.

    The run from a block's value s is one longer than the run from the
    previous block's value when that value is s+1; whether s-1 is absent
    is known at the next block, so an even s whose run qualifies waits
    there.
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


REFERENCES = {
    "rank_of": tuple_rank,
    "crank_of": tuple_crank,
    "durfee_size": tuple_durfee_size,
    "smallest_part_count": tuple_smallest_part_count,
    "string_count": tuple_string_count,
}


def assert_statistics_match_references(blocks):
    parts = expand(blocks)
    for name, reference in REFERENCES.items():
        assert getattr(pt, name)(blocks) == reference(parts), (name, parts)


def test_statistics_match_references_exhaustively():
    for n in range(26):
        for blocks in pt.partitions_of(n):
            assert_statistics_match_references(blocks)


@given(random_parts())
@settings(max_examples=300, deadline=None)
def test_statistics_match_references(parts):
    assert_statistics_match_references(blocks_of(parts))


@given(st.lists(st.integers(1, 14), max_size=18).map(
    lambda parts: tuple(sorted(parts, reverse=True))))
@settings(max_examples=300, deadline=None)
def test_string_count_matches_counter_reference(parts):
    assert pt.string_count(blocks_of(parts)) == counter_string_count(parts)


def test_string_count_matches_counter_reference_exhaustively():
    for n in range(21):
        for blocks in pt.partitions_of(n):
            parts = expand(blocks)
            assert pt.string_count(blocks) == counter_string_count(parts), parts
