from collections import Counter

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


class TestEnumeration:
    def test_zero_has_empty_partition(self):
        assert list(pt.partitions_of(0)) == [()]

    def test_four_lexicographic(self):
        assert list(pt.partitions_of(4)) == [
            (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,),
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
            assert list(pt.partitions_of(n)) == list(recursive_partitions(n))


@given(st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_enumeration_counts_and_shape(n):
    count = 0
    for parts in pt.partitions_of(n):
        count += 1
        assert sum(parts) == n
        assert all(a >= b for a, b in zip(parts, parts[1:]))
    assert count == qs.partition_series(n).coeffs[n]


class TestStatistics:
    def test_three_one(self):
        s = pt.stats_of((3, 1))
        assert (s.rank, s.crank, s.durfee) == (1, 0, 1)
        assert s.string_count == 1

    def test_single_one(self):
        s = pt.stats_of((1,))
        assert s.crank == -1  # raw combinatorial rule at N=1
        assert s.rank == 0

    def test_two_two(self):
        s = pt.stats_of((2, 2))
        assert (s.rank, s.crank, s.durfee) == (0, 2, 2)
        assert s.string_count == 1

    def test_empty_partition(self):
        s = pt.stats_of(())
        assert s == pt.PartitionStats(0, 0, 0, 0, 0)

    def test_one_one_strings(self):
        # 1 occurs twice: no odd string at 1, and the even string at 2 is
        # blocked by the part 1
        assert pt.string_count((1, 1)) == 0

    def test_smallest_part_count(self):
        assert pt.smallest_part_count((3, 2, 2, 2)) == 3
        assert pt.smallest_part_count((5,)) == 1

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            pt.stats_of((1, 2))
        with pytest.raises(ValueError):
            pt.stats_of((2, 0))

    def test_crank_no_ones(self):
        assert pt.crank_of((6, 3, 2)) == 6

    def test_durfee(self):
        assert pt.durfee_size((4, 4, 4, 4)) == 4
        assert pt.durfee_size((2, 1, 1, 1)) == 1
        assert pt.durfee_size((3, 3, 2)) == 2


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
        for n in range(21):
            crank, rank = Counter(), Counter()
            spt = strings = durfee = 0
            for parts in pt.partitions_of(n):
                s = pt.stats_of(parts)
                crank[s.crank] += 1
                rank[s.rank] += 1
                spt += s.smallest_part_count
                strings += s.string_count
                durfee += s.durfee
            agg = pt.brute_aggregates(n)
            assert agg.crank == crank and agg.rank == rank
            assert (agg.count, agg.spt, agg.ospt_strings, agg.durfee_sum) == (
                sum(crank.values()), spt, strings, durfee)

    def test_string_totals_weakly_increase(self):
        values = [pt.brute_aggregates(n).ospt_strings for n in range(1, 22)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def conjugate(parts):
    if not parts:
        return ()
    out = []
    for i in range(1, parts[0] + 1):
        out.append(sum(1 for p in parts if p >= i))
    return tuple(out)


@st.composite
def random_partition(draw):
    n = draw(st.integers(0, 28))
    idx = draw(st.integers(0, 10**6))
    all_parts = list(pt.partitions_of(n))
    return all_parts[idx % len(all_parts)]


@given(random_partition())
@settings(max_examples=80, deadline=None)
def test_conjugation_properties(parts):
    conj = conjugate(parts)
    assert sum(conj) == sum(parts)
    assert conjugate(conj) == parts
    assert pt.rank_of(conj) == -pt.rank_of(parts)
    assert pt.durfee_size(conj) == pt.durfee_size(parts)


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


@given(st.lists(st.integers(1, 14), max_size=18).map(
    lambda parts: tuple(sorted(parts, reverse=True))))
@settings(max_examples=300, deadline=None)
def test_string_count_matches_counter_reference(parts):
    assert pt.string_count(parts) == counter_string_count(parts)


def test_string_count_matches_counter_reference_exhaustively():
    for n in range(21):
        for parts in pt.partitions_of(n):
            assert pt.string_count(parts) == counter_string_count(parts), parts
