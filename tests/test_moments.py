import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from crankrank import moments as mm
from crankrank import partitions as pt
from crankrank import series as qs
from crankrank.errors import ResourceLimitError


class TestTableBuild:
    def test_crank_matches_enumeration(self, small_tables):
        assert small_tables["crank"].distribution(4) == \
            pt.brute_distribution(4, "crank")

    def test_anomalous_column_generating_function(self, small_tables):
        assert small_tables["crank"].distribution(1) == {-1: 1, 0: -1, 1: 1}

    def test_anomalous_column_combinatorial(self, small_tables):
        # the table keeps the generating-function row; export patches row 1
        table = small_tables["crank"]
        assert mm.combinatorial_row(1, table.dense_row(1)) == [0, 1, 0]
        row = table.dense_row(2)
        assert mm.combinatorial_row(2, row) is row
        assert table.distribution(2) == pt.brute_distribution(2, "crank")

    def test_rank_n1(self, small_tables):
        assert small_tables["rank"].distribution(1) == {0: 1}

    def test_row_sums(self, small_tables):
        p = qs.partition_series(40).coeffs
        for kind in ("crank", "rank"):
            for N in range(41):
                assert sum(small_tables[kind].rows[N]) == p[N]

    def test_out_of_range(self, small_tables):
        with pytest.raises(ValueError):
            small_tables["crank"].distribution(41)
        with pytest.raises(ValueError):
            small_tables["crank"].full_moment(1, 41)


class TestMoments:
    def test_positive_first_crank(self, small_tables):
        assert small_tables["crank"].positive_moments_upto(1)[4][1] == 6

    def test_positive_first_rank(self, small_tables):
        assert small_tables["rank"].positive_moments_upto(1)[4][1] == 4

    def test_positive_second_is_half_full(self, small_tables):
        assert small_tables["crank"].positive_moments_upto(2)[4][2] == 20
        assert small_tables["crank"].full_moment(2, 4) == 40

    def test_odd_full_moments_vanish(self, small_tables):
        for kind in ("crank", "rank"):
            assert small_tables[kind].full_moment(3, 10) == 0

    def test_zeroth_full_moment_counts_partitions(self, small_tables):
        assert small_tables["crank"].full_moment(0, 7) == 15

    def test_even_halving_everywhere(self, small_tables):
        for kind in ("crank", "rank"):
            table = small_tables[kind]
            full = table.full_even_moments_upto(3)
            positive = table.positive_moments_upto(6)
            for N in range(41):
                for k in (1, 2, 3):
                    assert full[N][k] == 2 * positive[N][2 * k]


class TestSymmetrized:
    def test_crank_side_examples(self):
        # order 1 weighs m by C(m, 1) = m: the Durfee-square totals
        assert mm.symmetrized_series(1, 1, 3) == [0, 1, 2, 3]
        assert mm.symmetrized_series(1, 1, 6)[4] == 6
        assert mm.symmetrized_series(1, 2, 4)[2] == 1

    def test_rank_side_example(self):
        assert mm.symmetrized_series(3, 1, 6)[4] == 4

    def test_matches_binomial_over_table(self, small_tables):
        for ell, kind in ((1, "crank"), (3, "rank")):
            for r in range(1, 7):
                series = mm.symmetrized_series(ell, r, 40)
                for N in range(41):
                    assert series[N] == small_tables[kind].symmetrized_moment(r, N)

    def test_matches_binomial_over_enumeration(self):
        # independent of the table machinery: brute histograms
        brute = pt.brute_aggregates(25)
        hists = {
            kind: {N: getattr(brute[N], kind) for N in range(2, 26)}
            for kind in ("crank", "rank")
        }
        for ell, kind in ((1, "crank"), (3, "rank")):
            for r in range(1, 7):
                series = mm.symmetrized_series(ell, r, 25)
                off = (r - 1) // 2
                for N in range(2, 26):
                    want = sum(
                        comb(m + off, r) * c
                        for m, c in hists[kind][N].items() if m >= 1
                    )
                    assert series[N] == want, (ell, r, N)

    def test_kind_mapping(self):
        assert mm.kind_for_ell(1) == "crank"
        assert mm.kind_for_ell(3) == "rank"
        with pytest.raises(ValueError):
            mm.kind_for_ell(2)
        assert mm.ell_for_kind("rank") == 3


class TestBasisChange:
    def test_first_orders(self):
        assert mm.basis_change_coeffs(1) == [0]
        assert mm.basis_change_coeffs(2) == [0, 1]

    def test_polynomial_identity(self):
        for r in range(1, 11):
            coeffs = mm.basis_change_coeffs(r)
            for m in range(-20, 21):
                rhs = _falling_binomial_combo(r, coeffs, m)
                assert m ** r == rhs, (r, m)

    def test_matches_rational_elimination(self):
        # the integer interpolation against the elimination it replaced
        for r in range(1, 41):
            assert mm.basis_change_coeffs(r) == _rational_basis_change(r), r

    def test_constant_term_always_vanishes(self):
        # a_0 = 0 is what lets positive_moment_series skip the table route
        for r in range(1, 13):
            assert mm.basis_change_coeffs(r)[0] == 0, r

    def test_moment_reconciliation_small(self, small_tables):
        for kind, ell in (("crank", 1), ("rank", 3)):
            positive = small_tables[kind].positive_moments_upto(5)
            for r in range(1, 6):
                coeffs = mm.basis_change_coeffs(r)
                sym = {
                    l: mm.symmetrized_series(ell, l, 40)
                    for l in range(1, r + 1)
                }
                for N in range(41):
                    want = factorial(r) * sym[r][N]
                    for l in range(1, r):
                        if coeffs[l]:
                            want += coeffs[l] * sym[l][N]
                    assert positive[N][r] == want

    def test_series_route_positive_moments(self, small_tables):
        for kind in ("crank", "rank"):
            positive = small_tables[kind].positive_moments_upto(10)
            for r in range(1, 11):
                got = mm.positive_moment_series(kind, r, 40)
                assert got == [positive[N][r] for N in range(41)]


def _binomial_basis_polynomial(ell):
    """Coefficients (as Fractions, ascending) of m -> C(m + floor((ell-1)/2), ell)."""
    off = (ell - 1) // 2
    poly = [Fraction(1)]
    for i in range(ell):
        poly = [Fraction(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] += (off - i) * poly[k + 1]
    return [c / factorial(ell) for c in poly]


def _rational_basis_change(r):
    """a_0..a_{r-1} by triangular elimination in the binomial basis over
    exact rationals, from the top order down: the simple path that
    ``basis_change_coeffs`` replaced."""
    target = [Fraction(0)] * r + [Fraction(1)]
    coeffs = []  # a_r, a_{r-1}, ..., a_0
    for ell in range(r, -1, -1):
        c = target[ell] * factorial(ell)
        assert c.denominator == 1, (r, ell, c)
        coeffs.append(int(c))
        for k, b in enumerate(_binomial_basis_polynomial(ell)):
            target[k] -= c * b
    assert not any(target), r
    assert coeffs[0] == factorial(r), r
    return coeffs[:0:-1]


def _falling_binomial_combo(r, coeffs, m):
    def fb(top, k):
        num = 1
        for i in range(k):
            num *= top - i
        return num // factorial(k)

    total = factorial(r) * fb(m + (r - 1) // 2, r)
    for l in range(r):
        if coeffs[l]:
            total += coeffs[l] * fb(m + (l - 1) // 2, l)
    return total


class TestSptOspt:
    def test_small_values(self):
        spt, ospt = mm.spt_ospt(5)
        assert spt[1:] == [1, 3, 5, 10, 14]
        assert ospt[1:] == [1, 1, 1, 2, 2]

    def test_against_enumeration(self):
        spt, ospt = mm.spt_ospt(25)
        brute = pt.brute_aggregates(25)
        for N in range(1, 26):
            agg = brute[N]
            assert spt[N] == agg.spt
            assert ospt[N] == agg.ospt_strings

    def test_numerator_route_agrees(self):
        _, ospt = mm.spt_ospt(200)
        assert qs.ospt_series(200).coeffs == ospt

    def test_monotone(self):
        _, ospt = mm.spt_ospt(200)
        assert all(b >= a for a, b in zip(ospt[1:], ospt[2:]))

    def test_durfee_route(self):
        positive = mm.CrankRankTable.build("crank", 25).positive_moments_upto(1)
        brute = pt.brute_aggregates(25)
        for N in range(1, 26):
            assert positive[N][1] == brute[N].durfee_sum


@pytest.mark.parametrize("ell, orders, nmax", [
    (1, range(1, 7), 300), (3, (1, 2), 2000), (1, (5,), 40), (3, (1, 2), 0),
    (1, (20,), 400), (3, (30,), 200),  # the N^r factor outweighs p(N)
])
def test_quotient_family_estimate_bounds_what_it_holds(ell, orders, nmax, monkeypatch):
    family = mm.symmetrized_family(ell, orders, nmax)
    held = sum(8 + sys.getsizeof(v) for coeffs in family.values() for v in coeffs)
    # at most twice what the lists hold at these sizes
    monkeypatch.setattr(qs, "TABLE_BYTES_LIMIT", 2 * held)
    qs.check_quotient_family(list(orders), nmax)
    monkeypatch.setattr(qs, "TABLE_BYTES_LIMIT", held - 1)
    with pytest.raises(ResourceLimitError, match=f"to nmax={nmax} needs"):
        mm.symmetrized_family(ell, orders, nmax)
