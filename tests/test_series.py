import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crankrank import moments, partitions
from crankrank import series as qs
from crankrank.errors import ConvergenceError


def brute_partition_count(n):
    return sum(1 for _ in partitions.partitions_of(n))


def partial_value(series, x):
    """Horner evaluation of the truncated polynomial at x."""
    acc = 0
    for c in reversed(series.coeffs):
        acc = acc * x + c
    return acc


def schoolbook_product(a, b):
    """Reference truncated product: the plain O(nmax^2) Cauchy loop."""
    nmax = a.nmax
    out = [0] * (nmax + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j <= nmax:
                out[i + j] += x * y
    return out


BIG = 2**300


def _coefficient_lists(n):
    return st.one_of(
        st.lists(st.one_of(st.just(0), st.integers(-BIG, BIG)),
                 min_size=n, max_size=n),
        st.just([0] * n),
        st.lists(st.integers(-BIG, -1), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    )


@st.composite
def series_pairs(draw):
    n = draw(st.integers(1, 64))
    return (
        qs.ExactSeries(draw(_coefficient_lists(n))),
        qs.ExactSeries(draw(_coefficient_lists(n))),
    )


class TestPartitionSeries:
    def test_first_values(self):
        assert qs.partition_series(5).coeffs == [1, 1, 2, 3, 5, 7]

    def test_order_zero(self):
        assert qs.partition_series(0).coeffs == [1]

    def test_against_enumeration(self):
        series = qs.partition_series(30).coeffs
        for n in range(31):
            assert series[n] == brute_partition_count(n)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            qs.partition_series(-1)

    def test_ramanujan_congruences(self):
        p = qs.partition_series(500).coeffs
        assert all(p[5 * k + 4] % 5 == 0 for k in range(100))
        assert all(p[7 * k + 5] % 7 == 0 for k in range(71))
        assert all(p[11 * k + 6] % 11 == 0 for k in range(45))

    def test_classical_milestones(self):
        p = qs.partition_series(200).coeffs
        assert p[100] == 190569292
        assert p[200] == 3972999029388


class TestSeriesArithmetic:
    def test_difference_of_squares(self):
        a = qs.ExactSeries([1, 1, 0])
        b = qs.ExactSeries([1, -1, 0])
        assert (a * b).coeffs == [1, 0, -1]

    def test_euler_inverse_identity(self):
        prod = qs.euler_function(20) * qs.partition_series(20)
        assert prod.coeffs == [1] + [0] * 20

    def test_plain_convolution(self):
        a = qs.ExactSeries([1, 1, 1])
        assert (a * a).coeffs == [1, 2, 3]

    def test_mismatched_orders(self):
        with pytest.raises(ValueError, match="truncation orders"):
            qs.ExactSeries([1, 0]) * qs.ExactSeries([1, 0, 0])

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=8),
        st.lists(st.integers(-9, 9), min_size=1, max_size=8),
        st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_properties(self, xs, ys, zs):
        n = max(len(xs), len(ys), len(zs))
        a = qs.ExactSeries(xs + [0] * (n - len(xs)))
        b = qs.ExactSeries(ys + [0] * (n - len(ys)))
        c = qs.ExactSeries(zs + [0] * (n - len(zs)))
        a_plus_b = qs.ExactSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])
        assert (a * b).coeffs == (b * a).coeffs
        assert (a_plus_b * c).coeffs == [
            x + y for x, y in zip((a * c).coeffs, (b * c).coeffs)]


class TestProductAgainstSchoolbook:
    """``ExactSeries.__mul__`` against the plain Cauchy loop."""

    @given(series_pairs())
    @example((qs.ExactSeries([0]), qs.ExactSeries([0])))
    @example((qs.ExactSeries([-BIG]), qs.ExactSeries([BIG])))
    @example((qs.ExactSeries([-1] * 64), qs.ExactSeries([-BIG] * 64)))
    @example((qs.ExactSeries([31] * 63), qs.ExactSeries([-31] * 63)))
    @settings(max_examples=100, deadline=None)
    def test_random_series(self, pair):
        a, b = pair
        prod = a * b
        assert prod.coeffs == schoolbook_product(a, b)

    @pytest.mark.parametrize("factor", [
        *(pytest.param(lambda n, ell=ell, r=r: qs.appell_sum(ell, r, n),
                       id=f"appell-{ell}-{r}")
          for ell in (1, 3) for r in (1, 2, 6, 10)),
        pytest.param(qs.euler_function, id="euler"),
        pytest.param(qs.ospt_numerator, id="ospt-numerator"),
    ])
    def test_quotients_at_600(self, factor):
        p = qs.partition_series(600)
        a = factor(600)
        prod = a * p
        assert prod.coeffs == schoolbook_product(a, p)


class TestPackedDivision:
    """Quotients by (q;q)_inf against the products they replace."""

    @pytest.mark.parametrize("ell", [1, 3])
    @pytest.mark.parametrize("orders, nmax", [
        ((1, 2, 6, 10), 600), ((2, 20), 400), ((1, 30), 200),
    ])
    def test_symmetrized_family(self, ell, orders, nmax):
        # every order of one family shares one packed division by (q;q)_inf
        family = moments.symmetrized_family(ell, orders, nmax)
        p = qs.partition_series(nmax)
        for r in orders:
            assert family[r] == schoolbook_product(qs.appell_sum(ell, r, nmax), p)

    @given(series=st.integers(1, 64).flatmap(lambda n: st.lists(
               _coefficient_lists(n), max_size=8)))
    @example(series=[[-BIG] * 64, [BIG] * 64, [-1] * 64])
    @example(series=[[0] * 64, [0] * 64])
    @example(series=[])
    # odd series out at the top of a level, and several levels of halves
    @example(series=[[j - 1, -j * BIG, 2 * j] for j in range(3)])
    @example(series=[[j - 2, -j * BIG, 2 * j, 1] for j in range(5)])
    @example(series=[[(-1) ** j * j, j * BIG, -j] * 4 for j in range(33)])
    @settings(max_examples=100, deadline=None)
    def test_euler_quotients(self, series):
        # every quotient, divided in one packed pass, times (q;q)_inf gives
        # back its numerator and equals the division of its series alone
        quotients = qs.euler_quotients(series)
        assert len(quotients) == len(series)
        for t, T in zip(series, quotients):
            euler = qs.euler_function(len(t) - 1)
            assert (qs.ExactSeries(T) * euler).coeffs == t
            assert T == qs._divide_by_euler(list(t))

    @pytest.mark.parametrize("nmax", [0, 1, 600])
    def test_ospt_series(self, nmax):
        # the ospt numerator divided by (q;q)_inf, against its product with p
        p = qs.partition_series(nmax)
        assert qs.ospt_series(nmax).coeffs == schoolbook_product(
            qs.ospt_numerator(nmax), p)

    def test_partition_bits_bound_p(self):
        p = qs.partition_series(2000).coeffs
        assert p[0].bit_length() <= qs.partition_bits(0)
        for n in range(1, 2001):
            # p(n) < e^{pi sqrt(2n/3)}, with the 2 bits of margin left spare
            assert math.log(p[n]) < math.pi * math.sqrt(2 * n / 3)
            assert p[n].bit_length() <= qs.partition_bits(n) - 2


def table(kind, nmax):
    """The table on the columns ``bivariate_series(kind, nmax)`` returns."""
    return moments.CrankRankTable(kind, qs.bivariate_series(kind, nmax), nmax)


def histogram(kind, n):
    """Row n of the bivariate series to q^n, as a map m -> count."""
    row = table(kind, n).dense_rows(n)[n]
    return {m - n: c for m, c in enumerate(row) if c}


class TestBivariateSeries:
    def test_crank_anomalous_column(self):
        assert histogram("crank", 1) == {-1: 1, 0: -1, 1: 1}

    def test_crank_q4(self):
        assert histogram("crank", 4) == {-4: 1, -2: 1, 0: 1, 2: 1, 4: 1}

    def test_rank_q4(self):
        assert histogram("rank", 4) == {-3: 1, -1: 1, 0: 1, 1: 1, 3: 1}

    def test_constant_row(self):
        for kind in ("crank", "rank"):
            assert histogram(kind, 0) == {0: 1}
            # rows 0..nmax only: past nmax a row would be cut at the
            # numerator's order
            for n in (-1, 4):
                with pytest.raises(ValueError, match="outside table range"):
                    table(kind, 3).dense_rows(n)

    @pytest.mark.parametrize("kind", ["crank", "rank"])
    def test_collapse_and_symmetry(self, kind):
        biv = table(kind, 30)
        assert biv.collapse_marker().coeffs == qs.partition_series(30).coeffs
        assert biv.first_asymmetric_row() is None

    @pytest.mark.parametrize("kind", ["crank", "rank"])
    def test_rows_match_enumeration(self, kind):
        rows = table(kind, 25).dense_rows(25)
        start = 2 if kind == "crank" else 0
        brute = partitions.brute_aggregates(25)
        for n in range(start, 26):
            assert ({m - n: c for m, c in enumerate(rows[n]) if c}
                    == getattr(brute[n], kind))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            qs.bivariate_series("spin", 4)


class TestAppellSum:
    def test_crank_side_first_coefficient(self):
        assert qs.appell_sum(1, 1, 4).coeffs[1] == 1

    def test_even_order_empty_at_zero(self):
        assert qs.appell_sum(1, 2, 0).coeffs == [0]

    def test_rank_side_q2(self):
        assert qs.appell_sum(3, 1, 4).coeffs[2] == 1

    def test_unsupported_ell(self):
        with pytest.raises(ValueError, match="ell"):
            qs.appell_sum(2, 1, 10)

    def test_term_expansion_small(self):
        # n=1 term of the (1, 1) sum is q/(1-q); n=2 subtracts q^3/(1-q^2)
        got = qs.appell_sum(1, 1, 6).coeffs
        want = [0, 1, 1, 0, 1, 0, 2]
        assert got == want

    @pytest.mark.parametrize("ell", [1, 3])
    @pytest.mark.parametrize("nmax", [0, 1, 2, 3, 7, 50, 301])
    def test_matches_term_by_term_expansion(self, ell, nmax):
        # the shared binomial list against one math.comb per term
        for r in range(1, 25):
            want = [0] * (nmax + 1)
            for n in range(1, nmax + 1):
                base = (ell * n * n + (r + 1 - r % 2) * n) // 2
                for k in range((nmax - base) // n + 1):
                    want[base + n * k] += (-1) ** (n + 1) * math.comb(k + r - 1, r - 1)
            assert qs.appell_sum(ell, r, nmax).coeffs == want, r


class TestOsptNumerator:
    def test_small_coefficients(self):
        assert qs.ospt_numerator(8).coeffs == [0, 1, 0, -1, 0, -1, 1, 0, 0]

    def test_quotient_counts(self):
        got = qs.ospt_series(8).coeffs
        assert got[0] == 0
        assert got[1] == 1
        assert got[4] == 2


class TestComplexEvaluation:
    def test_euler_at_zero(self):
        res = qs.euler_inverse_value(0j)
        assert res.value == 1
        assert res.tail_bound == 0
        with pytest.raises(AttributeError):
            res.value = 0

    def test_euler_matches_series_on_reals(self):
        series = qs.partition_series(80)
        for x in (0.05, 0.2, 0.35, 0.5):
            res = qs.euler_inverse_value(x, tol=1e-13)
            partial = partial_value(series, x)
            geom_tail = 2 * partial * x ** 81 / (1 - x)
            assert abs(res.value - partial) <= res.tail_bound + geom_tail + 1e-12

    def test_appell_matches_series_partial_sum(self):
        series = qs.appell_sum(1, 2, 60)
        res = qs.appell_sum_value(1, 2, 0.1, tol=1e-12)
        assert abs(res.value - partial_value(series, 0.1)) < 1e-12

    def test_ospt_numerator_limit(self):
        res = qs.ospt_numerator_value(math.exp(-1e-4), tol=1e-10)
        assert abs(res.value - 0.25) < 1e-3

    def test_outside_disk(self):
        with pytest.raises(ValueError, match=r"\|q\|"):
            qs.euler_inverse_value(1.0 + 0j)
        with pytest.raises(ValueError):
            qs.appell_sum_value(1, 1, 2j)

    def test_order_past_double_range(self):
        # (1 - 0.28)^3000 underflows to 0, and the tail test divides by it
        with pytest.raises(OverflowError):
            qs.appell_sum_value(1, 3000, 0.28)

    def test_unreachable_tolerance(self):
        with pytest.raises(ConvergenceError) as err:
            qs.appell_sum_value(1, 1, 0.9, tol=1e-30, max_terms=3)
        assert err.value.achieved_bound is not None
        # no term at all: every evaluator reports that no bound was reached
        for evaluate in (qs.euler_inverse_value,
                         lambda q, **kw: qs.appell_sum_value(1, 1, q, **kw),
                         qs.ospt_numerator_value):
            with pytest.raises(ConvergenceError) as err:
                evaluate(0.5, max_terms=0)
            assert err.value.achieved_bound == math.inf

    def test_certified_bound_is_honest(self):
        # compare against a much tighter evaluation
        loose = qs.appell_sum_value(1, 3, 0.6 + 0.1j, tol=1e-6)
        tight = qs.appell_sum_value(1, 3, 0.6 + 0.1j, tol=1e-14)
        assert abs(loose.value - tight.value) <= loose.tail_bound


_RADIUS = st.floats(0.05, 0.95)

#: |q| on the circle of the N = 400 contour integral, the largest ``circle`` uses
WRIGHT_RADIUS = math.exp(-math.pi / math.sqrt(6.0 * 400))


@st.composite
def disk_points(draw, radius=_RADIUS):
    """Up to 8 points on one circle or on circles of mixed radii."""
    angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8))
    if draw(st.booleans()):
        radii = [draw(radius)] * len(angles)
    else:
        radii = draw(st.lists(radius, min_size=len(angles), max_size=len(angles)))
    return np.array([cmath.rect(rad, a) for rad, a in zip(radii, angles)])


def wright_points():
    """A complex scalar or an array of them, 0.05 <= |q| <= WRIGHT_RADIUS."""
    radius = st.floats(0.05, WRIGHT_RADIUS)
    return st.one_of(st.builds(cmath.rect, radius, st.floats(-math.pi, math.pi)),
                     disk_points(radius))


def appell_exponent(ell, r, n):
    """l n^2/2 + (r/2 + rho) n with rho = 0 for odd r and 1/2 for even r."""
    return (ell * n * n + (r + 1 - r % 2) * n) // 2


def appell_term_majorants(ell, r, aq, terms):
    """|q|^E(n) / (1 - |q|)^r for n <= terms: rounding scale of a summation."""
    return sum(aq ** appell_exponent(ell, r, n) / (1.0 - aq) ** r
               for n in range(1, terms + 1))


def ospt_term_majorants(aq, terms):
    """n |q|^{n(n+1)/2} for n <= terms: rounding scale of a summation."""
    return sum(n * aq ** (n * (n + 1) // 2) for n in range(1, terms + 1))


def exp_form_appell(ell, r, q, terms):
    """The first ``terms`` terms of the Appell sum, each power of q taken as
    exp(k log q): the simple path that the evaluator's running products replace."""
    logq = np.log(q)
    return sum((-1) ** (n + 1) * np.exp(appell_exponent(ell, r, n) * logq)
               / (1.0 - np.exp(n * logq)) ** r for n in range(1, terms + 1))


def exp_form_ospt_numerator(q, terms):
    """The first ``terms`` terms of the ospt numerator series in exp(k log q) form."""
    logq = np.log(q)
    return sum((-1) ** (n + 1) * np.exp(n * (n + 1) // 2 * logq)
               * (1.0 - np.exp(n * n * logq)) / (1.0 - np.exp(n * logq))
               for n in range(1, terms + 1))


class TestAgainstExpForm:
    """The running-product evaluators against the exp-form partial sums of
    as many terms, at scalars and arrays out to the N = 400 circle."""

    @settings(max_examples=80, deadline=None)
    @given(q=wright_points(), ell=st.sampled_from((1, 3)), r=st.integers(1, 6))
    def test_appell(self, q, ell, r):
        res = qs.appell_sum_value(ell, r, q, 1e-15)
        assert np.shape(res.value) == np.shape(q)
        ref = exp_form_appell(ell, r, q, res.terms)
        for z, got, want in zip(np.ravel(q), np.ravel(res.value), np.ravel(ref)):
            rounding = 1e-13 * appell_term_majorants(ell, r, abs(z), res.terms)
            assert abs(got - want) <= rounding

    @settings(max_examples=40, deadline=None)
    @given(q=wright_points())
    def test_ospt_numerator(self, q):
        res = qs.ospt_numerator_value(q, 1e-15)
        assert np.shape(res.value) == np.shape(q)
        ref = exp_form_ospt_numerator(q, res.terms)
        for z, got, want in zip(np.ravel(q), np.ravel(res.value), np.ravel(ref)):
            assert abs(got - want) <= 1e-13 * ospt_term_majorants(abs(z), res.terms)

    def test_scalar_stays_python_complex(self):
        # ``circle --format csv`` writes repr() of values derived from these
        for res in (qs.appell_sum_value(3, 4, 0.5 + 0.5j),
                    qs.ospt_numerator_value(0.5 + 0.5j)):
            assert type(res.value) is complex


def every_term_stopping_sum(terms, tail, tol, max_terms, name):
    """``series._alternating_sum`` taking min |partial sum| over every point
    after every term."""
    acc = 0j
    for n in range(1, max_terms + 1):
        if n % 2 == 1:
            acc += next(terms)
        else:
            acc -= next(terms)
        bound = tail(n)
        if bound <= tol * max(float(np.abs(acc).min()), 1e-300):
            return qs.SeriesValue(acc, bound, n)
    raise ConvergenceError(f"{name} did not converge in {max_terms} terms")


class TestArrayEvaluation:
    """The evaluators on numpy arrays agree with their scalar results."""

    @settings(max_examples=60, deadline=None)
    @given(q=disk_points(), ell=st.sampled_from((1, 3)), r=st.integers(1, 6))
    def test_appell_array_matches_points(self, q, ell, r):
        res = qs.appell_sum_value(ell, r, q)
        assert res.value.shape == q.shape
        aq = float(np.abs(q).max())
        rounding = 1e-13 * appell_term_majorants(ell, r, aq, res.terms)
        for z, got in zip(q, res.value):
            point = qs.appell_sum_value(ell, r, complex(z))
            # the array sum runs at least as far as the scalar one, and the
            # scalar tail majorant bounds every stretch of its remainder
            assert res.terms >= point.terms
            assert abs(got - point.value) <= point.tail_bound + rounding

    @settings(max_examples=60, deadline=None)
    @given(q=disk_points())
    def test_euler_array_matches_points(self, q):
        res = qs.euler_inverse_value(q)
        assert res.value.shape == q.shape
        for z, got in zip(q, res.value):
            point = qs.euler_inverse_value(complex(z))
            assert res.terms >= point.terms
            assert (abs(got - point.value)
                    <= point.tail_bound + 1e-13 * abs(point.value))

    @settings(max_examples=30, deadline=None)
    @given(q=disk_points())
    def test_ospt_numerator_array_matches_points(self, q):
        res = qs.ospt_numerator_value(q)
        assert res.value.shape == q.shape
        aq = float(np.abs(q).max())
        rounding = 1e-13 * ospt_term_majorants(aq, res.terms)
        for z, got in zip(q, res.value):
            point = qs.ospt_numerator_value(complex(z))
            assert abs(got - point.value) <= point.tail_bound + rounding

    @settings(max_examples=40, deadline=None)
    @given(q=disk_points(), ell=st.sampled_from((1, 3)), r=st.integers(1, 6),
           tol=st.sampled_from((1e-6, 1e-12, 1e-15)))
    def test_stopping_rule_unchanged(self, q, ell, r, tol):
        # the evaluators against the same sums stopped by the rule applied
        # after every term, with no reduction skipped
        got = [qs.appell_sum_value(ell, r, q, tol), qs.ospt_numerator_value(q, tol)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qs, "_alternating_sum", every_term_stopping_sum)
            want = [qs.appell_sum_value(ell, r, q, tol),
                    qs.ospt_numerator_value(q, tol)]
        for a, b in zip(got, want):
            assert (a.terms, a.tail_bound) == (b.terms, b.tail_bound)
            assert np.array_equal(a.value, b.value)

    def test_two_dimensional_shape(self):
        q = np.full((2, 3), 0.3 + 0.4j)
        assert qs.appell_sum_value(1, 2, q).value.shape == (2, 3)
        assert qs.euler_inverse_value(q).value.shape == (2, 3)

    def test_array_points_checked(self):
        with pytest.raises(ValueError, match=r"\|q\|"):
            qs.appell_sum_value(1, 1, np.array([0.5, 1.0 + 0j]))
        with pytest.raises(ValueError, match="nonzero"):
            qs.euler_inverse_value(np.array([0.5, 0j]))


class TestAgainstMpmath:
    """The integrand's points near |q| = e^{-pi/sqrt(6*400)}, at 40 digits."""

    decay = math.pi / math.sqrt(6.0 * 400)
    x = np.array([0.0, 0.002, 0.0102, 0.03, 0.11, 0.25, 0.37, 0.4999])
    q = np.exp(-decay + 2j * math.pi * x)

    @pytest.mark.parametrize("ell", [1, 3])
    @pytest.mark.parametrize("r", [1, 2, 4, 6])
    def test_appell_sum(self, ell, r):
        res = qs.appell_sum_value(ell, r, self.q, 1e-15)
        with mpmath.workdps(40):
            for got, z in zip(res.value, self.q):
                z = mpmath.mpc(z.real, z.imag)
                terms = [(-1) ** (n + 1) * z ** appell_exponent(ell, r, n)
                         / (1 - z ** n) ** r for n in range(1, 120)]
                ref = complex(mpmath.fsum(terms))
                scale = float(mpmath.fsum(abs(t) for t in terms))
                assert abs(got - ref) <= res.tail_bound + 1e-13 * scale

    def test_ospt_numerator(self):
        res = qs.ospt_numerator_value(self.q, 1e-15)
        with mpmath.workdps(40):
            for got, z in zip(res.value, self.q):
                z = mpmath.mpc(z.real, z.imag)
                terms = [(-1) ** (n + 1) * z ** (n * (n + 1) // 2)
                         * (1 - z ** (n * n)) / (1 - z ** n) for n in range(1, 120)]
                ref = complex(mpmath.fsum(terms))
                scale = float(mpmath.fsum(abs(t) for t in terms))
                assert abs(got - ref) <= res.tail_bound + 1e-13 * scale

    def test_euler_inverse(self):
        res = qs.euler_inverse_value(self.q, 1e-15)
        assert res.tail_bound.shape == self.q.shape
        with mpmath.workdps(40):
            for got, bound, z in zip(res.value, res.tail_bound, self.q):
                ref = complex(1 / mpmath.qp(mpmath.mpc(z.real, z.imag)))
                assert abs(got - ref) <= bound + 1e-13 * abs(ref)

    def test_euler_bound_is_relative_per_point(self):
        # |1/(q;q)_inf| spans many orders of magnitude over the circle, so
        # each point's bound must scale with its own value
        res = qs.euler_inverse_value(self.q, 1e-15)
        relative = res.tail_bound / np.abs(res.value)
        assert relative[self.x == 0.11] <= 1e-14
        assert np.all(relative <= 1e-14)


class TestTailBounds:
    """Each evaluator stopped after ``max_terms`` terms at |q| close to 1:
    the achieved bound of its ConvergenceError against the true remainder
    after those terms, summed by mpmath at 30 digits.

    The bound must hold.  It must also not be vacuous where the term
    majorant is sharpest: the Appell majorant |q|^E(n) / (1 - |q|)^r
    overstates term n about n^r-fold near q = 1, so the bounds of order 1
    and of the ospt numerator stay within 10^3 of the remainder here."""

    points = [rho * cmath.exp(1j * theta)
              for rho in (0.97, 0.99) for theta in (0.0, 0.3, math.pi)]

    @staticmethod
    def remainder(term, after):
        with mpmath.workdps(30):
            return float(abs(mpmath.fsum(map(term, range(after + 1, 400)))))

    @pytest.mark.parametrize("ell, r", [(1, 1), (3, 1), (1, 2), (3, 4)])
    @pytest.mark.parametrize("max_terms", [10, 20])
    def test_appell_sum(self, ell, r, max_terms):
        for q in self.points:
            with pytest.raises(ConvergenceError) as err:
                qs.appell_sum_value(ell, r, q, 1e-15, max_terms)
            z = mpmath.mpc(q.real, q.imag)
            true = self.remainder(lambda n: (-1) ** (n + 1)
                                  * z ** appell_exponent(ell, r, n)
                                  / (1 - z ** n) ** r, max_terms)
            assert true <= err.value.achieved_bound, q
            if r == 1:
                assert err.value.achieved_bound <= 1e3 * true, q

    @pytest.mark.parametrize("max_terms", [10, 20])
    def test_ospt_numerator(self, max_terms):
        for q in self.points:
            with pytest.raises(ConvergenceError) as err:
                qs.ospt_numerator_value(q, 1e-15, max_terms)
            z = mpmath.mpc(q.real, q.imag)
            true = self.remainder(lambda n: (-1) ** (n + 1)
                                  * z ** (n * (n + 1) // 2)
                                  * (1 - z ** (n * n)) / (1 - z ** n),
                                  max_terms)
            assert true <= err.value.achieved_bound <= 1e3 * true, q
