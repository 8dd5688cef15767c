
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import isprime

from crankrank import cli
from crankrank import moments as mm
from crankrank import parity as pa


class TestPrimality:
    """Primality as ``factorize`` reports it: n is prime exactly when its
    factorization is the single factor n."""

    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(1, 50):
            assert (pa.factorize(n).factors == ((n, 1),)) == (n in primes), n

    def test_mersenne(self):
        # 2^31 - 1 is prime; 2^37 - 1 = 223 * 616318177
        assert pa.factorize(2**31 - 1).factors == ((2**31 - 1, 1),)
        assert pa.factorize(2**37 - 1).factors == ((223, 1), (616318177, 1))

    def test_carmichael(self):
        assert pa.factorize(561).factors == ((3, 1), (11, 1), (17, 1))
        assert pa.factorize(41041).factors == (
            (7, 1), (11, 1), (13, 1), (41, 1))


class TestFactorize:
    def test_small_composite(self):
        fac = pa.factorize(95)
        assert fac.factors == ((5, 1), (19, 1))
        with pytest.raises(AttributeError):
            fac.n = 96

    def test_prime(self):
        assert pa.factorize(23).factors == ((23, 1),)

    def test_one(self):
        assert pa.factorize(1).factors == ()

    def test_largest_shipped_modulus_argument(self):
        # 24 * 2000 - 1, the top of the default parity table
        assert pa.factorize(47999).factors == ((7, 1), (6857, 1))

    def test_prime_powers(self):
        assert pa.factorize(3**7).factors == ((3, 7),)
        assert pa.factorize(2**20 * 3**3).factors == ((2, 20), (3, 3))

    def test_large_semiprime_hits_rho(self):
        # the two largest primes below 10^6, at the top of the domain
        p, q = 999979, 999983
        assert pa.factorize(p * q).factors == ((p, 1), (q, 1))

    def test_large_square(self):
        p = 999983
        assert pa.factorize(p * p).factors == ((p, 2),)

    def test_range_errors(self):
        for n in (0, 10**12, 2**61 - 1):
            with pytest.raises(ValueError):
                pa.factorize(n)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            pa.Factorization(6, ((3, 1), (2, 1)))
        with pytest.raises(ValueError):
            pa.Factorization(6, ((2, 1), (5, 1)))

    @given(st.integers(1, 10**12 - 1))
    @settings(max_examples=120, deadline=None)
    def test_factorization_recombines(self, n):
        fac = pa.factorize(n)
        prod = 1
        for p, e in fac.factors:
            assert isprime(p)
            prod *= p**e
        assert prod == n


class TestParityPredict:
    def test_first_values(self):
        # 23, 47, 71 are primes = 23 (mod 24); 95 = 5*19, 119 = 7*17
        assert [pa.parity_predict(N) for N in (1, 2, 3, 4, 5)] == [
            True, True, True, False, False,
        ]

    def test_against_exact_sequences(self):
        spt, ospt = mm.spt_ospt(120)
        for N in range(1, 121):
            assert pa.parity_predict(N) == (ospt[N] % 2 == 1), N
            assert ospt[N] % 2 == spt[N] % 2, N

    def test_domain(self):
        with pytest.raises(ValueError):
            pa.parity_predict(0)


class TestParityRows:
    def test_rows_consistent(self):
        spt, ospt = mm.spt_ospt(60)
        rows = pa.parity_rows(spt, ospt, 60)
        assert len(rows) == 60
        assert all(row.consistent for row in rows)

    def test_row_contents(self):
        spt, ospt = mm.spt_ospt(4)
        row = pa.parity_rows(spt, ospt, 4)[3]
        assert row.N == 4
        assert row.modulus_argument == 95
        assert row.factorization == ((5, 1), (19, 1))
        assert not row.predicted_odd
        with pytest.raises(AttributeError):
            row.N = 5

    def test_each_modulus_factorized_once(self, monkeypatch):
        spt, ospt = mm.spt_ospt(80)
        calls = []
        factorize = pa.factorize

        def counting_factorize(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(pa, "factorize", counting_factorize)
        rows = pa.parity_rows(spt, ospt, 80)
        assert calls == [24 * N - 1 for N in range(1, 81)]
        monkeypatch.undo()
        assert [row.predicted_odd for row in rows] == [
            pa.parity_predict(N) for N in range(1, 81)
        ]

    def test_short_sequences_rejected(self):
        with pytest.raises(ValueError):
            pa.parity_rows([0, 1], [0, 1], 5)

    def test_csv_format(self, capsys):
        assert cli.main(["parity", "--nmax", "2"]) == 0
        assert capsys.readouterr().out == (
            "N,24N-1,factorization,predicted_parity,ospt_mod_2,spt_mod_2\n"
            "1,23,23,1,1,1\n"
            "2,47,47,1,1,1\n"
        )

    def test_factorization_format(self):
        assert pa.format_factorization(((2, 3), (7, 1))) == "2^3*7"
        assert pa.format_factorization(()) == ""
