"""Parity of spt/ospt through the factorization of 24N - 1.

Both sequences share their parity, and that parity is governed by a
quadratic condition on the prime factorization of 24N - 1: the value is
odd exactly when 24N - 1 = p^{4a+1} m^2 with p prime, p = 23 (mod 24),
and p not dividing m.  ``factorize`` finds that factorization by trial
division alone, for 1 <= n < 10^12.  No command comes near that bound:
the sequences behind the parity table stop at N of about 1.7 * 10^6,
so 24N - 1 stays below 4.1 * 10^7.
"""

from __future__ import annotations

from typing import NamedTuple


class _FactorizationFields(NamedTuple):
    n: int
    factors: tuple  # ((prime, exponent), ...)


class Factorization(_FactorizationFields):
    """A complete prime factorization, primes strictly increasing."""

    __slots__ = ()

    def __new__(cls, n: int, factors: tuple):
        prod = 1
        last = 1
        for p, e in factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            last = p
            prod *= p ** e
        if prod != n:
            raise ValueError(f"factors do not multiply back to {n}")
        return super().__new__(cls, n, factors)


def factorize(n: int) -> Factorization:
    """Complete prime factorization for 1 <= n < 10^12, by trial division.

    Divides out 2 and 3, then the candidates 6k - 1 and 6k + 1 while
    their square is at most what remains.  What remains above 1 then has
    no prime factor up to its square root, so it is prime.  Below 10^12
    no candidate passes 10^6.
    """
    if not 1 <= n < 10**12:
        raise ValueError("n must satisfy 1 <= n < 10^12")
    remaining = n
    factors = {}
    # 2, 3, then a 6k +- 1 wheel; primes are found in increasing order
    for p in (2, 3):
        while remaining % p == 0:
            factors[p] = factors.get(p, 0) + 1
            remaining //= p
    p = 5
    while p * p <= remaining:
        for cand in (p, p + 2):
            while remaining % cand == 0:
                factors[cand] = factors.get(cand, 0) + 1
                remaining //= cand
        p += 6
    if remaining > 1:
        factors[remaining] = 1
    return Factorization(n=n, factors=tuple(factors.items()))


def parity_predict(N: int) -> bool:
    """True exactly when ospt(N) (equivalently spt(N)) is odd.

    Factorizes 24N - 1 and applies ``parity_from_factorization``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return parity_from_factorization(factorize(24 * N - 1))


def parity_from_factorization(fac: Factorization) -> bool:
    """The parity predictor read from a factorization of 24N - 1.

    Odd iff exactly one prime carries an odd exponent, that exponent is
    1 (mod 4), and the prime is 23 (mod 24); everything else must appear
    to an even power.
    """
    odd_part = [(p, e) for p, e in fac.factors if e % 2 == 1]
    if len(odd_part) != 1:
        return False
    p, e = odd_part[0]
    return e % 4 == 1 and p % 24 == 23


class ParityRow(NamedTuple):
    N: int
    modulus_argument: int          # 24N - 1
    factorization: tuple
    predicted_odd: bool
    ospt_mod_2: int
    spt_mod_2: int

    @property
    def consistent(self) -> bool:
        return (
            int(self.predicted_odd) == self.ospt_mod_2 == self.spt_mod_2
        )


def parity_rows(spt, ospt, upto: int) -> list:
    """Build per-N parity rows from exact spt/ospt sequences.

    ``spt`` and ``ospt`` are indexed from 0; rows run 1..upto.
    """
    if upto >= len(spt) or upto >= len(ospt):
        raise ValueError("sequences too short for requested range")
    rows = []
    for N in range(1, upto + 1):
        fac = factorize(24 * N - 1)
        rows.append(ParityRow(
            N=N,
            modulus_argument=24 * N - 1,
            factorization=fac.factors,
            predicted_odd=parity_from_factorization(fac),
            ospt_mod_2=ospt[N] % 2,
            spt_mod_2=spt[N] % 2,
        ))
    return rows


def format_factorization(factors) -> str:
    """Render ((p1,e1),...) as ``p1^e1*p2^e2`` with unit exponents elided."""
    parts = []
    for p, e in factors:
        parts.append(f"{p}^{e}" if e > 1 else str(p))
    return "*".join(parts)
