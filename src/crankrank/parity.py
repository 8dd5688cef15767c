"""Parity of spt/ospt through the factorization of 24N - 1.

Both sequences share their parity, and that parity is governed by a
quadratic condition on the prime factorization of 24N - 1: the value is
odd exactly when 24N - 1 = p^{4a+1} m^2 with p prime, p = 23 (mod 24),
and p not dividing m.  The factorization machinery here (deterministic
Miller-Rabin plus Brent's cycle-finding splitter) is certified for the
full unsigned 63-bit range even though the shipped checks only ever
factor numbers below 48000.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

_SMALL_TRIAL_LIMIT = 10**6

# Deterministic Miller-Rabin witness set for n < 3.3 * 10^24, which
# comfortably covers the supported 63-bit range; is_prime also tries these
# primes as divisors first.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Factorization:
    """A complete prime factorization, primes strictly increasing."""

    n: int
    factors: tuple  # ((prime, exponent), ...)

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            last = p
            prod *= p ** e
        if prod != self.n:
            raise ValueError(f"factors do not multiply back to {self.n}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2^63."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's variant)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # rare cycle degeneracy: restart with a new polynomial


def factorize(n: int) -> Factorization:
    """Complete prime factorization for 1 <= n < 2^63.

    Strips small primes by trial division (up to 10^6), then splits any
    remaining cofactor with Brent's rho, certifying every prime by the
    deterministic Miller-Rabin test.
    """
    if not 1 <= n < 2**63:
        raise ValueError("n must satisfy 1 <= n < 2^63")
    remaining = n
    factors = {}
    # trial division: 2, 3, then a 6k +- 1 wheel
    for p in (2, 3):
        while remaining % p == 0:
            factors[p] = factors.get(p, 0) + 1
            remaining //= p
    p = 5
    while p <= _SMALL_TRIAL_LIMIT and p * p <= remaining:
        for cand in (p, p + 2):
            while remaining % cand == 0:
                factors[cand] = factors.get(cand, 0) + 1
                remaining //= cand
        p += 6
    stack = [remaining] if remaining > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _brent_rho(m)
        stack.extend((d, m // d))
    return Factorization(n=n, factors=tuple(sorted(factors.items())))


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


@dataclass(frozen=True)
class ParityRow:
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
