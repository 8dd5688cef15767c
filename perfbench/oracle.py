"""Independent reference computations for the benchmark's output checks.

Nothing here imports crankrank: every number is recomputed from a
different definition than the one the program uses, so a check compares
two genuinely separate routes.
"""

from __future__ import annotations

from math import comb


def partition_counts(nmax: int) -> list:
    """p(0..nmax) by the coin-change recurrence (one part size at a time).

    The program uses the pentagonal-number recurrence instead.
    """
    p = [1] + [0] * nmax
    for part in range(1, nmax + 1):
        for n in range(part, nmax + 1):
            p[n] += p[n - part]
    return p


def spt_at(points) -> dict:
    """spt(N) for each N in ``points`` from the parts-greater-than-s recurrence.

    P_{>s}(q) = prod_{j>s} 1/(1-q^j) satisfies P_{>s} = (1-q^s) P_{>s-1},
    and partitions whose smallest part s occurs exactly k times are
    generated by q^{ks} P_{>s}, so spt(N) = sum_s sum_k k [q^{N-ks}] P_{>s}.
    """
    points = sorted(set(points))
    if not points:
        return {}
    nmax = points[-1]
    P = partition_counts(nmax)
    totals = dict.fromkeys(points, 0)
    for s in range(1, nmax + 1):
        # descending n: P[n - s] still holds P_{>s-1} when P[n] is updated
        for n in range(nmax, s - 1, -1):
            P[n] -= P[n - s]
        for N in points:
            k = 1
            while k * s <= N:
                totals[N] += k * P[N - k * s]
                k += 1
    return totals


def full_moment(row: dict, r: int) -> int:
    """sum over m of m^r row[m], for a histogram row given as m -> count."""
    return sum(m ** r * c for m, c in row.items())


def positive_moment(row: dict, r: int) -> int:
    return sum(m ** r * c for m, c in row.items() if m > 0)


def symmetrized_moment(row: dict, r: int) -> int:
    """sum_{m>=1} C(m + floor((r-1)/2), r) row[m]."""
    off = (r - 1) // 2
    return sum(comb(m + off, r) * c for m, c in row.items() if m > 0)


def residue_counts(row: dict, modulus: int) -> list:
    out = [0] * modulus
    for m, c in row.items():
        out[m % modulus] += c
    return out


#: (kind, modulus, N residue): Andrews-Garvan for the crank,
#: Atkin-Swinnerton-Dyer for the rank.
EQUIDISTRIBUTION = (
    ("crank", 5, 4), ("crank", 7, 5), ("crank", 11, 6),
    ("rank", 5, 4), ("rank", 7, 5),
)

#: spt(modulus * n + offset) = 0 mod modulus (Andrews).
SPT_CONGRUENCES = ((5, 4), (7, 5), (13, 6))


def row_map(row: list, N: int) -> dict:
    """A dense Laurent row (index m + N) as a map m -> nonzero count."""
    return {i - N: c for i, c in enumerate(row) if c}


def table_faults(rows: dict, p: list) -> list:
    """Property faults of crank/rank histogram rows, as readable strings.

    ``rows[kind][N]`` is the m -> count map of row N, for whichever rows
    are given.  Each is checked against p(N), for symmetry, for vanishing
    odd full moments, against Dyson's M2(N) = 2N p(N) for the crank and,
    where N lies in a progression, for the residue-class equidistributions.
    """
    faults = []
    for kind, table in rows.items():
        for N, row in table.items():
            if sum(row.values()) != p[N]:
                faults.append(f"{kind} row {N} sums to {sum(row.values())}, p = {p[N]}")
            if any(row.get(-m) != c for m, c in row.items()):
                faults.append(f"{kind} row {N} is not symmetric")
            for r in (1, 3):
                if full_moment(row, r):
                    faults.append(f"{kind} full moment r={r} at N={N} is nonzero")
            if kind == "crank" and full_moment(row, 2) != 2 * N * p[N]:
                faults.append(f"crank M2({N}) != 2N p(N)")
            for k, modulus, offset in EQUIDISTRIBUTION:
                if k == kind and N % modulus == offset:
                    counts = residue_counts(row, modulus)
                    if len(set(counts)) != 1:
                        faults.append(f"{kind} mod {modulus} not equidistributed at N={N}: {counts}")
    return faults


def spt_congruence_faults(spt) -> list:
    """Indices N where one of Andrews' spt congruences fails (spt indexed by N)."""
    faults = []
    for modulus, offset in SPT_CONGRUENCES:
        for N in range(offset, len(spt), modulus):
            if spt[N] % modulus:
                faults.append(f"spt({N}) = {spt[N]} not divisible by {modulus}")
    return faults
