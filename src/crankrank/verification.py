"""The exact identity and inequality suite.

Every check pits two independent routes to the same integers against each
other: generating-function tables against brute-force enumeration,
series-route moments against table-route moments, combinatorial aggregates
against coefficient extraction, and the arithmetic parity predictor
against both.  Each check yields its counterexamples lazily, as dicts of
named fields, and ``_verdict`` makes the first one its report: a failure
pinpoints the exact (N, r) where the routes disagree, nothing past it is
computed, and a check that yields nothing passes.

``run_suite`` is what the ``verify`` CLI subcommand executes; the heavier
acceptance tests reuse the same context object so the expensive tables
are built once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import factorial

from . import moments, parity, partitions
from . import series as qs

DEFAULT_BRUTE_NMAX = 40
MOMENT_ORDER_MAX = 10
SYMMETRIZED_ORDER_MAX = 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.counterexample is not None:
            out["counterexample"] = {
                k: str(v) for k, v in self.counterexample.items()
            }
        return out


@dataclass
class SuiteContext:
    """Shared exact data for the verification checks."""

    nmax: int
    brute_nmax: int
    crank_table: moments.CrankRankTable
    rank_table: moments.CrankRankTable
    partition_counts: list
    pos_crank: list      # pos_crank[N][r], r = 0..MOMENT_ORDER_MAX
    pos_rank: list
    sym_crank: dict = field(default_factory=dict)   # r -> coefficient list
    sym_rank: dict = field(default_factory=dict)
    spt: list = field(default_factory=list)
    ospt: list = field(default_factory=list)
    # brute[N] = partitions.brute_aggregates(N) for N = 0..brute_nmax: the
    # one enumeration of each N that every brute-force comparison reads
    brute: list = field(default_factory=list)


def build_context(nmax: int, brute_nmax: int | None = None) -> SuiteContext:
    """Build tables, bulk moments, and series data for one suite run."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if brute_nmax is None:
        brute_nmax = min(nmax, DEFAULT_BRUTE_NMAX)
    # at least N=1, which the crank anomalous-column check reads
    brute_nmax = max(1, min(brute_nmax, nmax, partitions.ENUMERATION_CAP))
    crank_table = moments.CrankRankTable.build("crank", nmax)
    rank_table = moments.CrankRankTable.build("rank", nmax)
    orders = range(1, MOMENT_ORDER_MAX + 1)
    sym_crank = moments.symmetrized_family(1, orders, nmax)
    sym_rank = moments.symmetrized_family(3, orders, nmax)
    spt, ospt = moments.spt_ospt_from_symmetrized(sym_crank, sym_rank)
    return SuiteContext(
        nmax=nmax,
        brute_nmax=brute_nmax,
        crank_table=crank_table,
        rank_table=rank_table,
        partition_counts=crank_table.p.coeffs,
        pos_crank=crank_table.positive_moments_upto(MOMENT_ORDER_MAX),
        pos_rank=rank_table.positive_moments_upto(MOMENT_ORDER_MAX),
        sym_crank=sym_crank,
        sym_rank=sym_rank,
        spt=spt,
        ospt=ospt,
        brute=[partitions.brute_aggregates(N) for N in range(brute_nmax + 1)],
    )


def _verdict(name, ok_detail, fail_detail, counterexamples) -> CheckResult:
    """The passing result if ``counterexamples`` yields nothing, else the
    failing one with the first dict it yields; ``fail_detail`` is formatted
    with that dict's fields."""
    first = next(iter(counterexamples), None)
    if first is None:
        return CheckResult(name, True, ok_detail)
    return CheckResult(name, False, fail_detail.format(**first), first)


def _sides(ctx: SuiteContext) -> tuple:
    """(kind, table, positive moments, symmetrized series), crank then rank."""
    return (("crank", ctx.crank_table, ctx.pos_crank, ctx.sym_crank),
            ("rank", ctx.rank_table, ctx.pos_rank, ctx.sym_rank))


def _moment_difference(ctx: SuiteContext, N: int, r: int) -> int:
    """M_r^+(N) - N_r^+(N): the table route to spt (r = 2) and ospt (r = 1)."""
    return ctx.pos_crank[N][r] - ctx.pos_rank[N][r]


def check_tables_vs_brute(ctx: SuiteContext) -> list:
    """Histogram rows equal brute enumeration; crank N=1 handled explicitly."""
    out = [
        _verdict(
            f"table-vs-brute-{kind}",
            f"rows {start}..{ctx.brute_nmax} match enumeration",
            "histogram mismatch",
            ({"N": N, "table": table.distribution(N),
              "brute": getattr(ctx.brute[N], kind)}
             for N in range(start, ctx.brute_nmax + 1)
             if table.distribution(N) != getattr(ctx.brute[N], kind)),
        )
        for kind, table, start in (("crank", ctx.crank_table, 2),
                                   ("rank", ctx.rank_table, 0))
    ]
    # the documented anomalous column
    column = {
        "generating_function": ctx.crank_table.distribution(1),
        "combinatorial": moments.CrankRankTable.build(
            "crank", 1, moments.COMBINATORIAL).distribution(1),
        "raw": ctx.brute[1].crank,
    }
    anomaly_ok = (
        column == {"generating_function": {-1: 1, 0: -1, 1: 1},
                   "combinatorial": {0: 1}, "raw": {-1: 1}}
        and ctx.rank_table.distribution(1) == {0: 1}
        and ctx.crank_table.distribution(0) == {0: 1}
    )
    out.append(_verdict(
        "crank-anomalous-column",
        "N=1: generating function {-1:1,0:-1,1:1}, combinatorial {0:1}, "
        "raw statistic {-1:1}",
        "N<=1 conventions broken", [] if anomaly_ok else [column],
    ))
    return out


def check_row_structure(ctx: SuiteContext) -> list:
    """Row sums give p(N); rows are symmetric under m -> -m.

    Both are read off the factorized tables: the weight-1 sum over m is one
    packed division by (q;q)_inf (``BivariateSeries.weighted_sums``), and
    symmetry is numerator column m against column -m.
    """
    return [
        _verdict(
            "row-sums-partition-count", f"both kinds, N <= {ctx.nmax}",
            "row sum != p(N)",
            ({"kind": kind, "N": N}
             for kind, table, _, _ in _sides(ctx)
             for N, (a, b) in enumerate(zip(table.collapse_marker().coeffs,
                                            ctx.partition_counts))
             if a != b),
        ),
        _verdict(
            "row-symmetry", f"both kinds, N <= {ctx.nmax}", "row not symmetric",
            ({"kind": kind, "N": N}
             for kind, table, _, _ in _sides(ctx)
             for N in [table.first_asymmetric_row()] if N is not None),
        ),
    ]


def _family_times_euler(kind: str, sym: dict, nmax: int):
    """Counterexamples to (sum_r sym[r]) * (q;q)_inf = sum_r A_{ell,r}.

    The product is ``ExactSeries.__mul__`` with ``euler_function``, so it
    does not go through the division that formed ``sym``; an overflowed
    slot of any order breaks the sum.
    """
    ell = moments.ell_for_kind(kind)
    total = qs.ExactSeries(map(sum, zip(*sym.values())))
    prod = (total * qs.euler_function(nmax)).coeffs
    appell = map(sum, zip(*(qs.appell_sum(ell, r, nmax).coeffs for r in sym)))
    return ({"kind": kind, "n": n, "product": a, "appell": b}
            for n, (a, b) in enumerate(zip(prod, appell)) if a != b)


def check_series_basics(ctx: SuiteContext) -> list:
    """Euler product inverts the partition series; marker collapse works;
    each symmetrized family times (q;q)_inf gives back its Appell sums."""
    nm = min(ctx.nmax, 200)
    prod = qs.partition_series(nm) * qs.euler_function(nm)
    nm2 = min(ctx.nmax, 60)
    return [
        _verdict(
            "euler-product-inverse", f"identity through q^{nm}", "product != 1",
            ({"n": n} for n, c in enumerate(prod.coeffs) if c != int(n == 0)),
        ),
        _verdict(
            "marker-collapse", f"both kinds collapse to p(N) through q^{nm2}",
            "w=1 collapse != p(N)",
            ({"kind": kind} for kind in ("crank", "rank")
             if qs.bivariate_series(kind, nm2).collapse_marker().coeffs
             != qs.partition_series(nm2).coeffs),
        ),
        _verdict(
            "family-times-euler",
            f"both kinds, r <= {MOMENT_ORDER_MAX}, through q^{ctx.nmax}",
            "family x (q;q)_inf != Appell sums",
            (bad for kind, _, _, sym in _sides(ctx)
             for bad in _family_times_euler(kind, sym, ctx.nmax)),
        ),
    ]


def check_aggregates(ctx: SuiteContext) -> list:
    """spt, ospt, and Durfee totals match their moment expressions."""
    Ns = range(1, ctx.brute_nmax + 1)
    return [
        _verdict(
            "spt-three-routes",
            f"smallest-part totals = M2+ - N2+ = series, N <= {ctx.brute_nmax}",
            "spt routes disagree",
            ({"N": N, "brute": ctx.brute[N].spt,
              "table": _moment_difference(ctx, N, 2), "series": ctx.spt[N]}
             for N in Ns
             if not ctx.brute[N].spt == _moment_difference(ctx, N, 2)
             == ctx.spt[N]),
        ),
        _verdict(
            "ospt-three-routes",
            f"string totals = M1+ - N1+ = series, N <= {ctx.brute_nmax}",
            "ospt routes disagree",
            ({"N": N, "brute": ctx.brute[N].ospt_strings,
              "table": _moment_difference(ctx, N, 1), "series": ctx.ospt[N]}
             for N in Ns
             if not ctx.brute[N].ospt_strings == _moment_difference(ctx, N, 1)
             == ctx.ospt[N]),
        ),
        _verdict(
            "durfee-first-moment", f"Durfee totals = M1+, N <= {ctx.brute_nmax}",
            "Durfee sum != M1+",
            ({"N": N, "brute": ctx.brute[N].durfee_sum,
              "table": ctx.pos_crank[N][1]}
             for N in Ns if ctx.brute[N].durfee_sum != ctx.pos_crank[N][1]),
        ),
    ]


def check_spt_ospt_series_scale(ctx: SuiteContext) -> list:
    """Table-route moment differences equal the series-route spt/ospt."""
    return [_verdict(
        "spt-ospt-series-scale", f"table route = series route, N <= {ctx.nmax}",
        "table and series routes disagree",
        ({"N": N, "spt_table": _moment_difference(ctx, N, 2),
          "spt_series": ctx.spt[N],
          "ospt_table": _moment_difference(ctx, N, 1),
          "ospt_series": ctx.ospt[N]}
         for N in range(ctx.nmax + 1)
         if _moment_difference(ctx, N, 2) != ctx.spt[N]
         or _moment_difference(ctx, N, 1) != ctx.ospt[N]),
    )]


def check_ospt_numerator(ctx: SuiteContext) -> list:
    """ospt from the dedicated numerator series equals mu_1 - eta_1."""
    other = moments.ospt_from_numerator(ctx.nmax)
    return [_verdict(
        "ospt-numerator-series", f"numerator route matches, N <= {ctx.nmax}",
        "numerator route disagrees",
        ({"N": N, "numerator": other[N], "difference": ctx.ospt[N]}
         for N in range(ctx.nmax + 1) if other[N] != ctx.ospt[N]),
    )]


def check_symmetrized(ctx: SuiteContext) -> list:
    """Series coefficients equal binomial-weighted table sums."""
    orders = range(1, SYMMETRIZED_ORDER_MAX + 1)
    # every order of one kind in one pass over its table
    sums = {kind: table.symmetrized_moments(orders)
            for kind, table, _, _ in _sides(ctx)}
    return [_verdict(
        "symmetrized-series-vs-table",
        f"r <= {SYMMETRIZED_ORDER_MAX}, N <= {ctx.nmax}, both kinds",
        "binomial sum != series coefficient",
        ({"kind": kind, "r": r, "N": N, "table": t, "series": s}
         for r in orders
         for kind, _, _, sym in _sides(ctx)
         for N, (t, s) in enumerate(zip(sums[kind][r], sym[r]))
         if t != s),
    )]


def check_basis_change(ctx: SuiteContext) -> list:
    """The binomial basis change is exact as polynomials and on moments."""
    orders = range(1, MOMENT_ORDER_MAX + 1)
    return [
        _verdict(
            "basis-change-polynomial",
            f"identity on m in [-20, 20], r <= {MOMENT_ORDER_MAX}",
            "identity fails",
            # m^r = sum_l a_l C(m + floor((l-1)/2), l), a_l from
            # basis_change_coeffs(r) for l < r and a_r = r!
            ({"r": r, "m": m}
             for r, coeffs in zip(orders, map(moments.basis_change_coeffs, orders))
             for m in range(-20, 21)
             if m ** r != sum(c * _signed_binomial(m + (l - 1) // 2, l)
                              for l, c in enumerate([*coeffs, factorial(r)])
                              if c)),
        ),
        _verdict(
            "positive-moment-reconciliation",
            f"table route = series route, r <= {MOMENT_ORDER_MAX}, "
            f"N <= {ctx.nmax}, both kinds",
            "table and series routes disagree",
            ({"kind": kind, "r": r, "N": N, "table": pos[N][r], "series": s}
             for r in orders
             for kind, _, pos, sym in _sides(ctx)
             for N, s in enumerate(moments.positive_from_symmetrized(sym, r))
             if pos[N][r] != s),
        ),
    ]


def _signed_binomial(top: int, k: int) -> int:
    """C(top, k) for k >= 0, extended to negative tops via the falling factorial."""
    num = 1
    for i in range(k):
        num *= top - i
    q, rem = divmod(num, factorial(k))
    if rem:
        raise AssertionError("falling factorial not divisible by k!")
    return q


def check_even_moments(ctx: SuiteContext) -> list:
    """Full even moments are twice the positive ones and exceed rank's."""
    full_crank = ctx.crank_table.full_even_moments_upto(5)
    full_rank = ctx.rank_table.full_even_moments_upto(5)
    return [
        _verdict(
            "even-moment-halving",
            f"full = 2 x positive, r in 2..10 even, N <= {ctx.nmax}",
            "full != 2 x positive",
            ({"kind": kind, "r": 2 * k, "N": N}
             for k in range(1, 6)
             for kind, full, pos in (("crank", full_crank, ctx.pos_crank),
                                     ("rank", full_rank, ctx.pos_rank))
             for N in range(ctx.nmax + 1) if full[N][k] != 2 * pos[N][2 * k]),
        ),
        _verdict(
            "full-even-moment-inequality",
            f"crank > rank for even r <= 10, 1 <= N <= {ctx.nmax}",
            "even crank moment not larger",
            ({"r": 2 * k, "N": N}
             for k in range(1, 6) for N in range(1, ctx.nmax + 1)
             if not full_crank[N][k] > full_rank[N][k]),
        ),
    ]


def check_positive_inequality(ctx: SuiteContext) -> list:
    """Positive crank moments exceed positive rank moments for N >= 2."""
    return [_verdict(
        "positive-moment-inequality",
        f"r <= {MOMENT_ORDER_MAX}, 2 <= N <= {ctx.nmax}", "inequality fails",
        ({"r": r, "N": N}
         for r in range(1, MOMENT_ORDER_MAX + 1) for N in range(2, ctx.nmax + 1)
         if not ctx.pos_crank[N][r] > ctx.pos_rank[N][r]),
    )]


def check_ospt_monotone(ctx: SuiteContext) -> list:
    return [_verdict(
        "ospt-nondecreasing", f"N <= {ctx.nmax}", "ospt decreases",
        ({"N": N, "here": ctx.ospt[N], "next": ctx.ospt[N + 1]}
         for N in range(1, ctx.nmax) if ctx.ospt[N + 1] < ctx.ospt[N]),
    )]


def check_ramanujan(ctx: SuiteContext) -> list:
    p = ctx.partition_counts
    return [_verdict(
        "ramanujan-congruences", f"mod 5/7/11 progressions hold, N <= {ctx.nmax}",
        "p({N}) not divisible by {modulus}",
        ({"N": N, "p": p[N], "modulus": modulus}
         for modulus, offset in ((5, 4), (7, 5), (11, 6))
         for N in range(offset, ctx.nmax + 1, modulus) if p[N] % modulus != 0),
    )]


def check_parity(ctx: SuiteContext) -> list:
    return [
        # the report carries the predictor's value even when the failure is
        # ospt and spt disagreeing, where the predictor is not consulted
        _verdict(
            "parity-predictor",
            f"predictor = ospt mod 2 = spt mod 2, N <= {ctx.nmax}",
            "parity mismatch",
            ({"N": N, "predicted": int(parity.parity_predict(N)),
              "ospt": ctx.ospt[N] % 2, "spt": ctx.spt[N] % 2}
             for N in range(1, ctx.nmax + 1)
             if ctx.ospt[N] % 2 != ctx.spt[N] % 2
             or int(parity.parity_predict(N)) != ctx.ospt[N] % 2),
        ),
        _verdict(
            "moment-parity",
            f"second and first positive moments share parity, N <= {ctx.nmax}",
            "parity link broken",
            ({"kind": kind, "N": N}
             for N in range(1, ctx.nmax + 1)
             for kind, _, pos, _ in _sides(ctx)
             if (pos[N][2] - pos[N][1]) % 2 != 0),
        ),
    ]


ALL_CHECKS = (
    check_tables_vs_brute,
    check_row_structure,
    check_series_basics,
    check_aggregates,
    check_spt_ospt_series_scale,
    check_ospt_numerator,
    check_symmetrized,
    check_basis_change,
    check_even_moments,
    check_positive_inequality,
    check_ospt_monotone,
    check_ramanujan,
    check_parity,
)


def run_suite(nmax: int, brute_nmax: int | None = None,
              ctx: SuiteContext | None = None) -> list:
    """Run every check and return the list of CheckResults."""
    if ctx is None:
        ctx = build_context(nmax, brute_nmax)
    results = []
    for check in ALL_CHECKS:
        results.extend(check(ctx))
    return results


def report_json(results) -> str:
    return json.dumps(
        {
            "passed": all(r.passed for r in results),
            "checks": [r.as_dict() for r in results],
        },
        indent=2,
        sort_keys=True,
    )
