"""The exact identity and inequality suite.

Every check pits two independent routes to the same integers against each
other: generating-function tables against brute-force enumeration,
series-route moments against table-route moments, combinatorial aggregates
against coefficient extraction, and the arithmetic parity predictor
against both.  Checks report the first counterexample they find, so a
failure pinpoints the exact (N, r) where the routes disagree.

``run_suite`` is what the ``verify`` CLI subcommand executes; the heavier
acceptance tests reuse the same context object so the expensive tables
are built once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
        partition_counts=qs.partition_series(nmax).coeffs,
        pos_crank=crank_table.positive_moments_upto(MOMENT_ORDER_MAX),
        pos_rank=rank_table.positive_moments_upto(MOMENT_ORDER_MAX),
        sym_crank=sym_crank,
        sym_rank=sym_rank,
        spt=spt,
        ospt=ospt,
        brute=[partitions.brute_aggregates(N) for N in range(brute_nmax + 1)],
    )


def _ok(name, detail):
    return CheckResult(name, True, detail)


def _fail(name, detail, **ce):
    return CheckResult(name, False, detail, counterexample=ce)


def check_tables_vs_brute(ctx: SuiteContext) -> list:
    """Histogram rows equal brute enumeration; crank N=1 handled explicitly."""
    out = []
    for kind, table in (("crank", ctx.crank_table), ("rank", ctx.rank_table)):
        first_bad = None
        start = 2 if kind == "crank" else 0
        for N in range(start, ctx.brute_nmax + 1):
            if table.distribution(N) != getattr(ctx.brute[N], kind):
                first_bad = N
                break
        if first_bad is None:
            out.append(_ok(
                f"table-vs-brute-{kind}",
                f"rows {start}..{ctx.brute_nmax} match enumeration",
            ))
        else:
            out.append(_fail(
                f"table-vs-brute-{kind}", "histogram mismatch",
                N=first_bad, table=table.distribution(first_bad),
                brute=getattr(ctx.brute[first_bad], kind),
            ))
    # the documented anomalous column
    gf_row = ctx.crank_table.distribution(1) if ctx.nmax >= 1 else None
    comb_row = moments.CrankRankTable.build(
        "crank", 1, moments.COMBINATORIAL
    ).distribution(1)
    raw = ctx.brute[1].crank
    anomaly_ok = (
        gf_row == {-1: 1, 0: -1, 1: 1}
        and comb_row == {0: 1}
        and raw == {-1: 1}
        and ctx.rank_table.distribution(1) == {0: 1}
        and ctx.crank_table.distribution(0) == {0: 1}
    )
    if anomaly_ok:
        out.append(_ok(
            "crank-anomalous-column",
            "N=1: generating function {-1:1,0:-1,1:1}, combinatorial {0:1}, "
            "raw statistic {-1:1}",
        ))
    else:
        out.append(_fail(
            "crank-anomalous-column", "N<=1 conventions broken",
            generating_function=gf_row, combinatorial=comb_row, raw=raw,
        ))
    return out


def check_row_structure(ctx: SuiteContext) -> list:
    """Row sums give p(N); rows are symmetric under m -> -m.

    Both are read off the factorized tables: the weight-1 sum over m is one
    product, and symmetry is numerator column m against column -m.
    """
    out = []
    bad_sum = None
    for kind, table in (("crank", ctx.crank_table), ("rank", ctx.rank_table)):
        sums = table.collapse_marker().coeffs
        if sums != ctx.partition_counts:
            bad_sum = (kind, next(N for N, (a, b) in
                                  enumerate(zip(sums, ctx.partition_counts))
                                  if a != b))
            break
    if bad_sum is None:
        out.append(_ok("row-sums-partition-count",
                       f"both kinds, N <= {ctx.nmax}"))
    else:
        out.append(_fail("row-sums-partition-count", "row sum != p(N)",
                         kind=bad_sum[0], N=bad_sum[1]))
    bad_sym = None
    for kind, table in (("crank", ctx.crank_table), ("rank", ctx.rank_table)):
        N = table.first_asymmetric_row()
        if N is not None:
            bad_sym = (kind, N)
            break
    if bad_sym is None:
        out.append(_ok("row-symmetry", f"both kinds, N <= {ctx.nmax}"))
    else:
        out.append(_fail("row-symmetry", "row not symmetric",
                         kind=bad_sym[0], N=bad_sym[1]))
    return out


def check_series_basics(ctx: SuiteContext) -> list:
    """Euler product inverts the partition series; marker collapse works."""
    out = []
    nm = min(ctx.nmax, 200)
    prod = qs.euler_function(nm) * qs.partition_series(nm)
    if prod.coeffs == [1] + [0] * nm:
        out.append(_ok("euler-product-inverse", f"identity through q^{nm}"))
    else:
        bad = next(i for i, c in enumerate(prod.coeffs)
                   if c != (1 if i == 0 else 0))
        out.append(_fail("euler-product-inverse", "product != 1", n=bad))
    nm2 = min(ctx.nmax, 60)
    ok = True
    for kind in ("crank", "rank"):
        biv = qs.bivariate_series(kind, nm2)
        if biv.collapse_marker().coeffs != qs.partition_series(nm2).coeffs:
            ok = False
            out.append(_fail("marker-collapse", "w=1 collapse != p(N)",
                             kind=kind))
            break
    if ok:
        out.append(_ok("marker-collapse",
                       f"both kinds collapse to p(N) through q^{nm2}"))
    return out


def check_aggregates(ctx: SuiteContext) -> list:
    """spt, ospt, and Durfee totals match their moment expressions."""
    out = []
    bad = {"spt": None, "ospt": None, "durfee": None}
    for N in range(1, ctx.brute_nmax + 1):
        agg = ctx.brute[N]
        spt_mom = ctx.pos_crank[N][2] - ctx.pos_rank[N][2]
        ospt_mom = ctx.pos_crank[N][1] - ctx.pos_rank[N][1]
        if bad["spt"] is None and not (
            agg.spt == spt_mom == ctx.spt[N]
        ):
            bad["spt"] = (N, agg.spt, spt_mom, ctx.spt[N])
        if bad["ospt"] is None and not (
            agg.ospt_strings == ospt_mom == ctx.ospt[N]
        ):
            bad["ospt"] = (N, agg.ospt_strings, ospt_mom, ctx.ospt[N])
        if bad["durfee"] is None and agg.durfee_sum != ctx.pos_crank[N][1]:
            bad["durfee"] = (N, agg.durfee_sum, ctx.pos_crank[N][1])
    if bad["spt"] is None:
        out.append(_ok("spt-three-routes",
                       f"smallest-part totals = M2+ - N2+ = series, "
                       f"N <= {ctx.brute_nmax}"))
    else:
        N, a, b, c = bad["spt"]
        out.append(_fail("spt-three-routes", "spt routes disagree",
                         N=N, brute=a, table=b, series=c))
    if bad["ospt"] is None:
        out.append(_ok("ospt-three-routes",
                       f"string totals = M1+ - N1+ = series, "
                       f"N <= {ctx.brute_nmax}"))
    else:
        N, a, b, c = bad["ospt"]
        out.append(_fail("ospt-three-routes", "ospt routes disagree",
                         N=N, brute=a, table=b, series=c))
    if bad["durfee"] is None:
        out.append(_ok("durfee-first-moment",
                       f"Durfee totals = M1+, N <= {ctx.brute_nmax}"))
    else:
        N, a, b = bad["durfee"]
        out.append(_fail("durfee-first-moment", "Durfee sum != M1+",
                         N=N, brute=a, table=b))
    return out


def check_spt_ospt_series_scale(ctx: SuiteContext) -> list:
    """Table-route moment differences equal the series-route spt/ospt."""
    for N in range(ctx.nmax + 1):
        spt_tab = ctx.pos_crank[N][2] - ctx.pos_rank[N][2]
        ospt_tab = ctx.pos_crank[N][1] - ctx.pos_rank[N][1]
        if spt_tab != ctx.spt[N] or ospt_tab != ctx.ospt[N]:
            return [_fail("spt-ospt-series-scale",
                          "table and series routes disagree", N=N,
                          spt_table=spt_tab, spt_series=ctx.spt[N],
                          ospt_table=ospt_tab, ospt_series=ctx.ospt[N])]
    return [_ok("spt-ospt-series-scale",
                f"table route = series route, N <= {ctx.nmax}")]


def check_ospt_numerator(ctx: SuiteContext) -> list:
    """ospt from the dedicated numerator series equals mu_1 - eta_1."""
    other = moments.ospt_from_numerator(ctx.nmax)
    if other == ctx.ospt:
        return [_ok("ospt-numerator-series",
                    f"numerator route matches, N <= {ctx.nmax}")]
    bad = next(N for N in range(ctx.nmax + 1) if other[N] != ctx.ospt[N])
    return [_fail("ospt-numerator-series", "numerator route disagrees",
                  N=bad, numerator=other[bad], difference=ctx.ospt[bad])]


def check_symmetrized(ctx: SuiteContext) -> list:
    """Series coefficients equal binomial-weighted table sums."""
    for r in range(1, SYMMETRIZED_ORDER_MAX + 1):
        for kind, table, sym in (
            ("crank", ctx.crank_table, ctx.sym_crank[r]),
            ("rank", ctx.rank_table, ctx.sym_rank[r]),
        ):
            sums = table.symmetrized_moments(r)
            for N in range(ctx.nmax + 1):
                if sums[N] != sym[N]:
                    return [_fail(
                        "symmetrized-series-vs-table",
                        "binomial sum != series coefficient",
                        kind=kind, r=r, N=N, table=sums[N], series=sym[N],
                    )]
    return [_ok("symmetrized-series-vs-table",
                f"r <= {SYMMETRIZED_ORDER_MAX}, N <= {ctx.nmax}, both kinds")]


def check_basis_change(ctx: SuiteContext) -> list:
    """The binomial basis change is exact as polynomials and on moments."""
    out = []
    from math import factorial

    bad = None
    for r in range(1, MOMENT_ORDER_MAX + 1):
        coeffs = moments.basis_change_coeffs(r)
        for m in range(-20, 21):
            lhs = m ** r
            rhs = factorial(r) * _signed_binomial(m + (r - 1) // 2, r)
            for l in range(r):
                if coeffs[l]:
                    off = (l - 1) // 2
                    rhs += coeffs[l] * _signed_binomial(m + off, l)
            if lhs != rhs:
                bad = (r, m)
                break
        if bad:
            break
    if bad is None:
        out.append(_ok("basis-change-polynomial",
                       f"identity on m in [-20, 20], r <= {MOMENT_ORDER_MAX}"))
    else:
        out.append(_fail("basis-change-polynomial", "identity fails",
                         r=bad[0], m=bad[1]))
    bad = None
    for r in range(1, MOMENT_ORDER_MAX + 1):
        for side, pos, sym in (
            ("crank", ctx.pos_crank, ctx.sym_crank),
            ("rank", ctx.pos_rank, ctx.sym_rank),
        ):
            want = moments.positive_from_symmetrized(sym, r)
            for N in range(ctx.nmax + 1):
                if pos[N][r] != want[N]:
                    bad = (side, r, N, pos[N][r], want[N])
                    break
            if bad:
                break
        if bad:
            break
    if bad is None:
        out.append(_ok("positive-moment-reconciliation",
                       f"table route = series route, r <= {MOMENT_ORDER_MAX}, "
                       f"N <= {ctx.nmax}, both kinds"))
    else:
        out.append(_fail("positive-moment-reconciliation",
                         "table and series routes disagree",
                         kind=bad[0], r=bad[1], N=bad[2],
                         table=bad[3], series=bad[4]))
    return out


def _signed_binomial(top: int, k: int) -> int:
    """C(top, k) extended to negative tops via the falling factorial."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= top - i
    from math import factorial

    q, rem = divmod(num, factorial(k))
    if rem:
        raise AssertionError("falling factorial not divisible by k!")
    return q


def check_even_moments(ctx: SuiteContext) -> list:
    """Full even moments are twice the positive ones and exceed rank's."""
    out = []
    full_crank = ctx.crank_table.full_even_moments_upto(5)
    full_rank = ctx.rank_table.full_even_moments_upto(5)
    bad = None
    for k in range(1, 6):
        for kind, full, pos in (
            ("crank", full_crank, ctx.pos_crank),
            ("rank", full_rank, ctx.pos_rank),
        ):
            for N in range(ctx.nmax + 1):
                if full[N][k] != 2 * pos[N][2 * k]:
                    bad = (kind, 2 * k, N)
                    break
            if bad:
                break
        if bad:
            break
    if bad is None:
        out.append(_ok("even-moment-halving",
                       f"full = 2 x positive, r in 2..10 even, N <= {ctx.nmax}"))
    else:
        out.append(_fail("even-moment-halving", "full != 2 x positive",
                         kind=bad[0], r=bad[1], N=bad[2]))
    bad = None
    for k in range(1, 6):
        for N in range(1, ctx.nmax + 1):
            if not full_crank[N][k] > full_rank[N][k]:
                bad = (2 * k, N)
                break
        if bad:
            break
    if bad is None:
        out.append(_ok("full-even-moment-inequality",
                       f"crank > rank for even r <= 10, 1 <= N <= {ctx.nmax}"))
    else:
        out.append(_fail("full-even-moment-inequality",
                         "even crank moment not larger", r=bad[0], N=bad[1]))
    return out


def check_positive_inequality(ctx: SuiteContext) -> list:
    """Positive crank moments exceed positive rank moments for N >= 2."""
    bad = None
    for r in range(1, MOMENT_ORDER_MAX + 1):
        for N in range(2, ctx.nmax + 1):
            if not ctx.pos_crank[N][r] > ctx.pos_rank[N][r]:
                bad = (r, N)
                break
        if bad:
            break
    if bad is None:
        return [_ok("positive-moment-inequality",
                    f"r <= {MOMENT_ORDER_MAX}, 2 <= N <= {ctx.nmax}")]
    return [_fail("positive-moment-inequality", "inequality fails",
                  r=bad[0], N=bad[1])]


def check_ospt_monotone(ctx: SuiteContext) -> list:
    for N in range(1, ctx.nmax):
        if ctx.ospt[N + 1] < ctx.ospt[N]:
            return [_fail("ospt-nondecreasing", "ospt decreases",
                          N=N, here=ctx.ospt[N], next=ctx.ospt[N + 1])]
    return [_ok("ospt-nondecreasing", f"N <= {ctx.nmax}")]


def check_ramanujan(ctx: SuiteContext) -> list:
    p = ctx.partition_counts
    for modulus, offset in ((5, 4), (7, 5), (11, 6)):
        for N in range(offset, ctx.nmax + 1, modulus):
            if p[N] % modulus != 0:
                return [_fail("ramanujan-congruences",
                              f"p({N}) not divisible by {modulus}",
                              N=N, p=p[N], modulus=modulus)]
    return [_ok("ramanujan-congruences",
                f"mod 5/7/11 progressions hold, N <= {ctx.nmax}")]


def check_parity(ctx: SuiteContext) -> list:
    out = []
    bad = None
    for N in range(1, ctx.nmax + 1):
        if ctx.ospt[N] % 2 != ctx.spt[N] % 2:
            bad = N
            break
        if int(parity.parity_predict(N)) != ctx.ospt[N] % 2:
            bad = N
            break
    if bad is None:
        out.append(_ok("parity-predictor",
                       f"predictor = ospt mod 2 = spt mod 2, N <= {ctx.nmax}"))
    else:
        out.append(_fail("parity-predictor", "parity mismatch", N=bad,
                         predicted=int(parity.parity_predict(bad)),
                         ospt=ctx.ospt[bad] % 2, spt=ctx.spt[bad] % 2))
    bad = None
    for N in range(1, ctx.nmax + 1):
        if (ctx.pos_crank[N][2] - ctx.pos_crank[N][1]) % 2 != 0:
            bad = ("crank", N)
            break
        if (ctx.pos_rank[N][2] - ctx.pos_rank[N][1]) % 2 != 0:
            bad = ("rank", N)
            break
    if bad is None:
        out.append(_ok("moment-parity",
                       f"second and first positive moments share parity, "
                       f"N <= {ctx.nmax}"))
    else:
        out.append(_fail("moment-parity", "parity link broken",
                         kind=bad[0], N=bad[1]))
    return out


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
