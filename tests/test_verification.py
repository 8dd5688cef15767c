import json

from crankrank import moments
from crankrank import series as qs
from crankrank import verification as vr


def test_small_suite_all_pass():
    results = vr.run_suite(30)
    assert results
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing


def test_context_reuse():
    ctx = vr.build_context(25)
    a = vr.run_suite(25, ctx=ctx)
    b = vr.run_suite(25, ctx=ctx)
    assert [r.name for r in a] == [r.name for r in b]


def test_report_json_round_trip():
    results = vr.run_suite(20)
    data = json.loads(vr.report_json(results))
    assert data["passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert "positive-moment-inequality" in names
    assert "crank-anomalous-column" in names


def _with_extra_monomial(ctx, kind, q0, m):
    """Swap ctx's ``kind`` table for one whose numerator has one more monomial q^q0 w^m.

    The histogram then gains p(N - q0) at (m, N) for every N >= q0; the
    bulk moments already stored in ctx keep the correct values.
    """
    entries = [*qs.numerator_entries(kind, ctx.nmax), (q0, m, 1)]
    table = moments.CrankRankTable(kind, qs.numerator_columns(entries),
                                   qs.partition_series(ctx.nmax))
    setattr(ctx, f"{kind}_table", table)


def test_failure_detection():
    # one extra crank numerator monomial q^5 w^2: M(2, N) off by p(N-5)
    ctx = vr.build_context(20)
    _with_extra_monomial(ctx, "crank", 5, 2)
    results = []
    results.extend(vr.check_tables_vs_brute(ctx))
    results.extend(vr.check_row_structure(ctx))
    failed = {r.name: r.counterexample for r in results if not r.passed}
    assert failed == {
        "table-vs-brute-crank": {
            "N": 5,
            "table": {-5: 1, -3: 1, -1: 1, 0: 1, 1: 1, 2: 1, 3: 1, 5: 1},
            "brute": {-5: 1, -3: 1, -1: 1, 0: 1, 1: 1, 3: 1, 5: 1},
        },
        "row-sums-partition-count": {"kind": "crank", "N": 5},
        "row-symmetry": {"kind": "crank", "N": 5},
    }


def test_symmetrized_failure_detection():
    # M(3, N) of rank off by p(N-7): the order-1 sum is 3 too large at N=7
    ctx = vr.build_context(30, 10)
    _with_extra_monomial(ctx, "rank", 7, 3)
    [bad] = vr.check_symmetrized(ctx)
    assert bad.as_dict() == {
        "name": "symmetrized-series-vs-table", "passed": False,
        "detail": "binomial sum != series coefficient",
        "counterexample": {"kind": "rank", "r": "1", "N": "7",
                           "table": "21", "series": "18"},
    }


def test_even_moment_failure_detection():
    # M(-2, N) of crank off by p(N-6): only the negative half moves
    ctx = vr.build_context(30, 10)
    _with_extra_monomial(ctx, "crank", 6, -2)
    results = {r.name: r for r in vr.check_even_moments(ctx)}
    bad = results["even-moment-halving"]
    assert not bad.passed
    assert bad.counterexample == {"kind": "crank", "r": 2, "N": 6}
    assert results["full-even-moment-inequality"].passed


def test_aggregate_failure_detection():
    ctx = vr.build_context(20)
    ctx.spt[7] += 1
    results = {r.name: r for r in vr.check_aggregates(ctx)}
    assert not results["spt-three-routes"].passed
    assert results["spt-three-routes"].counterexample["N"] == 7
    assert results["ospt-three-routes"].passed
    assert results["durfee-first-moment"].passed


def test_reconciliation_failure_detection():
    ctx = vr.build_context(30, 10)
    ctx.sym_crank[3][17] += 1
    results = {r.name: r for r in vr.check_basis_change(ctx)}
    bad = results["positive-moment-reconciliation"]
    assert not bad.passed
    assert bad.counterexample["kind"] == "crank"
    assert bad.counterexample["r"] == 3
    assert bad.counterexample["N"] == 17
    assert results["basis-change-polynomial"].passed


def test_brute_cap_respected():
    ctx = vr.build_context(20, brute_nmax=10)
    assert ctx.brute_nmax == 10
    assert len(ctx.brute) == 11


def test_brute_range_always_covers_n1():
    ctx = vr.build_context(5, brute_nmax=0)
    assert ctx.brute_nmax == 1
    assert all(r.passed for r in vr.run_suite(5, ctx=ctx))
