import json

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


def test_failure_detection():
    # corrupt one table entry and watch the right check trip
    ctx = vr.build_context(20)
    ctx.crank_table.rows[5][5 + 2] += 1  # M(2, 5) off by one
    results = []
    results.extend(vr.check_tables_vs_brute(ctx))
    results.extend(vr.check_row_structure(ctx))
    failed = {r.name for r in results if not r.passed}
    assert "table-vs-brute-crank" in failed
    assert "row-sums-partition-count" in failed
    assert "row-symmetry" in failed
    bad = next(r for r in results if r.name == "table-vs-brute-crank")
    assert bad.counterexample is not None


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
