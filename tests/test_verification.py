import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crankrank import cli, moments, parity
from crankrank import series as qs
from crankrank import verification as vr


def test_small_suite_all_pass():
    results = vr.run_suite(vr.build_context(30))
    assert results
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing


def test_context_reuse():
    ctx = vr.build_context(25)
    a = vr.run_suite(ctx)
    b = vr.run_suite(ctx)
    assert [r.name for r in a] == [r.name for r in b]


def test_report_json_round_trip():
    results = vr.run_suite(vr.build_context(20))
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
                                   ctx.nmax)
    setattr(ctx, f"{kind}_table", table)


def _replace_brute(ctx, N, **fields):
    ctx.brute[N] = ctx.brute[N]._replace(**fields)


def _bump(values, index):
    values[index] += 1


def _patch_result(monkeypatch, owner, attr, change):
    """Route ``owner.attr``'s result through ``change(result, *args)``."""
    real = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *args: change(real(*args), *args))


def _euler_plus_q5(series, nmax):
    return qs.ExactSeries([c + (i == 5) for i, c in enumerate(series.coeffs)])


def _rank_plus_q3(columns, kind, nmax):
    if kind != "rank":
        return columns
    entries = [*qs.numerator_entries(kind, nmax), (3, 0, 1)]
    return qs.numerator_columns(entries)


def _rank_ties_crank(ctx, monkeypatch, r, N):
    """Route the rank table's full even moments through a patch that sets
    order r at N to the crank table's value, so crank > rank fails there."""
    crank = ctx.crank_table.full_even_moments_upto(5)[r][N]

    def tie(full, k_max):
        full[r][N] = crank
        return full

    _patch_result(monkeypatch, ctx.rank_table, "full_even_moments_upto", tie)


def _basis_r4_shifted(coeffs, r):
    return [c + (r == 4 and l == 2) for l, c in enumerate(coeffs)]


def _predict_flipped_at_14(predicted, N):
    return predicted != (N == 14)


def _failure(corrupt, name, detail, counterexample, line, id=None):
    return pytest.param(
        corrupt,
        {"name": name, "passed": False, "detail": detail,
         "counterexample": counterexample},
        line,
        id=id or name,
    )


# One case per CheckResult name: the corruption, the full as_dict() of the
# failing result, and the line `verify` prints for it (the counterexample
# dict's repr, in its key order).  All 23 at build_context(30, 10).
FAILURE_REPORTS = [
    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "crank", 5, 2),
        "table-vs-brute-crank", "histogram mismatch",
        {"N": "5",
         "table": "{-5: 1, -3: 1, -1: 1, 0: 1, 1: 1, 2: 1, 3: 1, 5: 1}",
         "brute": "{-5: 1, -3: 1, 1: 1, -1: 1, 3: 1, 0: 1, 5: 1}"},
        "FAIL table-vs-brute-crank: histogram mismatch | first counterexample: "
        "{'N': 5, 'table': {-5: 1, -3: 1, -1: 1, 0: 1, 1: 1, 2: 1, 3: 1, 5: 1}, "
        "'brute': {-5: 1, -3: 1, 1: 1, -1: 1, 3: 1, 0: 1, 5: 1}}",
    ),
    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "rank", 7, 3),
        "table-vs-brute-rank", "histogram mismatch",
        {"N": "7",
         "table": "{-6: 1, -4: 1, -3: 1, -2: 2, -1: 1, 0: 3, 1: 1, 2: 2, "
                  "3: 2, 4: 1, 6: 1}",
         "brute": "{-6: 1, -4: 1, -3: 1, -2: 2, -1: 1, 0: 3, 1: 1, 2: 2, "
                  "3: 1, 4: 1, 6: 1}"},
        "FAIL table-vs-brute-rank: histogram mismatch | first counterexample: "
        "{'N': 7, 'table': {-6: 1, -4: 1, -3: 1, -2: 2, -1: 1, 0: 3, 1: 1, "
        "2: 2, 3: 2, 4: 1, 6: 1}, 'brute': {-6: 1, -4: 1, -3: 1, -2: 2, "
        "-1: 1, 0: 3, 1: 1, 2: 2, 3: 1, 4: 1, 6: 1}}",
    ),
    _failure(
        lambda ctx, mp: _replace_brute(ctx, 1, crank={1: 1}),
        "crank-anomalous-column", "N<=1 conventions broken",
        {"generating_function": "{-1: 1, 0: -1, 1: 1}",
         "combinatorial": "{0: 1}", "raw": "{1: 1}"},
        "FAIL crank-anomalous-column: N<=1 conventions broken | first "
        "counterexample: {'generating_function': {-1: 1, 0: -1, 1: 1}, "
        "'combinatorial': {0: 1}, 'raw': {1: 1}}",
    ),
    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "rank", 4, 0),
        "row-sums-partition-count", "row sum != p(N)",
        {"kind": "rank", "N": "4"},
        "FAIL row-sums-partition-count: row sum != p(N) | first "
        "counterexample: {'kind': 'rank', 'N': 4}",
    ),
    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "rank", 9, 4),
        "row-symmetry", "row not symmetric",
        {"kind": "rank", "N": "9"},
        "FAIL row-symmetry: row not symmetric | first counterexample: "
        "{'kind': 'rank', 'N': 9}",
    ),
    _failure(
        lambda ctx, mp: _patch_result(mp, qs, "euler_function", _euler_plus_q5),
        "euler-product-inverse", "product != 1",
        {"n": "5"},
        "FAIL euler-product-inverse: product != 1 | first counterexample: "
        "{'n': 5}",
    ),
    _failure(
        lambda ctx, mp: _patch_result(mp, qs, "bivariate_series", _rank_plus_q3),
        "marker-collapse", "w=1 collapse != p(N)",
        {"kind": "rank"},
        "FAIL marker-collapse: w=1 collapse != p(N) | first counterexample: "
        "{'kind': 'rank'}",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.sym_rank[4], 11),
        "family-times-euler", "family x (q;q)_inf != Appell sums",
        {"kind": "rank", "n": "11", "product": "4678", "appell": "4677"},
        "FAIL family-times-euler: family x (q;q)_inf != Appell sums | first "
        "counterexample: {'kind': 'rank', 'n': 11, 'product': 4678, "
        "'appell': 4677}",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.spt, 7),
        "spt-three-routes", "spt routes disagree",
        {"N": "7", "brute": "35", "table": "35", "series": "36"},
        "FAIL spt-three-routes: spt routes disagree | first counterexample: "
        "{'N': 7, 'brute': 35, 'table': 35, 'series': 36}",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.ospt, 6),
        "ospt-three-routes", "ospt routes disagree",
        {"N": "6", "brute": "4", "table": "4", "series": "5"},
        "FAIL ospt-three-routes: ospt routes disagree | first counterexample: "
        "{'N': 6, 'brute': 4, 'table': 4, 'series': 5}",
    ),
    _failure(
        lambda ctx, mp: _replace_brute(ctx, 8,
                                       durfee_sum=ctx.brute[8].durfee_sum + 1),
        "durfee-first-moment", "Durfee sum != M1+",
        {"N": "8", "brute": "37", "table": "36"},
        "FAIL durfee-first-moment: Durfee sum != M1+ | first counterexample: "
        "{'N': 8, 'brute': 37, 'table': 36}",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.ospt, 25),
        "spt-ospt-series-scale", "table and series routes disagree",
        {"N": "25", "spt_table": "8263", "spt_series": "8263",
         "ospt_table": "563", "ospt_series": "564"},
        "FAIL spt-ospt-series-scale: table and series routes disagree | first "
        "counterexample: {'N': 25, 'spt_table': 8263, 'spt_series': 8263, "
        "'ospt_table': 563, 'ospt_series': 564}",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.ospt, 20),
        "ospt-numerator-series", "numerator route disagrees",
        {"N": "20", "numerator": "183", "difference": "184"},
        "FAIL ospt-numerator-series: numerator route disagrees | first "
        "counterexample: {'N': 20, 'numerator': 183, 'difference': 184}",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.sym_rank[2], 13),
        "symmetrized-series-vs-table", "binomial sum != series coefficient",
        {"kind": "rank", "r": "2", "N": "13", "table": "411", "series": "412"},
        "FAIL symmetrized-series-vs-table: binomial sum != series coefficient "
        "| first counterexample: {'kind': 'rank', 'r': 2, 'N': 13, "
        "'table': 411, 'series': 412}",
    ),
    _failure(
        lambda ctx, mp: _patch_result(mp, moments, "basis_change_coeffs",
                                      _basis_r4_shifted),
        "basis-change-polynomial", "identity fails",
        {"r": "4", "m": "-20"},
        "FAIL basis-change-polynomial: identity fails | first counterexample: "
        "{'r': 4, 'm': -20}",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.sym_crank[3], 17),
        "positive-moment-reconciliation", "table and series routes disagree",
        {"kind": "crank", "r": "3", "N": "17", "table": "46555",
         "series": "46561"},
        "FAIL positive-moment-reconciliation: table and series routes disagree "
        "| first counterexample: {'kind': 'crank', 'r': 3, 'N': 17, "
        "'table': 46555, 'series': 46561}",
    ),
    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "crank", 6, -2),
        "even-moment-halving", "full != 2 x positive",
        {"kind": "crank", "r": "2", "N": "6"},
        "FAIL even-moment-halving: full != 2 x positive | first "
        "counterexample: {'kind': 'crank', 'r': 2, 'N': 6}",
    ),
    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "rank", 1, 3),
        "full-even-moment-inequality", "even crank moment not larger",
        {"r": "2", "N": "1"},
        "FAIL full-even-moment-inequality: even crank moment not larger | "
        "first counterexample: {'r': 2, 'N': 1}",
    ),
    _failure(
        lambda ctx, mp: ctx.pos_rank[15].__setitem__(4, ctx.pos_crank[15][4]),
        "positive-moment-inequality", "inequality fails",
        {"r": "4", "N": "15"},
        "FAIL positive-moment-inequality: inequality fails | first "
        "counterexample: {'r': 4, 'N': 15}",
    ),
    _failure(
        lambda ctx, mp: ctx.ospt.__setitem__(12, ctx.ospt[13] + 1),
        "ospt-nondecreasing", "ospt decreases",
        {"N": "12", "here": "32", "next": "31"},
        "FAIL ospt-nondecreasing: ospt decreases | first counterexample: "
        "{'N': 12, 'here': 32, 'next': 31}",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.partition_counts, 17),
        "ramanujan-congruences", "p(17) not divisible by 11",
        {"N": "17", "p": "298", "modulus": "11"},
        "FAIL ramanujan-congruences: p(17) not divisible by 11 | first "
        "counterexample: {'N': 17, 'p': 298, 'modulus': 11}",
    ),
    # spt(9) made odd: ospt and spt disagree, and the report still carries
    # the predictor's value
    _failure(
        lambda ctx, mp: _bump(ctx.spt, 9),
        "parity-predictor", "parity mismatch",
        {"N": "9", "predicted": "0", "ospt": "0", "spt": "1"},
        "FAIL parity-predictor: parity mismatch | first counterexample: "
        "{'N': 9, 'predicted': 0, 'ospt': 0, 'spt': 1}",
        id="parity-predictor-spt",
    ),
    _failure(
        lambda ctx, mp: _patch_result(mp, parity, "parity_predict",
                                      _predict_flipped_at_14),
        "parity-predictor", "parity mismatch",
        {"N": "14", "predicted": "1", "ospt": "0", "spt": "0"},
        "FAIL parity-predictor: parity mismatch | first counterexample: "
        "{'N': 14, 'predicted': 1, 'ospt': 0, 'spt': 0}",
        id="parity-predictor-predictor",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.pos_rank[11], 2),
        "moment-parity", "parity link broken",
        {"kind": "rank", "N": "11"},
        "FAIL moment-parity: parity link broken | first counterexample: "
        "{'kind': 'rank', 'N': 11}",
    ),
]


# Failures planted at the first and the last index of the range a check's
# detail states, so that a check which skips either end is caught; also at
# build_context(30, 10).
RANGE_REPORTS = [
    _failure(
        lambda ctx, mp: ctx.pos_rank[2].__setitem__(1, ctx.pos_crank[2][1]),
        "positive-moment-inequality", "inequality fails",
        {"r": "1", "N": "2"},
        "FAIL positive-moment-inequality: inequality fails | first "
        "counterexample: {'r': 1, 'N': 2}",
        id="positive-moment-inequality-first",
    ),
    _failure(
        lambda ctx, mp: ctx.pos_rank[30].__setitem__(10, ctx.pos_crank[30][10]),
        "positive-moment-inequality", "inequality fails",
        {"r": "10", "N": "30"},
        "FAIL positive-moment-inequality: inequality fails | first "
        "counterexample: {'r': 10, 'N': 30}",
        id="positive-moment-inequality-last",
    ),
    _failure(
        lambda ctx, mp: ctx.ospt.__setitem__(1, ctx.ospt[2] + 1),
        "ospt-nondecreasing", "ospt decreases",
        {"N": "1", "here": "2", "next": "1"},
        "FAIL ospt-nondecreasing: ospt decreases | first counterexample: "
        "{'N': 1, 'here': 2, 'next': 1}",
        id="ospt-nondecreasing-first",
    ),
    _failure(
        lambda ctx, mp: ctx.ospt.__setitem__(29, ctx.ospt[30] + 1),
        "ospt-nondecreasing", "ospt decreases",
        {"N": "29", "here": "1588", "next": "1587"},
        "FAIL ospt-nondecreasing: ospt decreases | first counterexample: "
        "{'N': 29, 'here': 1588, 'next': 1587}",
        id="ospt-nondecreasing-last",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.ospt, 1),
        "parity-predictor", "parity mismatch",
        {"N": "1", "predicted": "1", "ospt": "0", "spt": "1"},
        "FAIL parity-predictor: parity mismatch | first counterexample: "
        "{'N': 1, 'predicted': 1, 'ospt': 0, 'spt': 1}",
        id="parity-predictor-first",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.spt, 30),
        "parity-predictor", "parity mismatch",
        {"N": "30", "predicted": "1", "ospt": "1", "spt": "0"},
        "FAIL parity-predictor: parity mismatch | first counterexample: "
        "{'N': 30, 'predicted': 1, 'ospt': 1, 'spt': 0}",
        id="parity-predictor-last",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.pos_crank[1], 2),
        "moment-parity", "parity link broken",
        {"kind": "crank", "N": "1"},
        "FAIL moment-parity: parity link broken | first counterexample: "
        "{'kind': 'crank', 'N': 1}",
        id="moment-parity-first",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.pos_rank[30], 1),
        "moment-parity", "parity link broken",
        {"kind": "rank", "N": "30"},
        "FAIL moment-parity: parity link broken | first counterexample: "
        "{'kind': 'rank', 'N': 30}",
        id="moment-parity-last",
    ),    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "crank", 2, 1),
        "table-vs-brute-crank", "histogram mismatch",
        {"N": "2", "table": "{-2: 1, 1: 1, 2: 1}", "brute": "{-2: 1, 2: 1}"},
        "FAIL table-vs-brute-crank: histogram mismatch | first counterexample: "
        "{'N': 2, 'table': {-2: 1, 1: 1, 2: 1}, 'brute': {-2: 1, 2: 1}}",
        id="table-vs-brute-crank-first",
    ),
    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "crank", 10, 0),
        "table-vs-brute-crank", "histogram mismatch",
        {"N": "10",
         "table": "{-10: 1, -8: 1, -7: 1, -6: 2, -5: 2, -4: 3, -3: 2, -2: 4, "
                  "-1: 3, 0: 5, 1: 3, 2: 4, 3: 2, 4: 3, 5: 2, 6: 2, 7: 1, "
                  "8: 1, 10: 1}",
         "brute": "{-10: 1, -8: 1, -6: 2, -4: 3, -2: 4, 2: 4, -7: 1, -5: 2, "
                  "-3: 2, 3: 2, 0: 4, -1: 3, 4: 3, 5: 2, 1: 3, 6: 2, 7: 1, "
                  "8: 1, 10: 1}"},
        "FAIL table-vs-brute-crank: histogram mismatch | first counterexample: "
        "{'N': 10, 'table': {-10: 1, -8: 1, -7: 1, -6: 2, -5: 2, -4: 3, "
        "-3: 2, -2: 4, -1: 3, 0: 5, 1: 3, 2: 4, 3: 2, 4: 3, 5: 2, 6: 2, 7: 1, "
        "8: 1, 10: 1}, 'brute': {-10: 1, -8: 1, -6: 2, -4: 3, -2: 4, 2: 4, "
        "-7: 1, -5: 2, -3: 2, 3: 2, 0: 4, -1: 3, 4: 3, 5: 2, 1: 3, 6: 2, "
        "7: 1, 8: 1, 10: 1}}",
        id="table-vs-brute-crank-last",
    ),
    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "rank", 0, 0),
        "table-vs-brute-rank", "histogram mismatch",
        {"N": "0", "table": "{0: 2}", "brute": "{0: 1}"},
        "FAIL table-vs-brute-rank: histogram mismatch | first counterexample: "
        "{'N': 0, 'table': {0: 2}, 'brute': {0: 1}}",
        id="table-vs-brute-rank-first",
    ),
    _failure(
        lambda ctx, mp: _with_extra_monomial(ctx, "rank", 10, 2),
        "table-vs-brute-rank", "histogram mismatch",
        {"N": "10",
         "table": "{-9: 1, -7: 1, -6: 1, -5: 2, -4: 2, -3: 4, -2: 3, -1: 5, "
                  "0: 4, 1: 5, 2: 4, 3: 4, 4: 2, 5: 2, 6: 1, 7: 1, 9: 1}",
         "brute": "{-9: 1, -7: 1, -6: 1, -5: 2, -4: 2, -3: 4, -2: 3, -1: 5, "
                  "0: 4, 1: 5, 2: 3, 3: 4, 4: 2, 5: 2, 6: 1, 7: 1, 9: 1}"},
        "FAIL table-vs-brute-rank: histogram mismatch | first counterexample: "
        "{'N': 10, 'table': {-9: 1, -7: 1, -6: 1, -5: 2, -4: 2, -3: 4, "
        "-2: 3, -1: 5, 0: 4, 1: 5, 2: 4, 3: 4, 4: 2, 5: 2, 6: 1, 7: 1, "
        "9: 1}, 'brute': {-9: 1, -7: 1, -6: 1, -5: 2, -4: 2, -3: 4, -2: 3, "
        "-1: 5, 0: 4, 1: 5, 2: 3, 3: 4, 4: 2, 5: 2, 6: 1, 7: 1, 9: 1}}",
        id="table-vs-brute-rank-last",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.pos_crank[0], 1),
        "positive-moment-reconciliation", "table and series routes disagree",
        {"kind": "crank", "r": "1", "N": "0", "table": "1", "series": "0"},
        "FAIL positive-moment-reconciliation: table and series routes disagree "
        "| first counterexample: {'kind': 'crank', 'r': 1, 'N': 0, "
        "'table': 1, 'series': 0}",
        id="positive-moment-reconciliation-first",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.pos_rank[30], 10),
        "positive-moment-reconciliation", "table and series routes disagree",
        {"kind": "rank", "r": "10", "N": "30", "table": "1795206677587228",
         "series": "1795206677587227"},
        "FAIL positive-moment-reconciliation: table and series routes disagree "
        "| first counterexample: {'kind': 'rank', 'r': 10, 'N': 30, "
        "'table': 1795206677587228, 'series': 1795206677587227}",
        id="positive-moment-reconciliation-last",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.pos_crank[0], 2),
        "even-moment-halving", "full != 2 x positive",
        {"kind": "crank", "r": "2", "N": "0"},
        "FAIL even-moment-halving: full != 2 x positive | first "
        "counterexample: {'kind': 'crank', 'r': 2, 'N': 0}",
        id="even-moment-halving-first",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.pos_rank[30], 10),
        "even-moment-halving", "full != 2 x positive",
        {"kind": "rank", "r": "10", "N": "30"},
        "FAIL even-moment-halving: full != 2 x positive | first "
        "counterexample: {'kind': 'rank', 'r': 10, 'N': 30}",
        id="even-moment-halving-last",
    ),
    _failure(
        lambda ctx, mp: _rank_ties_crank(ctx, mp, 2, 1),
        "full-even-moment-inequality", "even crank moment not larger",
        {"r": "2", "N": "1"},
        "FAIL full-even-moment-inequality: even crank moment not larger | "
        "first counterexample: {'r': 2, 'N': 1}",
        id="full-even-moment-inequality-first",
    ),
    _failure(
        lambda ctx, mp: _rank_ties_crank(ctx, mp, 10, 30),
        "full-even-moment-inequality", "even crank moment not larger",
        {"r": "10", "N": "30"},
        "FAIL full-even-moment-inequality: even crank moment not larger | "
        "first counterexample: {'r': 10, 'N': 30}",
        id="full-even-moment-inequality-last",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.ospt, 0),
        "spt-ospt-series-scale", "table and series routes disagree",
        {"N": "0", "spt_table": "0", "spt_series": "0", "ospt_table": "0",
         "ospt_series": "1"},
        "FAIL spt-ospt-series-scale: table and series routes disagree | first "
        "counterexample: {'N': 0, 'spt_table': 0, 'spt_series': 0, "
        "'ospt_table': 0, 'ospt_series': 1}",
        id="spt-ospt-series-scale-first",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.spt, 30),
        "spt-ospt-series-scale", "table and series routes disagree",
        {"N": "30", "spt_table": "25773", "spt_series": "25774",
         "ospt_table": "1587", "ospt_series": "1587"},
        "FAIL spt-ospt-series-scale: table and series routes disagree | first "
        "counterexample: {'N': 30, 'spt_table': 25773, 'spt_series': 25774, "
        "'ospt_table': 1587, 'ospt_series': 1587}",
        id="spt-ospt-series-scale-last",
    ),
    _failure(
        lambda ctx, mp: _replace_brute(ctx, 1,
                                       durfee_sum=ctx.brute[1].durfee_sum + 1),
        "durfee-first-moment", "Durfee sum != M1+",
        {"N": "1", "brute": "2", "table": "1"},
        "FAIL durfee-first-moment: Durfee sum != M1+ | first counterexample: "
        "{'N': 1, 'brute': 2, 'table': 1}",
        id="durfee-first-moment-first",
    ),
    _failure(
        lambda ctx, mp: _replace_brute(ctx, 10,
                                       durfee_sum=ctx.brute[10].durfee_sum + 1),
        "durfee-first-moment", "Durfee sum != M1+",
        {"N": "10", "brute": "77", "table": "76"},
        "FAIL durfee-first-moment: Durfee sum != M1+ | first counterexample: "
        "{'N': 10, 'brute': 77, 'table': 76}",
        id="durfee-first-moment-last",
    ),
    # the first N of the first progression (5N + 4) and the largest N read,
    # 29, also of that progression: no progression reaches N = 30
    _failure(
        lambda ctx, mp: _bump(ctx.partition_counts, 4),
        "ramanujan-congruences", "p(4) not divisible by 5",
        {"N": "4", "p": "6", "modulus": "5"},
        "FAIL ramanujan-congruences: p(4) not divisible by 5 | first "
        "counterexample: {'N': 4, 'p': 6, 'modulus': 5}",
        id="ramanujan-congruences-first",
    ),
    _failure(
        lambda ctx, mp: _bump(ctx.partition_counts, 29),
        "ramanujan-congruences", "p(29) not divisible by 5",
        {"N": "29", "p": "4566", "modulus": "5"},
        "FAIL ramanujan-congruences: p(29) not divisible by 5 | first "
        "counterexample: {'N': 29, 'p': 4566, 'modulus': 5}",
        id="ramanujan-congruences-last",
    ),
]


@pytest.mark.parametrize("corrupt, expected, line",
                         FAILURE_REPORTS + RANGE_REPORTS)
def test_failure_report(corrupt, expected, line, monkeypatch, capsys):
    ctx = vr.build_context(30, 10)
    corrupt(ctx, monkeypatch)
    [result] = [r for r in vr.run_suite(ctx)
                if r.name == expected["name"]]
    assert result.as_dict() == expected
    monkeypatch.setattr(vr, "build_context", lambda *args: ctx)
    assert cli.main(["verify", "--nmax", "30"]) == 2
    assert line in capsys.readouterr().out.splitlines()


def test_failure_reports_cover_every_result():
    names = {case.values[1]["name"] for case in FAILURE_REPORTS}
    assert names == {r.name for r in vr.run_suite(vr.build_context(5))}
    assert len(names) == 23


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
    with pytest.raises(AttributeError):
        bad.passed = True


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


def test_context_builds_partition_counts_once(monkeypatch):
    # partition_counts is the run's one recurrence; no table builds p
    built = []
    real = qs.partition_series
    monkeypatch.setattr(qs, "partition_series",
                        lambda *args: built.append(args) or real(*args))
    ctx = vr.build_context(30, 10)
    assert built == [(30,)]
    assert ctx.partition_counts == real(30).coeffs
    built.clear()
    moments.CrankRankTable.build("crank", 30)
    qs.bivariate_series("rank", 30)
    assert built == []


def test_brute_cap_respected():
    ctx = vr.build_context(20, brute_nmax=10)
    assert ctx.brute_nmax == 10
    assert len(ctx.brute) == 11


def test_brute_range_always_covers_n1():
    ctx = vr.build_context(5, brute_nmax=0)
    assert ctx.brute_nmax == 1
    assert all(r.passed for r in vr.run_suite(ctx))


_BENCHMARK_HOOKS_PROBE = """
import run, spans
from crankrank import verification
spans.install(spans.Recorder())
assert [c.__name__ for c in verification.ALL_CHECKS] == list(run.SUITE_CHECKS)
"""


def test_benchmark_hooks_resolve():
    # perfbench wraps each check by name and lists ALL_CHECKS in order; a
    # renamed or deleted name breaks traced benchmark runs
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    done = subprocess.run([sys.executable, "-c", _BENCHMARK_HOOKS_PROBE],
                          capture_output=True, text=True, cwd=root,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
