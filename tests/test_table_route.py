"""The factorized table route against the dense loops and the products it
replaced.

``CrankRankTable`` keeps the crank/rank histogram as its sparse numerator
columns alone and forms every sum over m of one kind in one packed
division by (q;q)_inf (``BivariateSeries.weighted_sums``).  The references
below are the routes as they stood before: the dense one, every numerator
monomial spread over a dense (nmax+1)-row histogram with each moment a
per-row loop over m, which shares only ``numerator_entries`` and
``partition_series`` with the code under test; and the per-weight one,
each weighted numerator multiplied by p in one truncated product.
"""

import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crankrank import cli
from crankrank import moments as mm
from crankrank import series as qs
from crankrank.errors import ResourceLimitError


def dense_reference(kind, nmax):
    """Dense rows[N][m + N], spread monomial by monomial from the numerator."""
    p = qs.partition_series(nmax).coeffs
    rows = [[0] * (2 * N + 1) for N in range(nmax + 1)]
    for q0, m, sign in qs.numerator_entries(kind, nmax):
        for j in range(nmax + 1 - q0):
            N = q0 + j
            rows[N][m + N] += sign * p[j]
    return rows


def positive_reference(rows, r_max):
    """[N][r] = sum_{m>=1} m^r rows[N][m + N], powers of m built incrementally."""
    out = []
    for N, row in enumerate(rows):
        acc = [0] * (r_max + 1)
        for m in range(1, N + 1):
            c = row[m + N]
            if c:
                acc[0] += c
                pw = 1
                for r in range(1, r_max + 1):
                    pw *= m
                    acc[r] += pw * c
        out.append(acc)
    return out


def full_reference(rows, r):
    """[N] = sum over all m of m^r rows[N][m + N]."""
    return [sum(m ** r * row[m + N] for m in range(-N, N + 1))
            for N, row in enumerate(rows)]


def full_even_reference(rows, k_max):
    """[N][k] = sum_{m>=1} m^{2k} (rows[N][N + m] + rows[N][N - m]); entry 0 unused."""
    out = []
    for N, row in enumerate(rows):
        acc = [0] * (k_max + 1)
        for m in range(1, N + 1):
            c = row[N + m] + row[N - m]
            if c:
                m2 = m * m
                pw = 1
                for k in range(1, k_max + 1):
                    pw *= m2
                    acc[k] += pw * c
        out.append(acc)
    return out


def symmetrized_reference(rows, r):
    """[N] = sum_{m>=1} C(m + floor((r-1)/2), r) rows[N][m + N]."""
    off = (r - 1) // 2
    return [sum(comb(m + off, r) * row[m + N] for m in range(1, N + 1))
            for N, row in enumerate(rows)]


def product_reference(biv, weight):
    """sum_m weight(m) (coefficient series of w^m) by one truncated product:
    the weighted numerator, formed monomial by monomial, times p."""
    acc = [0] * (biv.nmax + 1)
    for m, col in biv.columns.items():
        for q0, c in col.items():
            acc[q0] += weight(m) * c
    return (qs.ExactSeries(acc) * qs.partition_series(biv.nmax)).coeffs


SLOT_MAX = 2**200
# every column index m of a table or column set below lies in this span
SPAN = range(-70, 71)

# a weight function as plain data: (form, bits, seed, constant)
weight_specs = st.tuples(st.sampled_from(["random", "extreme", "constant"]),
                         st.integers(0, 200), st.integers(0, 2**32 - 1),
                         st.sampled_from([SLOT_MAX, -SLOT_MAX, 1, -1, 0]))


def weight_function(spec):
    """m -> integer: random of both signs below 2^bits, +-2^200 with random
    signs, or one constant; every value at most 2^200 in size."""
    form, bits, seed, constant = spec
    rng = random.Random(seed)
    if form == "random":
        values = [rng.randint(-(1 << bits), 1 << bits) for _ in SPAN]
    elif form == "extreme":
        values = [rng.choice((SLOT_MAX, -SLOT_MAX)) for _ in SPAN]
    else:
        values = [constant] * len(SPAN)
    return dict(zip(SPAN, values)).__getitem__


# neighbouring slots at the bound with opposite signs, so each borrows
ALTERNATING = [("constant", 0, 0, (-1) ** j * SLOT_MAX) for j in range(25)]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["crank", "rank"]), nmax=st.integers(0, 60),
       specs=st.lists(weight_specs, min_size=1, max_size=25))
@example(kind="crank", nmax=60, specs=ALTERNATING)
@example(kind="rank", nmax=1, specs=ALTERNATING[1:])
def test_weighted_sums_equal_per_weight_products(kind, nmax, specs):
    biv = qs.bivariate_series(kind, nmax)
    weights = [weight_function(spec) for spec in specs]
    assert biv.weighted_sums(weights) == [
        product_reference(biv, weight) for weight in weights]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), nmax=st.integers(0, 40),
       specs=st.lists(weight_specs, min_size=1, max_size=8))
def test_weighted_sums_on_arbitrary_columns(data, nmax, specs):
    # signed columns that are no crank/rank numerator, with coefficients far
    # beyond +-1, so only the generic slot bound keeps the slots apart
    entries = data.draw(st.lists(st.tuples(
        st.integers(0, nmax), st.integers(SPAN[0], SPAN[-1]),
        st.integers(-2**80, 2**80) | st.sampled_from([1, -1])), max_size=60))
    biv = qs.BivariateSeries(qs.numerator_columns(entries), nmax)
    weights = [weight_function(spec) for spec in specs]
    assert biv.weighted_sums(weights) == [
        product_reference(biv, weight) for weight in weights]
    assert biv.weighted_sums([]) == []


def test_weighted_sums_at_the_slot_bound():
    # one column 3 q^0 and p(3) = 3: weight w_j has the numerator
    # t_j = 3 w_j q^0, and T_j(3) = 9 w_j attains the bound p(nmax) sum|t_j|
    # that the slot width rests on, with neighbours of opposite sign.
    # |9 (2^200 - 1)| > 2^203, so a slot needs 205 bits; it gets
    # partition_bits(3) + bits(max_j sum|t_j|) + 1 = 9 + 202 + 1 = 212, the
    # 9 bits of partition_bits(3) being 7 more than bits(p(3))
    top = 2**200 - 1
    assert (qs.partition_bits(3), (3 * top).bit_length()) == (9, 202)
    biv = qs.BivariateSeries({0: {0: 3}}, 3)
    weights = [(lambda m, w=w: w) for w in (top, -top, -top, top, 1, -top)]
    sums = biv.weighted_sums(weights)
    assert [s[3] for s in sums] == [9 * w(0) for w in weights]
    assert sums == [product_reference(biv, weight) for weight in weights]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["crank", "rank"]), nmax=st.integers(0, 60))
def test_factorized_table_matches_dense_reference(kind, nmax):
    table = mm.CrankRankTable.build(kind, nmax)
    rows = dense_reference(kind, nmax)
    assert table.rows == rows
    for N, row in enumerate(rows):
        assert table.dense_row(N) == row
        assert table.distribution(N) == {m - N: c for m, c in enumerate(row) if c}
    assert table.positive_moments_upto(10) == positive_reference(rows, 10)
    assert table.full_moments(range(7)) == {
        r: full_reference(rows, r) for r in range(7)}
    assert table.full_even_moments_upto(5) == full_even_reference(rows, 5)
    assert table.symmetrized_moments(range(1, 7)) == {
        r: symmetrized_reference(rows, r) for r in range(1, 7)}
    assert table.collapse_marker().coeffs == [sum(row) for row in rows]
    assert table.first_asymmetric_row() is None


@pytest.mark.parametrize("nmax", [1, 2, 7])
def test_combinatorial_n1_row(nmax, capsys):
    # the table keeps the generating-function row; export patches row 1 only
    rows = dense_reference("crank", nmax)
    assert rows[1] == [1, -1, 1]
    assert mm.CrankRankTable.build("crank", nmax).rows == rows
    exported = [mm.combinatorial_row(N, row) for N, row in enumerate(rows)]
    rows[1] = [0, 1, 0]
    assert exported == rows
    assert cli.main(["tables", "--nmax", str(nmax),
                     "--convention", "combinatorial"]) == 0
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("crank,1,")] == ["crank,1,0,1"]


def test_columns_merge_and_drop_zeros():
    entries = [(3, 1, 1), (0, 0, 1), (1, 1, -1), (3, 1, 1), (2, -1, 1), (2, -1, -1)]
    columns = qs.numerator_columns(entries)
    assert columns == {0: {0: 1}, 1: {1: -1, 3: 2}}
    assert list(columns) == [0, 1]
    assert list(columns[1]) == [1, 3]


@pytest.mark.parametrize("kind", ["crank", "rank"])
@pytest.mark.parametrize("nmax", [0, 1, 2, 3, 17, 100, 800])
def test_monomial_count_without_enumeration(kind, nmax):
    assert qs._numerator_size(kind, nmax) == len(list(qs.numerator_entries(kind, nmax)))


def test_first_asymmetric_row_is_lowest_differing_exponent():
    # C_m - C_{-m} = (column m - column -m) * p, and p starts with 1
    entries = [*qs.numerator_entries("rank", 30), (9, 4, 1), (12, -2, 1)]
    table = qs.BivariateSeries(qs.numerator_columns(entries), 30)
    rows = table.dense_rows()
    first = next(N for N, row in enumerate(rows) if row != row[::-1])
    assert table.first_asymmetric_row() == first == 9


def test_dense_limit_applies_to_unpacking_only(monkeypatch):
    # a table whose dense rows are over the limit still builds and sums:
    # at nmax=50 the dense estimate is about 102 kB, the factorized one 37 kB
    table = mm.CrankRankTable.build("rank", 50)
    monkeypatch.setattr(qs, "TABLE_BYTES_LIMIT", 50_000)
    assert (mm.CrankRankTable.build("rank", 50).full_moments([2])
            == table.full_moments([2]))
    with pytest.raises(ResourceLimitError, match="dense table to nmax=50"):
        table.rows
    with pytest.raises(ResourceLimitError):
        table.dense_rows()
    assert table.distribution(50) == {
        m - 50: c for m, c in enumerate(dense_reference("rank", 50)[50]) if c}


def test_factorized_limit_refuses_before_building(monkeypatch):
    monkeypatch.setattr(qs, "TABLE_BYTES_LIMIT", 10_000)
    built = []
    monkeypatch.setattr(qs, "numerator_entries",
                        lambda *args: built.append(args))
    with pytest.raises(ResourceLimitError, match="factorized crank table to nmax=200"):
        mm.CrankRankTable.build("crank", 200)
    assert built == []


@pytest.mark.parametrize("argv, refused", [
    (["tables", "--nmax", "50", "--kind", "rank"], "dense table to nmax=50"),
    (["moments", "--nmax", "50", "--variant", "full"], None),
    (["moments", "--nmax", "200", "--variant", "full"], "factorized crank table"),
], ids=["tables-dense", "full-fits", "full-factorized"])
def test_cli_limits_by_layout(argv, refused, capsys, monkeypatch):
    # between the factorized (crank 48 kB) and dense (102 kB) estimates at nmax=50
    monkeypatch.setattr(qs, "TABLE_BYTES_LIMIT", 60_000)
    built = []
    build = mm.CrankRankTable.build
    monkeypatch.setattr(mm.CrankRankTable, "build",
                        lambda *args: built.append(args) or build(*args))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if refused is None:
        assert code == 0 and err == ""
    else:
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: ") and refused in err
        assert built == ([] if argv[0] == "tables" else [("crank", 200)])
