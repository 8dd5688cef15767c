import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crankrank
from crankrank import circle, cli, moments, verification
from crankrank import series as qs
from crankrank.errors import ConvergenceError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSptOspt:
    def test_first_rows(self, capsys):
        code, out, _ = run_cli(capsys, "spt-ospt", "--nmax", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,spt,ospt"
        assert lines[1:] == ["1,1,1", "2,3,1", "3,5,1", "4,10,2", "5,14,2"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "spt-ospt", "--nmax", "3",
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == [[1, "1", "1"], [2, "3", "1"], [3, "5", "1"]]


class TestTables:
    def test_nmax_zero_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--nmax", "0")
        assert code == 0
        assert out == "kind,n,m,coefficient\ncrank,0,0,1\n"

    def test_combinatorial_convention(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--nmax", "1",
                               "--convention", "combinatorial")
        assert code == 0
        assert out == "kind,n,m,coefficient\ncrank,0,0,1\ncrank,1,0,1\n"

    def test_generating_function_convention(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--nmax", "1")
        lines = out.strip().split("\n")
        assert lines[1:] == ["crank,0,0,1", "crank,1,-1,1", "crank,1,0,-1",
                             "crank,1,1,1"]

    def test_both_kinds(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--nmax", "2", "--kind", "both")
        assert code == 0
        assert "rank,2," in out and "crank,2," in out


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nmax", "40")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS table-vs-brute-crank" in out

    def test_json_report(self, capsys, tmp_path):
        # --out adds the JSON file; the text report on stdout is unchanged
        path = tmp_path / "report.json"
        _, plain, _ = run_cli(capsys, "verify", "--nmax", "25")
        code, out, _ = run_cli(capsys, "verify", "--nmax", "25", "--out", str(path))
        assert code == 0
        assert out == plain
        data = json.loads(path.read_text())
        assert data["passed"] is True
        assert any(c["name"] == "parity-predictor" for c in data["checks"])

    def test_failure_exits_two(self, capsys, monkeypatch):
        from crankrank import verification

        def fake_suite(ctx):
            return [verification.CheckResult(
                "stub-check", False, "forced failure",
                counterexample={"N": 7},
            )]

        monkeypatch.setattr(verification, "run_suite", fake_suite)
        code, out, _ = run_cli(capsys, "verify", "--nmax", "5")
        assert code == 2
        assert "FAIL stub-check" in out
        assert "first counterexample" in out


class TestMoments:
    def test_positive_default(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--nmax", "6", "--r", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,variant,r,ell,N,value"
        assert "crank,positive,1,1,4,6" in lines
        assert "rank,positive,1,3,4,4" in lines

    def test_symmetrized(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--nmax", "4", "--r", "2",
                               "--variant", "symmetrized", "--ell", "1")
        assert code == 0
        assert "crank,symmetrized,2,1,2,1" in out

    def test_full_variant(self, capsys, monkeypatch):
        nmax = 14
        built = []
        build = moments.CrankRankTable.build

        def counting_build(kind, *args, **kwargs):
            built.append(kind)
            return build(kind, *args, **kwargs)

        monkeypatch.setattr(moments.CrankRankTable, "build",
                            staticmethod(counting_build))
        code, out, _ = run_cli(capsys, "moments", "--nmax", str(nmax),
                               "--r", "1,2,3,4", "--variant", "full")
        monkeypatch.undo()
        assert code == 0
        assert built == ["crank", "rank"]  # one table per kind, not per r
        lines = out.strip().split("\n")
        assert lines[0] == "kind,variant,r,ell,N,value"
        values = {}
        for line in lines[1:]:
            kind, variant, r, ell, N, v = line.split(",")
            assert variant == "full"
            values[kind, int(r), int(N)] = int(v)
        assert len(values) == 2 * 4 * (nmax + 1)
        p = qs.partition_series(nmax).coeffs
        tables = {kind: moments.CrankRankTable.build(kind, nmax)
                  for kind in ("crank", "rank")}
        for (kind, r, N), v in values.items():
            assert v == tables[kind].full_moment(r, N)
            if r % 2 == 1:
                assert v == 0
            if kind == "crank" and r == 2:
                assert v == 2 * N * p[N]  # Dyson's M2(N) = 2N p(N)

    def test_high_order_completes(self, capsys):
        # a high order completes and agrees with the table route's own weights
        code, out, _ = run_cli(capsys, "moments", "--nmax", "50", "--r", "400")
        assert code == 0
        values = {}
        for line in out.strip().split("\n")[1:]:
            kind, *_, v = line.split(",")
            values.setdefault(kind, []).append(int(v))
        for kind, got in values.items():
            table = moments.CrankRankTable.build(kind, 50)
            [want] = table.weighted_sums([lambda m: m ** 400 if m >= 1 else 0])
            assert got == want
        assert list(values) == ["crank", "rank"]

    def test_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--nmax", "4", "--r", "0")
        assert code == 1
        assert "usage error" in err


class TestParityCommand:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "parity", "--nmax", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("N,24N-1")
        assert lines[1] == "1,23,23,1,1,1"
        assert len(lines) == 7


class TestAsym:
    def test_small_ladder_report(self, capsys):
        code, out, _ = run_cli(capsys, "asym", "--ladder", "60,120,240",
                               "--r", "2")
        assert code == 0
        data = json.loads(out)
        targets = {t["target"] for t in data["trends"]}
        assert targets == {"M_pos", "N_pos", "diff"}
        assert len(data["ospt_vs_quarter_p"]["ratios"]) == 3

    def test_ladder_validation(self, capsys):
        code, _, err = run_cli(capsys, "asym", "--ladder", "100,50,200")
        assert code == 1
        assert "increasing" in err


class TestCircleCommand:
    def test_single_report(self, capsys):
        code, out, _ = run_cli(capsys, "circle", "--ladder", "50",
                               "--r", "3", "--ell", "1")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 1
        assert data[0]["relative_error"] < 1e-6

    def test_bound_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "circle", "--ladder", "50,100",
                               "--r", "3", "--ell", "1", "--format", "csv")
        assert code == 0
        # floats as repr: the shortest text that reads back to the same value
        assert out == "N,x,y,lhs,rhs_bound,ratio\n" + "".join(
            f"{N},{x!r},{y!r},{lhs!r},{rhs!r},{ratio!r}\n"
            for N, x, y, lhs, rhs, ratio in circle.away_bound_rows(1, 3, [50, 100]))
        lines = out.strip().split("\n")
        assert len(lines) == 13  # 6 window samples per ladder point
        ratios = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert all(0 <= x < 1 for x in ratios)

    def test_bound_grid_needs_single_pair(self, capsys):
        code, _, err = run_cli(capsys, "circle", "--ladder", "50",
                               "--format", "csv")
        assert code == 1
        assert "exactly one" in err

    def test_ladder_outside_window(self, capsys, monkeypatch):
        # rejected before any exact coefficient is computed up to max(ladder)
        built = []
        monkeypatch.setattr(moments, "symmetrized_family",
                            lambda *args: built.append(args))
        code, _, err = run_cli(capsys, "circle", "--ladder", "50,100000000")
        assert code == 1
        assert "N must be in [20, 400]" in err
        assert built == []

    def test_order_past_double_range(self, capsys, monkeypatch):
        # 1/(1 - |q|)^300 is past double range at N = 400: refused
        # before any exact coefficient is built or any quadrature runs
        built = []
        monkeypatch.setattr(moments, "symmetrized_family",
                            lambda *args: built.append(args))
        code, out, err = run_cli(capsys, "circle", "--r", "3,300",
                                 "--ell", "1", "--ladder", "400")
        assert (code, out, built) == (1, "", [])
        assert err == ("usage error: r = 300 is too large for "
                       "double-precision quadrature at N = 400\n")

    def test_order_whose_integrand_overflows(self, capsys, monkeypatch):
        # 1/(1 - |q|)^241 is finite at N = 400, but the integrand's bound
        # is not: the first order whose integrand overflows is refused
        monkeypatch.setattr(circle, "_refine_gl",
                            lambda *args: pytest.fail("quadrature ran"))
        code, out, err = run_cli(capsys, "circle", "--r", "241", "--ell", "1",
                                 "--ladder", "400")
        assert (code, out) == (1, "")
        assert err == ("usage error: r = 241 is too large for "
                       "double-precision quadrature at N = 400\n")

    def test_zero_coefficient(self, capsys, monkeypatch):
        # the coefficient of q^20 is 0 at r = 50: no relative target
        monkeypatch.setattr(circle, "_refine_gl",
                            lambda *args: pytest.fail("quadrature ran"))
        code, out, err = run_cli(capsys, "circle", "--r", "50", "--ell", "1",
                                 "--ladder", "20")
        assert (code, out) == (1, "")
        assert err == ("usage error: the coefficient of q^20 is 0 for "
                       "ell = 1, r = 50: no relative target for the "
                       "quadrature\n")

    def test_convergence_failure_shows_bound(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ConvergenceError("quadrature stub", achieved_bound=2.5e-7)

        monkeypatch.setattr(circle, "wright_integrals", failing)
        code, out, err = run_cli(capsys, "circle", "--ladder", "50",
                                 "--r", "3", "--ell", "1")
        assert code == 2
        assert out == ""
        assert err == ("convergence failure: quadrature stub "
                       "(achieved bound 2.5e-07)\n")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "mystery")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "tables", "--mystery")[0] == 1

    @pytest.mark.parametrize("argv", [
        ["tables", "--dtilde-variant", "eta"],
        ["moments", "--ladder", "1,2,3"],
        ["spt-ospt", "--r", "1"],
        ["verify", "--format", "json"],
        ["asym", "--nmax", "10"],
        # asym reads no subleading constant, so it takes no variant flag
        pytest.param(["asym", "--dtilde-variant", "eta"], id="asym-variant"),
        ["circle", "--nmax", "10"],
        ["parity", "--ladder", "1,2,3"],
    ], ids=lambda argv: argv[0])
    def test_foreign_flag_rejected(self, capsys, argv):
        # each subcommand accepts only the flags it reads
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err

    def test_bad_int_list(self, capsys):
        assert run_cli(capsys, "asym", "--ladder", "a,b")[0] == 1

    @pytest.mark.parametrize("argv", [
        ["asym", "--ladder=-5,1,2"],
        ["asym", "--ladder=-1,1,2"],
        ["circle", "--ladder=0,50"],
    ], ids=" ".join)
    def test_ladder_below_one(self, capsys, monkeypatch, argv):
        # refused before anything is built, not read from the list's end
        built = []
        monkeypatch.setattr(moments, "symmetrized_family",
                            lambda *args: built.append(args))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, built) == (1, "", [])
        ladder = argv[1].split("=")[1].split(",")
        assert err == ("usage error: ladder values must be >= 1, got "
                       f"[{', '.join(ladder)}]\n")

    @pytest.mark.parametrize("argv", [
        ["tables", "--nmax", "3"],
        ["moments", "--nmax", "3"],
        ["spt-ospt", "--nmax", "3"],
        ["verify", "--nmax", "5"],
        ["asym", "--ladder", "20,30,40", "--r", "1"],
        ["circle", "--format", "csv", "--r", "3", "--ell", "1", "--ladder", "50"],
        ["parity", "--nmax", "3"],
    ], ids=lambda argv: argv[0])
    def test_out_cannot_be_opened(self, capsys, monkeypatch, tmp_path, argv):
        # verify refuses before its context is built, so stdout stays empty
        monkeypatch.setattr(verification, "build_context",
                            lambda *args: pytest.fail("context built"))
        monkeypatch.setattr(verification, "run_suite",
                            lambda *args: pytest.fail("suite ran"))
        path = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: cannot open --out {path}: ")
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["asym", "--ladder", "10,20,30", "--r", "171"],  # 171! as a float
        ["circle", "--format", "csv", "--r", "3", "--ell", "1",
         "--ladder", "10000000"],
        ["circle", "--format", "csv", "--r", "400", "--ell", "1",
         "--ladder", "50"],
        # (1 - |q|)^3000 underflows at N = 1, where the envelope does not
        ["circle", "--format", "csv", "--r", "3000", "--ell", "1",
         "--ladder", "1"],
    ], ids=" ".join)
    def test_out_of_float_range(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("argv, message", [
        (["asym", "--r", "171"], "int too large to convert to float"),
        (["asym", "--r", "0"], "r must be >= 1"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_asym_order_refused_before_building(self, capsys, monkeypatch,
                                                argv, message):
        # every model is built before the first family, on the default ladder
        built = []
        monkeypatch.setattr(moments, "symmetrized_family",
                            lambda *args: built.append(args))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, built) == (1, "", [])
        assert err == f"usage error: {message}\n"

    def test_resource_limit_exits_three(self, capsys, monkeypatch):
        # refused from the size estimate, before the table or p is allocated
        monkeypatch.setattr(qs, "partition_series",
                            lambda *args: pytest.fail("p was built"))
        for command in ("tables", "verify"):
            code, out, err = run_cli(capsys, command, "--nmax", "1000000")
            assert code == 3
            assert out == ""
            assert err.startswith("resource limit: ")


class TestDeterminism:
    def test_identical_output(self, capsys):
        _, out1, _ = run_cli(capsys, "spt-ospt", "--nmax", "12")
        _, out2, _ = run_cli(capsys, "spt-ospt", "--nmax", "12")
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        _, out, _ = run_cli(capsys, "parity", "--nmax", "5")
        code, _, _ = run_cli(capsys, "parity", "--nmax", "5", "--out", str(path))
        assert code == 0
        assert path.read_text() == out


@pytest.mark.parametrize("argv", [
    ["tables", "--nmax", "6", "--kind", "both"],
    ["tables", "--nmax", "4", "--kind", "both", "--convention", "combinatorial"],
    ["moments", "--nmax", "8", "--r", "1,2,3"],
    ["moments", "--nmax", "8", "--r", "1,2,3", "--variant", "full"],
    ["moments", "--nmax", "8", "--r", "2,3", "--variant", "symmetrized",
     "--ell", "3"],
    ["spt-ospt", "--nmax", "12"],
    ["parity", "--nmax", "12"],
], ids=" ".join)
def test_csv_rows_are_json_rows(argv, capsys):
    # one row format: each CSV line after the header is a JSON row joined by commas
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, dumped, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(dumped)
    assert rows
    header, *lines = out.split("\n")
    assert header.count(",") == len(rows[0]) - 1
    assert lines == [",".join(map(str, row)) for row in rows] + [""]


@pytest.mark.parametrize("run, calls", [
    (lambda: cli.main(["moments", "--nmax", "30", "--r", "1,2,3,4,5,6"]), 12),
    (lambda: cli.main(["asym", "--ladder", "60,120,240", "--r", "1,2,3"]), 6),
    (lambda: verification.build_context(30, 10), 20),
    (lambda: cli.main(["circle", "--r", "1,2,3", "--ladder", "50,60"]), 6),
], ids=["moments", "asym", "build_context", "circle"])
def test_each_quotient_formed_once(run, calls, capsys, monkeypatch):
    # one appell_sum per (ell, r): 6 orders x 2 sides, 3 x 2, 10 x 2, 3 x 2
    seen = []
    appell_sum = qs.appell_sum

    def counting(ell, r, nmax):
        seen.append((ell, r))
        return appell_sum(ell, r, nmax)

    monkeypatch.setattr(qs, "appell_sum", counting)
    run()
    capsys.readouterr()
    assert len(seen) == calls
    assert len(set(seen)) == calls


# Runs the CLI in a fresh interpreter with its stdout discarded, then
# prints the exit code and whether numpy, dataclasses and fractions got
# imported.
_NUMPY_PROBE = """
import contextlib, io, sys
from crankrank import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, "numpy" in sys.modules, "dataclasses" in sys.modules,
      "fractions" in sys.modules,
      *[name for name in ("asymptotics", "parity", "partitions",
                          "verification") if f"crankrank.{name}" in sys.modules])
"""

#: The optional package modules each command loads; every other command,
#: and ``import crankrank.cli`` alone, loads none of them.
_OPTIONAL_MODULES = {"verify": ["parity", "partitions", "verification"],
                     "asym": ["asymptotics"], "parity": ["parity"]}


@pytest.mark.parametrize("argv, loads_numpy", [
    ([], False),  # import crankrank.cli alone
    (["tables", "--nmax", "5", "--kind", "both"], False),
    (["moments", "--nmax", "8", "--variant", "full"], False),
    (["spt-ospt", "--nmax", "10"], False),
    (["verify", "--nmax", "10"], False),
    (["asym", "--ladder", "60,120,240", "--r", "1"], False),
    (["parity", "--nmax", "10"], False),
    (["circle", "--ladder", "50,60", "--r", "3"], True),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_numpy_loaded_only_by_circle(argv, loads_numpy):
    src = str(Path(crankrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          capture_output=True, text=True, env=env, check=True)
    modules = _OPTIONAL_MODULES.get(argv[0] if argv else None, [])
    code, numpy, dataclasses, fractions, *loaded = done.stdout.split()
    assert [code, numpy, *loaded] == ["0", str(loads_numpy), *modules]
    # no package record needs dataclasses, and only circle's expansion
    # coefficients need fractions; numpy's own imports are not pinned
    if not loads_numpy:
        assert (dataclasses, fractions) == ("False", "False")


@pytest.mark.parametrize("argv, code", [
    (["tables", "--nmax", "3"], 0), (["nosuch"], 1)])
def test_runs_as_module(capsys, argv, code):
    # python -m crankrank.cli runs the command: the same stdout as main()
    # in process, and the same exit code
    src = str(Path(crankrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "crankrank.cli", *argv],
                          capture_output=True, env=env)
    assert (cli.main(argv), done.returncode) == (code, code)
    assert done.stdout == capsys.readouterr().out.encode()


# Runs the CLI in a fresh interpreter and prints, to stderr, its exit code
# and OPENBLAS_NUM_THREADS as the command left it.
_BLAS_PROBE = """
import os, sys
from crankrank import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""


def test_circle_runs_one_blas_thread_unless_set():
    # circle loads numpy on one OpenBLAS thread, a count the user set
    # wins, and the output is the same bytes either way; each run is a
    # subprocess, so the test's own environment is never written
    src = str(Path(crankrank.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    argv = ["circle", "--r", "3", "--ell", "1", "--ladder", "50"]
    unset, user = (
        subprocess.run([sys.executable, "-c", _BLAS_PROBE, *argv],
                       capture_output=True, env=run_env, check=True)
        for run_env in (env, dict(env, OPENBLAS_NUM_THREADS="2")))
    assert unset.stderr.split()[-2:] == [b"0", b"1"]
    assert user.stderr.split()[-2:] == [b"0", b"2"]
    assert unset.stdout == user.stdout
    assert json.loads(unset.stdout)[0]["N"] == 50


def test_root_exports_resolve():
    # the package root imports each exported name's module on first access
    import importlib

    for name in crankrank.__all__:
        module = importlib.import_module(f"crankrank.{crankrank._EXPORTS[name]}")
        assert getattr(crankrank, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no attribute 'mystery'"):
        crankrank.mystery


@pytest.mark.parametrize("argv", [
    ["moments", "--nmax", "200"],
    ["spt-ospt", "--nmax", "200"],
    ["asym", "--ladder", "60,120,240", "--r", "1,2,3"],
    ["parity", "--nmax", "200"],
], ids=lambda argv: argv[0])
def test_series_routes_refuse_before_building(argv, capsys, monkeypatch):
    # every family here is estimated at 17-34 kB
    monkeypatch.setattr(qs, "TABLE_BYTES_LIMIT", 10_000)
    built = []
    for name in ("partition_series", "appell_sum"):
        monkeypatch.setattr(qs, name, lambda *args: built.append(args))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, built) == (3, "", [])
    assert err.startswith("resource limit: a quotient family of ")


@pytest.mark.parametrize("argv, builds", [
    (["asym", "--ladder", "60,120,240", "--r", "1,2,3"], [(240,)]),
    (["spt-ospt", "--nmax", "200"], []),
], ids=["asym", "spt-ospt"])
def test_partition_counts_built_at_most_once(argv, builds, capsys, monkeypatch):
    # the series route divides by (q;q)_inf without p; asym reads p once,
    # for its ospt ratios
    built = []
    real = qs.partition_series
    monkeypatch.setattr(qs, "partition_series",
                        lambda *args: built.append(args) or real(*args))
    code, _, _ = run_cli(capsys, *argv)
    assert (code, built) == (0, builds)


def test_euler_factor_once_per_node_set(capsys, monkeypatch):
    # 6 (ell, r) pairs integrate over shared node sets; the Euler factor
    # of each node set is evaluated once, the Appell factor per pair
    circle._euler_at_nodes.cache_clear()
    appell_nodes, euler_nodes = [], []
    appell_value, euler_value = qs.appell_sum_value, qs.euler_inverse_value

    def counting_appell(ell, r, q, tol):
        appell_nodes.append(q.tobytes())
        return appell_value(ell, r, q, tol)

    def counting_euler(q, tol):
        euler_nodes.append(q.tobytes())
        return euler_value(q, tol)

    node_sets = []
    gl_nodes = circle._gl_nodes

    def counting_gl_nodes(*key):
        node_sets.append(key)
        return gl_nodes(*key)

    monkeypatch.setattr(qs, "appell_sum_value", counting_appell)
    monkeypatch.setattr(qs, "euler_inverse_value", counting_euler)
    monkeypatch.setattr(circle, "_gl_nodes", counting_gl_nodes)
    assert cli.main(["circle", "--r", "1,2,3", "--ladder", "50,60"]) == 0
    capsys.readouterr()
    assert len(euler_nodes) == len(set(euler_nodes))
    assert set(euler_nodes) == set(appell_nodes)
    # 2 N x 2 arcs x (start, one doubling) node sets, each used by 6 pairs
    assert (len(appell_nodes), len(euler_nodes)) == (48, 8)
    # each evaluation builds its node set once, and the Euler memo builds
    # it once more when it fills that node set
    assert len(node_sets) == 48 + 8
