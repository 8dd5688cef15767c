"""Command-line front end.

Subcommands map onto the library layers: ``tables`` and ``moments`` dump
exact data, ``spt-ospt`` the two special sequences, ``verify`` runs the
identity suite, ``asym`` emits trend reports against the growth
predictions, ``circle`` runs the contour-integral reproduction, and
``parity`` the factorization-based parity table.

Exit codes: 0 success, 1 usage error, 2 verification/convergence failure,
3 resource limit.  Output is deterministic for a fixed argument list.

Each invocation pays only for the command it runs: ``verify``, ``asym``,
``parity`` and ``circle`` import their modules when they start (``circle``
with them numpy, which no other command loads; ``circle`` first sets
``OPENBLAS_NUM_THREADS`` to 1 unless it is set, so that numpy starts no
idle BLAS threads).  The tabular commands
write one row format: as CSV, piece by piece to stdout or ``--out``
(``tables`` one dense row at a time), or as JSON, dumped whole as one
list of the same rows.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import moments
from . import series as qs
from .errors import ConvergenceError, ResourceLimitError

DEFAULT_NMAX = 200
DEFAULT_LADDER = (250, 500, 1000, 2000)
DEFAULT_CIRCLE_LADDER = (50, 100)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="crankrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--nmax": dict(type=int, default=DEFAULT_NMAX,
                       help="truncation / table order (default %(default)s)"),
        "--out": dict(default=None,
                      help="write output to this path instead of stdout"),
        "--format": dict(choices=("csv", "json"), default="csv",
                         help="output format"),
        "--r": dict(type=_int_list, default=None,
                    help="comma-separated moment orders"),
        "--ell": dict(type=_int_list, default=None,
                      help="comma-separated sides: 1=crank, 3=rank"),
        "--ladder": dict(type=_int_list, default=list(DEFAULT_LADDER),
                         help="comma-separated increasing N values"),
        "--convention": dict(
            choices=(moments.GENERATING_FUNCTION, moments.COMBINATORIAL),
            default=moments.GENERATING_FUNCTION,
            help="crank N=1 column handling for table export"),
    }

    def command(name, help, *names):
        """A subcommand that accepts exactly the flags in ``names``."""
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        return p

    p_tables = command("tables", "crank/rank distribution tables",
                       "--nmax", "--out", "--format", "--convention")
    p_tables.add_argument("--kind", choices=("crank", "rank", "both"),
                          default="crank")
    p_moments = command("moments", "exact moment tables",
                        "--nmax", "--out", "--format", "--r", "--ell")
    p_moments.add_argument("--variant",
                           choices=("full", "positive", "symmetrized"),
                           default="positive")
    command("spt-ospt", "the spt and ospt sequences",
            "--nmax", "--out", "--format")
    p_verify = command("verify", "run the exact identity suite", "--nmax")
    p_verify.add_argument("--out", default=None,
                          help="also write the JSON report to this path "
                               "(the text report still goes to stdout)")
    command("asym", "trend reports against predictions",
            "--out", "--r", "--ladder")
    p_circle = command("circle", "contour-integral reproduction",
                       "--out", "--format", "--r", "--ell", "--ladder")
    # json by default: csv emits the off-arc bound grid
    p_circle.set_defaults(format="json", ladder=list(DEFAULT_CIRCLE_LADDER))
    command("parity", "factorization parity table",
            "--nmax", "--out", "--format")
    return parser


@contextlib.contextmanager
def _writer(out_path):
    """stdout, or the file ``out_path``, for output written piece by piece.

    A file that cannot be opened is a usage error; a failed write is not."""
    if out_path is None:
        yield sys.stdout
        return
    try:
        fh = open(out_path, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot open --out {out_path}: "
                          f"{exc.strerror or exc}") from exc
    with fh:
        yield fh


def _emit(text: str, out_path) -> None:
    """Write ``text`` whole; on stdout, end it with a newline."""
    with _writer(out_path) as fh:
        fh.write(text)
        if out_path is None and not text.endswith("\n"):
            fh.write("\n")


def _write_rows(args, header: str, blocks) -> None:
    """Write the row tuples of ``blocks``, an iterable of lists of rows, in
    ``args.format`` to stdout or ``args.out``.

    Big integers arrive as ``str``, so both formats carry the same digits.
    CSV is ``header``, then each row's fields joined by commas, with one
    write per block (an unbuffered stream makes each write a system call);
    JSON is one list of every row.
    """
    if args.format == "json":
        _emit(json.dumps([row for block in blocks for row in block]), args.out)
        return
    line = ",".join(["%s"] * (header.count(",") + 1)) + "\n"
    with _writer(args.out) as fh:
        fh.write(header + "\n")
        for block in blocks:
            fh.write("".join([line % row for row in block]))


def _validate_ladder(ladder) -> None:
    if min(ladder) < 1:
        raise _UsageError(f"ladder values must be >= 1, got {ladder}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise _UsageError(f"ladder must be strictly increasing, got {ladder}")


def _cmd_tables(args) -> int:
    kinds = ("crank", "rank") if args.kind == "both" else (args.kind,)
    qs.check_dense_table(args.nmax)  # before any table is built
    tables = [moments.CrankRankTable.build(kind, args.nmax) for kind in kinds]
    combinatorial = args.convention == moments.COMBINATORIAL
    # the factorized tables are small; one kind's dense rows at a time
    _write_rows(args, "kind,n,m,coefficient", (
        [(table.kind, N, m, str(c))
         for m, c in zip(range(-N, N + 1),
                         moments.combinatorial_row(N, row)
                         if combinatorial and table.kind == "crank" else row)
         if c]
        for table in tables for N, row in enumerate(table.dense_rows(args.nmax))
    ))
    return 0


def _cmd_moments(args) -> int:
    r_list = sorted(set(args.r or [1, 2]))
    if r_list[0] < 1:
        raise _UsageError("moment orders must be >= 1")
    kinds = {ell: moments.kind_for_ell(ell)
             for ell in sorted(set(args.ell or [1, 3]))}
    families = {}  # ell -> {r: values}; one table or one series family each
    for ell, kind in kinds.items():
        if args.variant == "full":
            table = moments.CrankRankTable.build(kind, args.nmax)
            families[ell] = table.full_moments(r_list)
        elif args.variant == "symmetrized":
            families[ell] = moments.symmetrized_family(ell, r_list, args.nmax)
        else:
            sym = moments.symmetrized_family(ell, range(1, r_list[-1] + 1),
                                             args.nmax)
            families[ell] = {r: moments.positive_from_symmetrized(sym, r)
                             for r in r_list}
    _write_rows(args, "kind,variant,r,ell,N,value", (
        [(kind, args.variant, r, ell, N, str(v))
         for N, v in enumerate(families[ell][r])]
        for r in r_list for ell, kind in kinds.items()
    ))
    return 0


def _cmd_spt_ospt(args) -> int:
    spt, ospt = moments.spt_ospt(args.nmax)
    _write_rows(args, "N,spt,ospt", [
        [(N, str(spt[N]), str(ospt[N])) for N in range(1, args.nmax + 1)]
    ])
    return 0


def _cmd_verify(args) -> int:
    from . import verification

    # --out is opened first, so a path that cannot be opened stops the
    # command before the context is built; the text report goes to stdout
    with _writer(args.out) as fh:
        results = verification.run_suite(verification.build_context(args.nmax))
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            line = f"{status} {res.name}: {res.detail}"
            if res.counterexample:
                line += f" | first counterexample: {res.counterexample}"
            print(line)
        if args.out is not None:
            fh.write(verification.report_json(results))
    return 0 if all(r.passed for r in results) else 2


def _cmd_asym(args) -> int:
    from . import asymptotics

    ladder = args.ladder
    _validate_ladder(ladder)
    if len(ladder) < 3:
        raise _UsageError("trend ladder needs at least 3 points")
    r_list = sorted(set(args.r or [1, 2, 3, 4, 5, 6]))
    nmax = max(ladder)
    # ospt needs orders 1 and 2 even when --r asks for less
    orders = range(1, max(r_list[-1], 2) + 1)
    # an order is refused before any family is built: first by the size
    # estimate, cheap at any r, then by the models, which take r!
    qs.check_quotient_family(orders, nmax)
    models = {r: (asymptotics.build_model(r, 1), asymptotics.build_model(r, 3))
              for r in r_list}
    sym = {ell: moments.symmetrized_family(ell, orders, nmax) for ell in (1, 3)}
    reports = []
    for r, (model_c, model_r) in models.items():
        crank_all = moments.positive_from_symmetrized(sym[1], r)
        rank_all = moments.positive_from_symmetrized(sym[3], r)
        crank_vals = [crank_all[N] for N in ladder]
        rank_vals = [rank_all[N] for N in ladder]
        diff_vals = [a - b for a, b in zip(crank_vals, rank_vals)]
        reports.append(asymptotics.trend(ladder, crank_vals, model_c, "M_pos"))
        reports.append(asymptotics.trend(ladder, rank_vals, model_r, "N_pos"))
        reports.append(asymptotics.trend(ladder, diff_vals, model_c, "diff"))
    _, ospt = moments.spt_ospt_from_symmetrized(sym[1], sym[3])
    p = qs.partition_series(nmax).coeffs
    ospt_ratios = [ospt[N] / (p[N] / 4) for N in ladder]
    payload = {
        "trends": [rep.as_dict() for rep in reports],
        "ospt_vs_quarter_p": {
            "Ns": ladder,
            "ratios": ospt_ratios,
            "residuals": [abs(x - 1.0) for x in ospt_ratios],
        },
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_circle(args) -> int:
    if "numpy" not in sys.modules:
        # OpenBLAS reads this once, when numpy loads; circle's one BLAS
        # call, a dot product over the panels, needs no thread pool.  A
        # value the user set wins.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import circle  # numpy is loaded for this command only

    ladder = args.ladder
    _validate_ladder(ladder)
    r_list = sorted(set(args.r or [3, 4]))
    ells = sorted(set(args.ell or [1, 3]))
    if args.format == "csv":
        # csv output is the off-arc bound grid, one (ell, r) pair at a time
        if len(r_list) != 1 or len(ells) != 1:
            raise _UsageError(
                "circle --format csv needs exactly one --r and one --ell"
            )
        # %s of a Python float is its repr, the shortest text that reads back
        _write_rows(args, "N,x,y,lhs,rhs_bound,ratio", [
            circle.away_bound_rows(ells[0], r_list[0], ladder)
        ])
        return 0
    for N in ladder:  # before any exact coefficient is built up to max(ladder)
        circle.check_quadrature_order(N, r_list[-1])
    reports = []
    for ell in ells:
        sym = moments.symmetrized_family(ell, r_list, ladder[-1])
        for r in r_list:
            for N in ladder:
                reports.append(circle.wright_integrals(ell, r, N, exact=sym[r][N]))
    _emit(json.dumps([rep.as_dict() for rep in reports], indent=2,
                     sort_keys=True), args.out)
    return 0


def _cmd_parity(args) -> int:
    from . import parity

    spt, ospt = moments.spt_ospt(args.nmax)
    rows = parity.parity_rows(spt, ospt, args.nmax)
    _write_rows(
        args, "N,24N-1,factorization,predicted_parity,ospt_mod_2,spt_mod_2",
        [[(row.N, row.modulus_argument,
           parity.format_factorization(row.factorization),
           int(row.predicted_odd), row.ospt_mod_2, row.spt_mod_2)
          for row in rows]])
    return 0 if all(row.consistent for row in rows) else 2


_COMMANDS = {
    "tables": _cmd_tables,
    "moments": _cmd_moments,
    "spt-ospt": _cmd_spt_ospt,
    "verify": _cmd_verify,
    "asym": _cmd_asym,
    "circle": _cmd_circle,
    "parity": _cmd_parity,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    # an OverflowError comes from an order or N chosen past double range
    except (_UsageError, ValueError, OverflowError,
            argparse.ArgumentTypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        reached = ("" if exc.achieved_bound is None
                   else f" (achieved bound {exc.achieved_bound:.3g})")
        print(f"convergence failure: {exc}{reached}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
