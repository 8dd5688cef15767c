"""One benchmark pass inside a fresh interpreter.

    python3 perfbench/child.py suite NMAX BRUTE_NMAX SEED RESULT [--trace]
    python3 perfbench/child.py cli RESULT [--trace] -- CLI-ARGS...

``suite`` builds ``verification.build_context(NMAX, BRUTE_NMAX)`` and runs
every entry of ``verification.ALL_CHECKS``; once that timed part is done it
checks the context against the independent computations in oracle.py and
writes the outcome of each check to RESULT as JSON.  ``cli`` does what the
``crankrank`` console script does, ``sys.exit(cli.main(argv))``, and writes
its peak memory (and spans, with ``--trace``) to RESULT.  Times are
CLOCK_MONOTONIC nanoseconds, comparable with the parent's.
"""

from __future__ import annotations

import json
import random
import sys
import time

import oracle
import spans


def peak_rss_kb() -> int:
    """This process's own peak resident set size (VmHWM).

    ``ru_maxrss`` would also count the parent's memory at fork time, which
    Linux carries across exec into the child's figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def sample_points(seed: int, nmax: int, count: int = 6) -> list:
    """Seeded spot-check rows: some in every residue progression, some anywhere."""
    rng = random.Random(seed)
    points = {rng.randint(1, nmax) for _ in range(count)}
    for _, modulus, offset in oracle.EQUIDISTRIBUTION:
        top = (nmax - offset) // modulus
        points.update(modulus * rng.randint(0, top) + offset for _ in range(2))
    return sorted(points)


def independent_faults(ctx, seed: int) -> dict:
    """Check name -> faults found by recomputing part of the context apart."""
    nmax = ctx.nmax
    p = oracle.partition_counts(nmax)
    points = sample_points(seed, nmax)
    tables = {"crank": ctx.crank_table.rows, "rank": ctx.rank_table.rows}
    rows = {kind: {N: oracle.row_map(table[N], N) for N in points} for kind, table in tables.items()}
    faults = {
        "check_ramanujan": [] if ctx.partition_counts == p
        else ["partition_counts differ from the coin-change p(N)"],
        # sums and symmetry on every row, the costlier properties at the sample rows
        "check_row_structure": [
            f"{kind} row {N} has the wrong sum or is not symmetric"
            for kind, table in tables.items()
            for N, row in enumerate(table) if sum(row) != p[N] or row != row[::-1]
        ] + oracle.table_faults(rows, p),
        "check_even_moments": [
            f"crank positive M2({N}) != N p(N)"
            for N in range(nmax + 1) if ctx.pos_crank[N][2] != N * p[N]
        ],
    }
    spt = oracle.spt_at(points)
    faults["check_spt_ospt_series_scale"] = [
        f"spt({N}) = {ctx.spt[N]}, recurrence gives {spt[N]}"
        for N in points if ctx.spt[N] != spt[N]
    ] + oracle.spt_congruence_faults(ctx.spt)
    rng = random.Random(seed + 1)
    sym_faults = []
    for N in points:
        r = rng.randint(1, 6)
        for kind, sym in (("crank", ctx.sym_crank), ("rank", ctx.sym_rank)):
            if sym[r][N] != oracle.symmetrized_moment(rows[kind][N], r):
                sym_faults.append(f"{kind} symmetrized r={r} at N={N}")
    faults["check_symmetrized"] = sym_faults
    return faults


def run_suite(nmax: int, brute_nmax: int, seed: int, traced: bool) -> dict:
    rec = None
    if traced:
        rec = spans.Recorder()
        spans.install(rec)
    from crankrank import verification

    raised = {check.__name__: [] for check in verification.ALL_CHECKS}
    wrong = {name: [] for name in raised}
    try:
        ctx = verification.build_context(nmax, brute_nmax)
    except Exception as exc:  # every check of the pass fails with it
        ctx = None
        for problems in raised.values():
            problems.append(f"build_context raised {exc!r}")
    if ctx is not None:
        for check in verification.ALL_CHECKS:
            try:
                results = check(ctx)
            except Exception as exc:
                raised[check.__name__].append(repr(exc))
                continue
            wrong[check.__name__].extend(
                f"{res.name}: {res.detail}" for res in results if not res.passed
            )
    done_ns = time.monotonic_ns()
    done_cpu_s = time.process_time()
    peak_kb = peak_rss_kb()
    if ctx is not None:
        for name, found in independent_faults(ctx, seed).items():
            wrong[name].extend(found)
    return {
        "done_ns": done_ns,
        "done_cpu_s": done_cpu_s,
        "peak_kb": peak_kb,
        "raised": raised,
        "wrong": wrong,
        "trace": rec.dump() if rec else None,
    }


def run_cli(argv, result_path, traced: bool) -> int:
    rec = None
    if traced:
        rec = spans.Recorder()
        spans.install(rec)
    from crankrank import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"peak_kb": peak_rss_kb(), "trace": rec.dump() if rec else None}, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    traced = "--trace" in sys.argv[:sys.argv.index("--") if "--" in sys.argv else None]
    if mode == "suite":
        nmax, brute_nmax, seed = (int(a) for a in sys.argv[2:5])
        out = run_suite(nmax, brute_nmax, seed, traced)
        with open(sys.argv[5], "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    elif mode == "cli":
        sys.exit(run_cli(sys.argv[sys.argv.index("--") + 1:], sys.argv[2], traced))
    else:
        sys.exit(f"unknown mode {mode!r}")
