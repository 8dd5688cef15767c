"""Checks of crankrank command-line output against independent computations.

Each ``check_<command>`` takes the command's stdout (text), the shared
``Reference`` and the parsed outputs of earlier commands of the same pass,
and returns a list of faults (empty when the output is right).
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict

import oracle

# Sizes of the cli-session commands; each takes about a second or more.
TABLES_NMAX = 400
MOMENTS_NMAX = 600
FULL_NMAX = 300
SPT_NMAX = 1000
PARITY_NMAX = 1000
ASYM_LADDER = (250, 500, 1000, 2000)      # the asym default
CIRCLE_LADDER = (50, 100, 200, 400)       # inside the tables range
KIND_OF_ELL = {1: "crank", 3: "rank"}

#: (operation name, crankrank arguments), run in this order: later checks
#: read the parsed output of earlier commands.
CLI_SESSION = (
    ("tables", ["tables", "--nmax", str(TABLES_NMAX), "--kind", "both"]),
    ("moments-positive", ["moments", "--nmax", str(MOMENTS_NMAX), "--r", "1,2,3,4,5,6"]),
    ("moments-full", ["moments", "--nmax", str(FULL_NMAX), "--r", "1,2,3,4", "--variant", "full"]),
    ("spt-ospt", ["spt-ospt", "--nmax", str(SPT_NMAX)]),
    ("asym", ["asym"]),
    ("circle", ["circle", "--r", "1,2,3,4,5,6", "--ladder", ",".join(map(str, CIRCLE_LADDER))]),
    ("parity", ["parity", "--nmax", str(PARITY_NMAX)]),
)
ORACLE_SESSION = (("verify", ["verify", "--nmax", "200"]),)


class Reference:
    """p(N) to the largest size and spt(N) at the seeded sample points and the asym ladder."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # three spot checks below each size limit a command uses
        self.points = sorted({rng.randint(1, top) for top in (FULL_NMAX, TABLES_NMAX, MOMENTS_NMAX, SPT_NMAX)
                              for _ in range(3)})
        self.p = oracle.partition_counts(ASYM_LADDER[-1])
        self.spt = oracle.spt_at(self.points + list(ASYM_LADDER))

    def upto(self, top):
        return [N for N in self.points if N <= top]


def _csv_rows(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def parse_tables(text: str) -> dict:
    rows = {"crank": defaultdict(dict), "rank": defaultdict(dict)}
    for kind, n, m, c in _csv_rows(text, "kind,n,m,coefficient"):
        rows[kind][int(n)][int(m)] = int(c)
    return rows


def check_tables(text, ref, parsed):
    rows = parse_tables(text)
    parsed["tables"] = rows
    faults = []
    for kind, table in rows.items():
        if sorted(table) != list(range(TABLES_NMAX + 1)):
            faults.append(f"{kind} rows are not exactly N = 0..{TABLES_NMAX}")
    if rows["crank"].get(1) != {-1: 1, 0: -1, 1: 1}:
        faults.append("crank row N=1 is not the generating-function row")
    return faults + oracle.table_faults(rows, ref.p)


def _moment_values(text, variant, nmax, r_list):
    values = {}
    for kind, var, r, ell, N, v in _csv_rows(text, "kind,variant,r,ell,N,value"):
        if var != variant or KIND_OF_ELL.get(int(ell)) != kind:
            raise ValueError(f"unexpected row {kind},{var},{r},{ell}")
        values.setdefault((kind, int(r)), []).append((int(N), int(v)))
    want = {(kind, r) for kind in ("crank", "rank") for r in r_list}
    if set(values) != want:
        raise ValueError(f"moment families {sorted(values)} != {sorted(want)}")
    out = {}
    for key, pairs in values.items():
        if [N for N, _ in pairs] != list(range(nmax + 1)):
            raise ValueError(f"{key} does not cover N = 0..{nmax} in order")
        out[key] = [v for _, v in pairs]
    return out


def check_moments_positive(text, ref, parsed):
    vals = _moment_values(text, "positive", MOMENTS_NMAX, range(1, 7))
    parsed["moments-positive"] = vals
    p, faults = ref.p, []
    faults += [f"crank M2+({N}) != N p(N)" for N in range(MOMENTS_NMAX + 1)
               if vals["crank", 2][N] != N * p[N]]
    faults += [f"rank N2+({N}) != N p(N) - spt(N)" for N in ref.upto(MOMENTS_NMAX)
               if vals["rank", 2][N] != N * p[N] - ref.spt[N]]
    tables = parsed.get("tables")
    if tables is None:
        return faults + ["tables output unavailable for the table-route spot checks"]
    for N in ref.upto(TABLES_NMAX):
        for (kind, r), v in vals.items():
            if v[N] != oracle.positive_moment(tables[kind][N], r):
                faults.append(f"{kind} positive r={r} at N={N} differs from the tables output")
    return faults


def check_moments_full(text, ref, parsed):
    vals = _moment_values(text, "full", FULL_NMAX, range(1, 5))
    p, faults = ref.p, []
    for kind in ("crank", "rank"):
        for r in (1, 3):
            faults += [f"{kind} odd full moment r={r} at N={N} is nonzero"
                       for N, v in enumerate(vals[kind, r]) if v]
    faults += [f"crank M2({N}) != 2N p(N)" for N in range(FULL_NMAX + 1)
               if vals["crank", 2][N] != 2 * N * p[N]]
    faults += [f"rank N2({N}) != 2(N p(N) - spt(N))" for N in ref.upto(FULL_NMAX)
               if vals["rank", 2][N] != 2 * (N * p[N] - ref.spt[N])]
    tables = parsed.get("tables")
    if tables is None:
        return faults + ["tables output unavailable for the table-route spot checks"]
    for N in ref.upto(min(FULL_NMAX, TABLES_NMAX)):
        for kind in ("crank", "rank"):
            if vals[kind, 4][N] != oracle.full_moment(tables[kind][N], 4):
                faults.append(f"{kind} full r=4 at N={N} differs from the tables output")
    return faults


def check_spt_ospt(text, ref, parsed):
    rows = _csv_rows(text, "N,spt,ospt")
    if [int(N) for N, _, _ in rows] != list(range(1, SPT_NMAX + 1)):
        return [f"rows are not exactly N = 1..{SPT_NMAX}"]
    spt = [0] + [int(s) for _, s, _ in rows]
    ospt = [0] + [int(o) for _, _, o in rows]
    parsed["spt-ospt"] = (spt, ospt)
    faults = [f"spt({N}) = {spt[N]}, recurrence gives {ref.spt[N]}"
              for N in ref.upto(SPT_NMAX) if spt[N] != ref.spt[N]]
    faults += oracle.spt_congruence_faults(spt)
    pos = parsed.get("moments-positive")
    if pos is None:
        return faults + ["moments output unavailable for the moment-difference spot checks"]
    for N in range(1, min(SPT_NMAX, MOMENTS_NMAX) + 1):
        if spt[N] != pos["crank", 2][N] - pos["rank", 2][N]:
            faults.append(f"spt({N}) != M2+ - N2+")
        if ospt[N] != pos["crank", 1][N] - pos["rank", 1][N]:
            faults.append(f"ospt({N}) != M1+ - N1+")
    return faults


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * abs(b)


def check_asym(text, ref, parsed):
    payload = json.loads(text)
    trends = {(t["target"], t["r"]): t for t in payload["trends"]}
    want = {(target, r) for target in ("M_pos", "N_pos", "diff") for r in range(1, 7)}
    if set(trends) != want:
        return [f"trend families {sorted(trends)} != {sorted(want)}"]
    faults = []
    for key, t in trends.items():
        if tuple(t["Ns"]) != ASYM_LADDER:
            faults.append(f"{key} ladder {t['Ns']}")
            continue
        residuals = [abs(x - 1.0) for x in t["ratios"]]
        if not all(b < a for a, b in zip(residuals, residuals[1:])):
            faults.append(f"{key} residuals do not decrease: {residuals}")
        if not residuals[-1] < 0.15:
            faults.append(f"{key} residual {residuals[-1]} at N=2000 is not under 15%")
    for i, N in enumerate(ASYM_LADDER):
        if not _close(trends["diff", 2]["exact_log"][i], math.log(ref.spt[N])):
            faults.append(f"diff r=2 exact_log at N={N} != log spt(N)")
        if not _close(trends["M_pos", 2]["exact_log"][i], math.log(N * ref.p[N])):
            faults.append(f"M_pos r=2 exact_log at N={N} != log(N p(N))")
    if tuple(payload["ospt_vs_quarter_p"]["Ns"]) != ASYM_LADDER:
        faults.append("ospt_vs_quarter_p ladder")
    return faults


def check_circle(text, ref, parsed):
    reports = json.loads(text)
    got = sorted((rep["ell"], rep["r"], rep["N"]) for rep in reports)
    want = sorted((ell, r, N) for ell in (1, 3) for r in range(1, 7) for N in CIRCLE_LADDER)
    if got != want:
        return [f"report keys {got} != {want}"]
    faults = [f"ell={rep['ell']} r={rep['r']} N={rep['N']} relative error {rep['relative_error']}"
              for rep in reports if not rep["relative_error"] <= 1e-6]
    tables = parsed.get("tables")
    if tables is None:
        return faults + ["tables output unavailable for the exact-coefficient checks"]
    for rep in reports:
        row = tables[KIND_OF_ELL[rep["ell"]]][rep["N"]]
        if int(rep["exact"]) != oracle.symmetrized_moment(row, rep["r"]):
            faults.append(f"ell={rep['ell']} r={rep['r']} N={rep['N']} exact differs "
                          "from the binomial-weighted table sum")
    return faults


def check_parity(text, ref, parsed):
    from sympy import isprime

    rows = _csv_rows(text, "N,24N-1,factorization,predicted_parity,ospt_mod_2,spt_mod_2")
    if [int(r[0]) for r in rows] != list(range(1, PARITY_NMAX + 1)):
        return [f"rows are not exactly N = 1..{PARITY_NMAX}"]
    spt_ospt = parsed.get("spt-ospt")
    faults = [] if spt_ospt else ["spt-ospt output unavailable for the parity comparison"]
    for N_text, arg, factorization, predicted, ospt2, spt2 in rows:
        N = int(N_text)
        product = 1
        for factor in factorization.split("*"):
            prime, _, exponent = factor.partition("^")
            if not isprime(int(prime)):
                faults.append(f"N={N}: factor {prime} is not prime")
            product *= int(prime) ** int(exponent or 1)
        if not int(arg) == product == 24 * N - 1:
            faults.append(f"N={N}: factors multiply to {product}, not 24N-1")
        if not predicted == ospt2 == spt2:
            faults.append(f"N={N}: predicted {predicted}, ospt mod 2 {ospt2}, spt mod 2 {spt2}")
        if spt_ospt and (int(spt2) != spt_ospt[0][N] % 2 or int(ospt2) != spt_ospt[1][N] % 2):
            faults.append(f"N={N}: parities differ from the spt-ospt output")
    return faults


def check_verify(text, ref, parsed):
    lines = text.splitlines()
    faults = [line for line in lines if not line.startswith("PASS ")]
    brute = [line for line in lines if line.startswith("PASS table-vs-brute-")]
    if len(brute) != 2 or not all(line.endswith("..40 match enumeration") for line in brute):
        faults.append("brute-force table comparison does not cover N <= 40")
    if len(lines) < 2:
        faults.append("no check lines")
    return faults


CHECKS = {
    "tables": check_tables,
    "moments-positive": check_moments_positive,
    "moments-full": check_moments_full,
    "spt-ospt": check_spt_ospt,
    "asym": check_asym,
    "circle": check_circle,
    "parity": check_parity,
    "verify": check_verify,
}
