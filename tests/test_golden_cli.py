"""Golden CLI transcripts: every subcommand's bytes, pinned by digest.

``golden_cli.json`` holds one entry per argument list: the exit code and
the SHA-256 digests of stdout and stderr, plus the digest of the file an
``{out}`` argument names.  ``circle`` entries pin only the exact fields of
each report (N, ell, r, exact, panels); its float fields are checked
against their own certificates instead, since they may move in the last
bits with the numerics library.

The table is written once from a known-good tree and never regenerated to
make a change pass.  A change that means to alter some output rewrites the
affected entries in its own commit (``python tests/test_golden_cli.py``
prints the whole table) and says why.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from crankrank import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

#: The quadrature target of ``circle.wright_integrals``: each arc refines
#: until its panel-doubling change is below half of this, relative.
CIRCLE_TARGET_REL = 1e-8

EXACT_CIRCLE_FIELDS = ("N", "ell", "r", "exact", "panels")

CIRCLE_ARGUMENT_LISTS = [
    ["circle", "--ladder", "50", "--r", "3", "--ell", "1"],
    ["circle", "--ladder", "20,40", "--r", "1,2", "--ell", "3"],
    # the benchmark's circle command: panels at N = 200 and 400, where the
    # Appell sums run longest
    ["circle", "--r", "1,2,3,4,5,6", "--ladder", "50,100,200,400"],
]

ARGUMENT_LISTS = [
    # tables
    ["tables", "--nmax", "0"],
    ["tables", "--nmax", "12"],
    ["tables", "--nmax", "10", "--kind", "both"],
    ["tables", "--nmax", "8", "--kind", "both", "--format", "json"],
    ["tables", "--nmax", "9", "--kind", "rank", "--format", "json"],
    ["tables", "--nmax", "6", "--convention", "combinatorial"],
    ["tables", "--nmax", "6", "--kind", "both", "--convention", "combinatorial",
     "--format", "json"],
    ["tables", "--nmax", "7", "--out", "{out}"],
    # moments
    ["moments", "--nmax", "20", "--r", "1,2,3"],
    ["moments", "--nmax", "12", "--r", "1,4,10", "--ell", "3", "--format", "json"],
    ["moments", "--nmax", "15", "--r", "1,2,3,4", "--variant", "full"],
    ["moments", "--nmax", "12", "--r", "2,5,6", "--variant", "full", "--ell", "1",
     "--format", "json"],
    ["moments", "--nmax", "20", "--r", "1,2,6", "--variant", "symmetrized"],
    ["moments", "--nmax", "10", "--r", "3", "--variant", "symmetrized",
     "--ell", "3", "--format", "json"],
    ["moments", "--nmax", "9", "--variant", "full", "--out", "{out}"],
    # the other exact commands
    ["spt-ospt", "--nmax", "30"],
    ["spt-ospt", "--nmax", "12", "--format", "json"],
    ["parity", "--nmax", "30"],
    ["parity", "--nmax", "12", "--format", "json"],
    ["verify", "--nmax", "30", "--out", "{out}"],
    ["asym", "--ladder", "60,120,240", "--r", "2"],
    # circle: exact fields only
    *CIRCLE_ARGUMENT_LISTS,
    # usage errors (exit 1)
    [],
    ["mystery"],
    ["tables", "--mystery"],
    ["tables", "--nmax", "-3"],
    ["tables", "--kind", "spin"],
    ["tables", "--dtilde-variant", "eta"],
    ["moments", "--nmax", "4", "--r", "0"],
    ["moments", "--r", "a,b"],
    ["moments", "--ell", "2"],
    ["spt-ospt", "--r", "1"],
    ["verify", "--format", "json"],
    ["asym", "--ladder", "100,50,200"],
    ["asym", "--ladder", "60,120"],
    ["circle", "--ladder", "50", "--format", "csv"],
    ["circle", "--ladder", "50,100000000"],
    ["parity", "--ladder", "1,2,3"],
    # resource limit (exit 3)
    ["tables", "--nmax", "1000000"],
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(args, tmp_dir: Path):
    """Run the CLI in-process on ``args``; return (exit code, stdout, stderr, out file)."""
    out_path = tmp_dir / "out.txt"
    argv = [str(out_path) if a == "{out}" else a for a in args]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    out = out_path.read_text(encoding="utf-8") if "{out}" in args else None
    return code, stdout.getvalue(), stderr.getvalue(), out


def _circle_exact(stdout: str) -> str:
    return json.dumps([{k: rep[k] for k in EXACT_CIRCLE_FIELDS}
                       for rep in json.loads(stdout)], sort_keys=True)


def transcript(args, tmp_dir: Path) -> dict:
    """The golden entry of one argument list."""
    code, stdout, stderr, out = run(args, tmp_dir)
    entry = {"args": args, "exit": code, "stderr": _digest(stderr)}
    if args and args[0] == "circle" and code == 0:
        entry["circle_exact"] = _digest(_circle_exact(stdout))
    else:
        entry["stdout"] = _digest(stdout)
    if out is not None:
        entry["out"] = _digest(out)
    return entry


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_table_covers_the_argument_lists():
    assert [entry["args"] for entry in _golden()] == ARGUMENT_LISTS
    commands = {entry["args"][0] for entry in _golden() if entry["exit"] == 0}
    assert commands == set(cli._COMMANDS)
    assert {entry["exit"] for entry in _golden()} == {0, 1, 3}


@pytest.mark.parametrize("index", range(len(ARGUMENT_LISTS)),
                         ids=[" ".join(args) or "(none)" for args in ARGUMENT_LISTS])
def test_transcript(index, tmp_path):
    entry = _golden()[index]
    assert transcript(entry["args"], tmp_path) == entry


@pytest.mark.parametrize("args", CIRCLE_ARGUMENT_LISTS, ids=" ".join)
def test_circle_floats_within_certificates(args, tmp_path):
    code, stdout, _, _ = run(args, tmp_path)
    assert code == 0
    for rep in json.loads(stdout):
        exact = int(rep["exact"])
        main, error = complex(*rep["main_arc"]), complex(*rep["error_arc"])
        assert main.imag == error.imag == 0.0
        # each arc stopped once its panel-doubling change fell below half the target
        assert 0.0 <= rep["quadrature_error_estimate"] <= CIRCLE_TARGET_REL
        assert rep["relative_error"] <= CIRCLE_TARGET_REL
        assert abs(main + error - exact) <= rep["relative_error"] * exact * (1 + 1e-12)
        assert rep["arc_ratio"] == pytest.approx(abs(error) / abs(main), rel=1e-12)
        assert rep["arc_ratio"] < 1.0


if __name__ == "__main__":  # print the table for the current tree
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = [transcript(args, Path(tmp)) for args in ARGUMENT_LISTS]
    json.dump(table, sys.stdout, indent=1)
    sys.stdout.write("\n")
