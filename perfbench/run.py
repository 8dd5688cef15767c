"""The crankrank benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a source checkout (the program is imported from
``src/``).  Every pass starts fresh interpreters, as a user at a shell
would.  The seed picks the spot-check sample points of the output checks;
the program only ever receives the fixed sizes below.  The last line of
stdout is the result as JSON; ``--record`` also appends it, with the
workload and seed, to FILE for ``compare.py``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clichecks
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / "perfbench" / "out"
PY = sys.executable
DEADLINE_S = 165            # every run ends well inside 180 s
SETUP_SAMPLES = 7

SUITE_NMAX, SUITE_BRUTE_NMAX = 800, 20
SUITE_CHECKS = (
    "check_tables_vs_brute", "check_row_structure", "check_series_basics",
    "check_aggregates", "check_spt_ospt_series_scale", "check_ospt_numerator",
    "check_symmetrized", "check_basis_change", "check_even_moments",
    "check_positive_inequality", "check_ospt_monotone", "check_ramanujan",
    "check_parity",
)


class Failure(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn(argv, deadline):
    """Run ``argv`` to completion; return (returncode, stdout, start_ns, end_ns, cpu_s).

    ``cpu_s`` is the user plus system CPU time of the process and all its
    threads; spawns run one at a time, so the change of RUSAGE_CHILDREN
    around the wait is this process's alone.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    chunks = []
    cpu_before = children_cpu_s()
    with open(OUT / "stderr.txt", "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError(f"{argv[1:4]} did not finish in time")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise TimeoutError(f"{argv[1:4]} did not exit in time") from exc
        end = time.monotonic_ns()
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return proc.returncode, b"".join(chunks), start, end, children_cpu_s() - cpu_before


def stderr_tail() -> str:
    return (OUT / "stderr.txt").read_text(errors="replace")[-300:]


def check_source(deadline) -> None:
    if not (ROOT / "BENCHMARK.json").is_file():
        raise Failure(f"no BENCHMARK.json in {ROOT}; run from the root of a checkout")
    if not (SRC / "crankrank" / "__init__.py").is_file():
        raise Failure(f"no crankrank source under {SRC}; run from the root of a checkout")
    rc, out, *_ = spawn([PY, "-c", "import crankrank.cli; print(crankrank.cli.__file__)"], deadline)
    if rc != 0 or not Path(out.decode().strip()).is_relative_to(SRC):
        raise Failure(f"crankrank is not importable from {SRC}: {stderr_tail()}")


def setup_seconds(deadline) -> float:
    """Fresh interpreter to ``import crankrank.cli`` done: the whole package, numpy included."""
    rc, out, start, *_ = spawn(
        [PY, "-c", "import time, crankrank.cli; print(time.monotonic_ns())"], deadline)
    if rc != 0:
        raise Failure(f"import failed: {stderr_tail()}")
    return (int(out) - start) / 1e9


class Pass:
    """What one pass measured: wall and CPU time, peak RSS, operations and their faults."""

    def __init__(self):
        self.wall_ns = 0
        self.cpu_s = 0.0
        self.peak_kb = 0
        self.faults = {}        # operation -> list of problems; empty list = passed
        self.wrong = False      # some output contradicted an independent computation
        self.cmd_s = {}
        self.processes = []     # traced passes: spans per process


class Workload:
    def __init__(self, seed, deadline):
        self.seed = seed
        self.deadline = deadline


class IdentityDeep(Workload):
    """build_context(SUITE_NMAX, SUITE_BRUTE_NMAX) and every ALL_CHECKS entry in one interpreter."""

    ops_per_pass = len(SUITE_CHECKS)

    def run_pass(self, traced: bool) -> Pass:
        result_path = OUT / "suite.json"
        result_path.unlink(missing_ok=True)
        argv = [PY, str(BENCH / "child.py"), "suite", str(SUITE_NMAX), str(SUITE_BRUTE_NMAX),
                str(self.seed), str(result_path)] + (["--trace"] if traced else [])
        pas = Pass()
        try:
            rc, _, start, *_ = spawn(argv, self.deadline)
            if rc != 0:
                raise RuntimeError(f"suite process exited {rc}: {stderr_tail()}")
            result = json.loads(result_path.read_text())
        except (TimeoutError, RuntimeError, OSError, ValueError) as exc:
            pas.faults = {name: [repr(exc)] for name in SUITE_CHECKS}
            return pas
        pas.wall_ns = result["done_ns"] - start
        pas.cpu_s = result["done_cpu_s"]
        pas.peak_kb = result["peak_kb"]
        for name in SUITE_CHECKS:
            raised = result["raised"].get(name, ["check missing from ALL_CHECKS"])
            wrong = result["wrong"].get(name, [])
            pas.faults[name] = raised + wrong
            pas.wrong |= bool(wrong)
        if traced:
            pas.processes.append(dict(result["trace"], wall_ns=pas.wall_ns, stdout_bytes=0))
        return pas


class CliSession(Workload):
    """Each command in its own fresh interpreter; outputs checked after the pass."""

    commands = clichecks.CLI_SESSION
    needs_reference = True

    def __init__(self, seed, deadline):
        super().__init__(seed, deadline)
        self.ops_per_pass = len(self.commands)
        self.reference = clichecks.Reference(seed) if self.needs_reference else None
        self.verified = None    # command -> digest of outputs that passed every check

    def run_pass(self, traced: bool) -> Pass:
        pas = Pass()
        outputs = {}
        for name, args in self.commands:
            result_path = OUT / f"cli-{name}.json"
            result_path.unlink(missing_ok=True)
            argv = [PY, str(BENCH / "child.py"), "cli", str(result_path)] + (
                ["--trace"] if traced else []) + ["--"] + args
            try:
                rc, out, start, end, cpu_s = spawn(argv, self.deadline)
            except TimeoutError as exc:
                pas.faults[name] = [repr(exc)]
                continue
            pas.wall_ns += end - start
            pas.cpu_s += cpu_s
            pas.cmd_s[name] = cpu_s
            if rc != 0:
                pas.faults[name] = [f"exit code {rc}: {stderr_tail()}"]
                continue
            result = json.loads(result_path.read_text())
            pas.peak_kb = max(pas.peak_kb, result["peak_kb"])
            outputs[name] = out
            if traced:
                pas.processes.append(dict(result["trace"], wall_ns=end - start, stdout_bytes=len(out)))
        digests = {name: hashlib.sha256(out).digest() for name, out in outputs.items()}
        if digests == self.verified:
            # byte-identical to outputs that already passed every check
            pas.faults.update((name, []) for name in outputs)
            return pas
        parsed = {}
        for name, out in outputs.items():
            try:
                faults = clichecks.CHECKS[name](out.decode(), self.reference, parsed)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                faults = [f"unreadable output: {exc!r}"]
            pas.faults[name] = faults
            pas.wrong |= bool(faults)
        if len(outputs) == len(self.commands) and not any(pas.faults.values()):
            self.verified = digests
        return pas


class OracleSmall(CliSession):
    """``crankrank verify --nmax 200`` as the README documents it."""

    commands = clichecks.ORACLE_SESSION
    needs_reference = False


WORKLOADS = {
    "identity-deep": IdentityDeep,
    "oracle-small": OracleSmall,
    "cli-session": CliSession,
}


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload_name: str, seed: int, seconds: float, trace: bool):
    started = time.monotonic()
    deadline = started + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    check_source(deadline)      # also a warm-up start: it writes the bytecode caches where Python may
    workload = WORKLOADS[workload_name](seed, deadline)
    setups = [] if trace else [setup_seconds(deadline) for _ in range(SETUP_SAMPLES)]

    plain, traced = [], []
    begin = time.monotonic()
    while True:
        plain.append(workload.run_pass(traced=False))
        if trace:
            traced.append(workload.run_pass(traced=True))
        elapsed = time.monotonic() - begin
        rounds = len(plain)
        print(f"{workload_name} round {rounds}: cpu {plain[-1].cpu_s:.3f} s,"
              f" wall {plain[-1].wall_ns / 1e9:.3f} s"
              + (f", traced cpu {traced[-1].cpu_s:.3f} s" if trace else ""), flush=True)
        if elapsed * (rounds + 1) / rounds > seconds or time.monotonic() + elapsed / rounds > deadline:
            break

    passes = plain + traced
    attempted = workload.ops_per_pass * len(passes)
    failed = sum(1 for pas in passes for faults in pas.faults.values() if faults)
    for pas in passes:
        for name, faults in pas.faults.items():
            for fault in faults[:3]:
                print(f"FAULT {name}: {fault}", flush=True)
    timed = [pas for pas in plain if pas.wall_ns]
    if trace:
        metrics = per_layer(plain, traced)
        with open(OUT / f"trace-{workload_name}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump([pas.processes for pas in traced], fh)
    else:
        metrics = {
            "setup_s": median(setups),
            "cpu_s": median([pas.cpu_s for pas in timed]),
            "peak_rss_mb": median([pas.peak_kb / 1024 for pas in timed]),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    return {
        "correct": not any(pas.wrong for pas in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }


def per_layer(plain, traced) -> dict:
    """Medians over traced passes of each layer metric, plus the trace overhead."""
    samples = [spans.layer_metrics(pas.processes, SUITE_CHECKS) for pas in traced if pas.processes]
    samples = samples or [spans.layer_metrics([], SUITE_CHECKS)]     # every traced pass failed
    metrics = {name: median([s[name] for s in samples]) for name in samples[0]}
    plain_cpu = median([pas.cpu_s for pas in plain if pas.wall_ns])
    traced_cpu = median([pas.cpu_s for pas in traced if pas.wall_ns])
    metrics["trace.overhead_s"] = traced_cpu - plain_cpu
    metrics["pass.wall_s"] = median([pas.wall_ns / 1e9 for pas in plain if pas.wall_ns])
    for name, _ in clichecks.CLI_SESSION:
        metrics[f"cmd.{name}_s"] = median([pas.cmd_s[name] for pas in plain if name in pas.cmd_s])
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result, with workload and seed, to this file")
    args = parser.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(workload=args.workload, seed=args.seed, trace=args.trace,
                                     seconds=args.seconds, **result)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
