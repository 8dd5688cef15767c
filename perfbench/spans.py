"""Spans and counts recorded around calls into crankrank's public functions.

``install`` replaces module and class attributes with wrappers that append
one span (name, start, end, parent) per call to an in-memory list.  The
program's own modules look these attributes up at call time, so internal
calls are recorded too.  ``layer_metrics`` turns the spans of one pass into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from oracle import partition_counts

LAYERS = ("series", "moments", "partitions", "verification", "asymptotics",
          "circle", "parity", "cli")


class Recorder:
    """Spans as [name, start_ns, end_ns, parent_index] plus named counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, fn, name, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.monotonic_ns(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.monotonic_ns()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def install(rec: Recorder) -> None:
    """Wrap the public functions of every crankrank module."""
    from crankrank import (asymptotics, circle, cli, moments, parity,
                           partitions, series, verification)

    table = moments.CrankRankTable
    targets = [
        (series, "partition_series", "series.partition_series"),
        (series, "bivariate_series", "series.bivariate_series"),
        (series, "appell_sum", "series.appell_sum"),
        (series, "ospt_numerator", "series.ospt_numerator"),
        (series.ExactSeries, "__mul__", "series.mul"),
        (series, "euler_inverse_value", "series.value"),
        (series, "appell_sum_value", "series.value"),
        (series, "ospt_numerator_value", "series.value"),
        (table, "positive_moments_upto", "moments.positive_moments_upto"),
        (table, "full_even_moments_upto", "moments.full_even_moments_upto"),
        (table, "full_moment", "moments.full_moment"),
        (table, "symmetrized_moment", "moments.symmetrized_moment"),
        (moments, "symmetrized_series", "moments.symmetrized_series"),
        (moments, "positive_moment_series", "moments.positive_moment_series"),
        (moments, "spt_ospt", "moments.spt_ospt"),
        (partitions, "brute_distribution", "partitions.brute_distribution"),
        (partitions, "brute_aggregates", "partitions.brute_aggregates"),
        (verification, "build_context", "verification.build_context"),
        (asymptotics, "trend", "asymptotics.trend"),
        (asymptotics, "build_model", "asymptotics.build_model"),
        (circle, "away_bound_rows", "circle.away_bound_rows"),
        (parity, "factorize", "parity.factorize"),
        (parity, "parity_predict", "parity.parity_predict"),
        (parity, "parity_rows", "parity.parity_rows"),
        (cli, "main", "cli.main"),
    ]
    for owner, attr, name in targets:
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name))

    build = table.__dict__["build"].__func__
    table.build = classmethod(rec.wrap(build, "moments.table_build"))

    def count_panels(report):
        rec.counts["circle.panels"] += sum(report.panels)

    circle.wright_integrals = rec.wrap(
        circle.wright_integrals, "circle.wright_integrals", count_panels)

    # ALL_CHECKS holds direct references, so its entries are wrapped in place
    verification.ALL_CHECKS = tuple(
        rec.wrap(check, f"verification.{check.__name__}")
        for check in verification.ALL_CHECKS
    )

    # partitions_of is a generator consumed inside brute_*; it is counted,
    # with p(n) taken from the call argument, rather than timed
    p = partition_counts(partitions.ENUMERATION_CAP)
    enumerate_partitions = partitions.partitions_of

    @functools.wraps(enumerate_partitions)
    def partitions_of(n, *args, **kwargs):
        rec.counts["partitions.partitions_of_calls"] += 1
        if 0 <= n < len(p):
            rec.counts["partitions.enumerated"] += p[n]
        return enumerate_partitions(n, *args, **kwargs)

    partitions.partitions_of = partitions_of


def self_times(spans) -> list:
    """Duration minus the time covered by direct children, per span, in ns."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(processes, check_names) -> dict:
    """Per-layer metrics of one pass.

    ``processes`` is a list of dicts with ``spans``, ``counts``, ``wall_ns``
    (the process's share of the pass) and ``stdout_bytes`` (cli output,
    0 when the pass does not run the cli).
    """
    self_ns = Counter()
    calls = Counter()
    counts = Counter()
    covered = 0
    wall = 0
    stdout_bytes = 0
    for proc in processes:
        spans = proc["spans"]
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            self_ns[name] += own
            calls[name] += 1
            if parent is None:
                covered += end - start
        counts.update(proc["counts"])
        wall += proc["wall_ns"]
        stdout_bytes += proc["stdout_bytes"]

    def s(name):
        return self_ns[name] / 1e9

    m = {
        "series.partition_series_s": s("series.partition_series"),
        "series.bivariate_series_s": s("series.bivariate_series"),
        "series.bivariate_series_calls": calls["series.bivariate_series"],
        "series.appell_sum_s": s("series.appell_sum"),
        "series.appell_sum_calls": calls["series.appell_sum"],
        "series.mul_s": s("series.mul"),
        "series.mul_calls": calls["series.mul"],
        "series.ospt_numerator_s": s("series.ospt_numerator"),
        "series.value_s": s("series.value"),
        "series.value_calls": calls["series.value"],
        "moments.table_build_s": s("moments.table_build"),
        "moments.table_build_calls": calls["moments.table_build"],
        "moments.positive_moments_upto_s": s("moments.positive_moments_upto"),
        "moments.full_even_moments_upto_s": s("moments.full_even_moments_upto"),
        "moments.full_moment_s": s("moments.full_moment"),
        "moments.symmetrized_moment_s": s("moments.symmetrized_moment"),
        "moments.symmetrized_series_calls": calls["moments.symmetrized_series"],
        "moments.positive_moment_series_s": s("moments.positive_moment_series"),
        "moments.spt_ospt_s": s("moments.spt_ospt"),
        "moments.spt_ospt_calls": calls["moments.spt_ospt"],
        "partitions.enumerated": counts["partitions.enumerated"],
        "partitions.partitions_of_calls": counts["partitions.partitions_of_calls"],
        "partitions.brute_distribution_s": s("partitions.brute_distribution"),
        "partitions.brute_aggregates_s": s("partitions.brute_aggregates"),
        "verification.build_context_s": s("verification.build_context"),
    }
    for name in check_names:
        m[f"verification.{name}_s"] = s(f"verification.{name}")
    m.update({
        "asymptotics.trend_s": s("asymptotics.trend"),
        "asymptotics.trend_calls": calls["asymptotics.trend"],
        "asymptotics.build_model_s": s("asymptotics.build_model"),
        "circle.wright_integrals_s": s("circle.wright_integrals"),
        "circle.wright_integrals_calls": calls["circle.wright_integrals"],
        "circle.panels": counts["circle.panels"],
        "circle.away_bound_rows_s": s("circle.away_bound_rows"),
        "parity.factorize_s": s("parity.factorize"),
        "parity.factorize_calls": calls["parity.factorize"],
        "parity.parity_rows_s": s("parity.parity_rows"),
        "cli.stdout_bytes": stdout_bytes,
    })
    oracle_s = m["partitions.brute_distribution_s"] + m["partitions.brute_aggregates_s"]
    m["partitions.per_s"] = m["partitions.enumerated"] / oracle_s if oracle_s else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            ns for name, ns in self_ns.items() if name.startswith(layer + ".")
        ) / 1e9
    m["trace.unattributed_s"] = (wall - covered) / 1e9
    return m
