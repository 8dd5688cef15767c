"""Exact crank/rank partition statistics with asymptotic verification.

The package computes crank and rank distributions, their full, positive,
and symmetrized moments, and the spt/ospt sequences exactly via
big-integer q-series, then measures the exact data against the governing
growth formulas, reproduces coefficients by contour integration, and
characterizes ospt parity arithmetically.
"""

from .moments import CrankRankTable, basis_change_coeffs, spt_ospt, symmetrized_series
from .partitions import brute_aggregates, brute_distribution, partitions_of
from .series import (
    BivariateSeries,
    ExactSeries,
    appell_sum,
    bivariate_series,
    euler_function,
    ospt_numerator,
    partition_series,
)

__all__ = [
    "BivariateSeries",
    "CrankRankTable",
    "ExactSeries",
    "appell_sum",
    "basis_change_coeffs",
    "bivariate_series",
    "brute_aggregates",
    "brute_distribution",
    "euler_function",
    "ospt_numerator",
    "partition_series",
    "partitions_of",
    "spt_ospt",
    "symmetrized_series",
]

__version__ = "0.1.0"
