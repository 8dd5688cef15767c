"""Exact crank/rank partition statistics with asymptotic verification.

The package computes crank and rank distributions, their full, positive,
and symmetrized moments, and the spt/ospt sequences exactly via
big-integer q-series, then measures the exact data against the governing
growth formulas, reproduces coefficients by contour integration, and
characterizes ospt parity arithmetically.
"""

import importlib

#: Each re-exported name and the submodule that defines it.  A name's
#: submodule is imported on first access (PEP 562), so ``import crankrank``
#: and each CLI command load only the submodules they use.
_EXPORTS = {
    "BivariateSeries": "series",
    "CrankRankTable": "moments",
    "ExactSeries": "series",
    "appell_sum": "series",
    "basis_change_coeffs": "moments",
    "bivariate_series": "series",
    "brute_aggregates": "partitions",
    "brute_distribution": "partitions",
    "euler_function": "series",
    "ospt_numerator": "series",
    "partition_series": "series",
    "partitions_of": "partitions",
    "spt_ospt": "moments",
    "symmetrized_series": "moments",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value

__version__ = "0.1.0"
