"""Asymptotic constants and predictions for positive moment growth.

The whole constant family is expressed through the alternating zeta
function eta(s) = (1 - 2^(1-s)) zeta(s), which stays finite at the small
orders where zeta itself needs analytic continuation; the closed values
eta(1) = log 2, eta(0) = 1/2, eta(-1) = 1/4 absorb every special case.

Growth predictions are carried as logarithms: the governing factor
e^{pi sqrt(2N/3)} leaves double range near N ~ 5000, and comparing exact
big-integer values against predictions is a log-domain subtraction anyway.

An AsymptoticModel bundles, for one moment order r and series side
ell (1 = crank, 3 = rank):

* gamma, delta     -- constants of the exponential-form predictions
                      gamma N^{r/2-1} e^{pi sqrt(2N/3)} for a positive
                      moment and delta N^{r/2-3/2} e^{...} for the
                      crank-minus-rank difference;
* bessel_leading, bessel_second -- constants of the Bessel-form two-term
                      prediction c N^{r/2-3/4} I_{r-3/2}(x)
                      + d N^{r/2-5/4} I_{r-5/2}(x), x = pi sqrt(2N/3);
* appell_leading, appell_second -- coefficients of (-2 pi i tau)^{-r}
                      and (-2 pi i tau)^{-r+1} in the expansion of the
                      Appell-type sum near tau = 0.

The zeta(r-1) weight inside the subleading constant is eta(r-1) =
(1 - 2^(2-r)) zeta(r-1), the factor the derivative recursion for the
theta-like sums produces; a trend test keeps the other printed form,
(1 - 2^(1-r)) zeta(r-1), as its reference and shows its two-term
residuals stalling at 1/sqrt(N) where eta(r-1)'s fall like 1/N.
"""

from __future__ import annotations

import math
from typing import NamedTuple

_ETA_CLOSED = {1: math.log(2.0), 0: 0.5, -1: 0.25}


def dirichlet_eta(s: float) -> float:
    """Alternating zeta value eta(s) = sum (-1)^{n+1} n^{-s}.

    For s > 0 the alternating series is accelerated with the
    Cohen-Rodriguez Villegas-Zagier scheme (relative error well below
    1e-14 at the fixed depth used here).  The closed values at s = 1, 0,
    -1 cover the analytically continued cases the constant family needs
    (order r >= 1 uses eta(r), eta(r-1), eta(r-2)); other s <= 0 are not
    supported.
    """
    if s in _ETA_CLOSED:
        return _ETA_CLOSED[s]
    if s <= 0:
        raise ValueError(f"eta(s) not supported for s = {s}")
    n = 36
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    total = 0.0
    for k in range(n):
        c = b - c
        total += c * (k + 1.0) ** (-s)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return total / d


def _log_bessel_series(nu: float, x: float) -> float:
    """Ascending series for log I_nu(x); all terms positive for nu >= -1/2."""
    quarter = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= quarter / (k * (nu + k))
        total += term
        if term < 1e-18 * total:
            break
        if k > 10**6:
            raise ArithmeticError("Bessel series failed to converge")
    return nu * math.log(0.5 * x) - math.lgamma(nu + 1.0) + math.log(total)


def log_bessel_i(nu: float, x: float) -> float:
    """log I_nu(x) for half-integer nu.

    Half-integer Bessel functions are elementary: with the scaling
    g_nu = I_nu(x) sqrt(2 pi x) e^{-x}, the seeds are
    g_{1/2} = 1 - e^{-2x}, g_{-1/2} = 1 + e^{-2x}, and the three-term
    recurrence I_{nu+1} = I_{nu-1} - (2 nu / x) I_nu moves between orders
    without ever forming e^x.  Upward recurrence is subtraction-unstable
    once nu^2 outgrows x, so moderate arguments switch to the ascending
    power series, whose terms are all positive there.
    """
    two_nu = 2.0 * nu
    if two_nu != round(two_nu) or round(two_nu) % 2 == 0:
        raise ValueError(f"nu must be half an odd integer, got {nu}")
    if x <= 0:
        raise ValueError("x must be positive")
    if nu >= 1.5 and x < min(600.0, 16.0 + 1.6 * nu * nu):
        return _log_bessel_series(nu, x)
    em = math.exp(-2.0 * x)
    g_minus = 1.0 + em   # nu = -1/2
    g_plus = 1.0 - em    # nu = +1/2
    if nu == 0.5:
        g = g_plus
    elif nu == -0.5:
        g = g_minus
    elif nu > 0:
        a, b = g_minus, g_plus
        k = 0.5
        while k < nu:
            a, b = b, a - (2.0 * k / x) * b
            k += 1.0
        g = b
    else:
        a, b = g_plus, g_minus
        k = -0.5
        while k > nu:
            a, b = b, a + (2.0 * k / x) * b
            k -= 1.0
        g = b
    if g <= 0.0:
        raise ArithmeticError(
            f"I_nu({x}) is not positive at nu={nu}; log undefined"
        )
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(g)


class AsymptoticModel(NamedTuple):
    """Constant family for one moment order r and series side ell."""

    r: int
    ell: int
    rho: float
    gamma: float
    delta: float
    bessel_leading: float
    bessel_second: float
    appell_leading: float
    appell_second: float


def build_model(r: int, ell: int) -> AsymptoticModel:
    """Populate every asymptotic constant for order r and side ell."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if ell not in (1, 3):
        raise ValueError(f"ell must be 1 or 3, got {ell}")
    rho = 0.0 if r % 2 == 1 else 0.5
    fact = math.factorial(r)
    sqrt3 = math.sqrt(3.0)

    gamma = fact * dirichlet_eta(r) * 6.0 ** (r / 2.0) / (4.0 * sqrt3 * math.pi ** r)
    delta = (
        fact * dirichlet_eta(r - 2) * 6.0 ** ((r - 1) / 2.0)
        / (4.0 * sqrt3 * math.pi ** (r - 1))
    )

    appell_leading = dirichlet_eta(r)
    appell_second = -(ell / 2.0) * dirichlet_eta(r - 2) - rho * dirichlet_eta(r - 1)

    bessel_leading = (
        appell_leading * 6.0 ** (r / 2.0 - 0.75) / (math.sqrt(2.0) * math.pi ** (r - 1))
    )
    bessel_second = (
        (-appell_leading / 24.0 + appell_second)
        * 6.0 ** (r / 2.0 - 1.25) / (math.sqrt(2.0) * math.pi ** (r - 2))
    )
    return AsymptoticModel(
        r=r, ell=ell, rho=rho,
        gamma=gamma, delta=delta,
        bessel_leading=bessel_leading, bessel_second=bessel_second,
        appell_leading=appell_leading, appell_second=appell_second,
    )


def growth_argument(N: int) -> float:
    """The common Bessel argument pi sqrt(2N/3)."""
    return math.pi * math.sqrt(2.0 * N / 3.0)


PREDICT_TARGETS = ("mu", "eta", "M_pos", "N_pos", "diff")


def predict_log(model: AsymptoticModel, target: str, N: int, terms: int = 1) -> float:
    """Log of the one- or two-term growth prediction at N.

    Exponential-form targets ("M_pos", "N_pos", "diff") only have a
    leading term.  The Bessel-form targets ("mu" for the crank side,
    "eta" for the rank side) support terms=2 for r >= 2, combining the
    two Bessel terms in log space.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if target not in PREDICT_TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if terms not in (1, 2):
        raise ValueError("terms must be 1 or 2")
    r = model.r
    expo = growth_argument(N)
    if target in ("M_pos", "N_pos"):
        if terms != 1:
            raise ValueError(f"no second term available for {target}")
        return math.log(model.gamma) + (r / 2.0 - 1.0) * math.log(N) + expo
    if target == "diff":
        if terms != 1:
            raise ValueError("no second term available for diff")
        return math.log(model.delta) + (r / 2.0 - 1.5) * math.log(N) + expo
    expected_ell = 1 if target == "mu" else 3
    if model.ell != expected_ell:
        raise ValueError(
            f"target {target!r} needs a model with ell={expected_ell}, "
            f"got ell={model.ell}"
        )
    lead = (
        math.log(model.bessel_leading)
        + (r / 2.0 - 0.75) * math.log(N)
        + log_bessel_i(r - 1.5, expo)
    )
    if terms == 1:
        return lead
    if r < 2:
        raise ValueError("two-term prediction needs r >= 2")
    second_mag = (
        math.log(abs(model.bessel_second))
        + (r / 2.0 - 1.25) * math.log(N)
        + log_bessel_i(r - 2.5, expo)
    )
    sign = 1.0 if model.bessel_second > 0 else -1.0
    combined = sign * math.exp(second_mag - lead)
    if combined <= -1.0:
        raise ArithmeticError("two-term prediction is not positive")
    return lead + math.log1p(combined)


class TrendReport(NamedTuple):
    """Exact-versus-predicted comparison along a ladder of N values."""

    target: str
    r: int
    ell: int
    terms: int
    Ns: list
    exact_log: list
    predicted_log: list
    ratios: list
    residuals: list          # |ratio - 1| per ladder point
    decreasing: bool
    fitted_exponent: float
    exponent_stderr: float

    def as_dict(self) -> dict:
        out = self._asdict()
        del out["residuals"]
        return out


def _ols(xs, ys):
    """Slope and its standard error for a least-squares line fit."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    if n > 2:
        rss = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
        stderr = math.sqrt(rss / (n - 2) / sxx)
    else:
        stderr = float("inf")
    return slope, stderr


def trend(Ns, exact_values, model: AsymptoticModel, target: str,
          terms: int = 1) -> TrendReport:
    """Ratios of exact values to predictions along a ladder of N.

    ``exact_values`` are exact integers (or positive floats) aligned with
    ``Ns``; at least three ladder points are required.  The residual
    exponent is the least-squares slope of log |ratio - 1| against log N.
    """
    Ns = list(Ns)
    if len(Ns) < 3:
        raise ValueError("need at least 3 ladder points")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("ladder must be strictly increasing")
    exact_values = list(exact_values)
    if len(exact_values) != len(Ns):
        raise ValueError("one exact value per ladder point required")
    exact_log = []
    for v in exact_values:
        if v <= 0:
            raise ValueError("exact values must be positive")
        exact_log.append(math.log(v))
    predicted_log = [predict_log(model, target, N, terms) for N in Ns]
    ratios = [math.exp(e - p) for e, p in zip(exact_log, predicted_log)]
    residuals = [abs(rat - 1.0) for rat in ratios]
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    slope, stderr = _ols(
        [math.log(N) for N in Ns],
        [math.log(max(res, 1e-300)) for res in residuals],
    )
    return TrendReport(
        target=target, r=model.r, ell=model.ell, terms=terms,
        Ns=Ns, exact_log=exact_log, predicted_log=predicted_log,
        ratios=ratios, residuals=residuals, decreasing=decreasing,
        fitted_exponent=slope, exponent_stderr=stderr,
    )
