"""Numerical verification of the contour-integral route to moment growth.

The exact coefficients of A_{ell,r}(q)/(q;q)_inf, A being the Appell-type
sum ``series.appell_sum``, can be recovered by integrating around a circle
of radius e^{-pi/sqrt(6N)}: a short main arc near q = 1 carries essentially
all of the integral, and the long error arc is exponentially smaller.
This module implements that split numerically (``wright_integrals``), the
partial-fraction expansion of the cotangent-type kernel behind the pole
analysis (``ml_alphas``), the weighted theta sums controlling the main arc
(``alternating_theta``), Wright's auxiliary Bessel-like contour integral
(``wright_auxiliary``), and the Bernoulli-polynomial asymptotic expansion
of sampled smooth sums (``zagier_expansion`` and friends) that powers the
small-argument limits.

Complex evaluation near the unit circle always goes through the certified
series module ``*_value`` functions, on whole arrays of quadrature nodes,
never through truncated integer expansions, blind to the essential singularity.
The Euler factor 1/(q;q)_inf of the quadrature integrand is kept per node
set (``_euler_at_nodes``), so every (ell, r) integrated on the same nodes
shares one evaluation.  This is the package's only module that imports
numpy at load time; the command line loads it for ``circle`` only, on
one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.  The
16-point Gauss-Legendre rule is written out (``_GL_NODES``,
``_GL_WEIGHTS``), so no ``numpy.polynomial`` is loaded and no LAPACK
routine runs.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import NamedTuple

import numpy as np

from . import series as qs
from .errors import ConvergenceError

#: Hard cap on lattice sums in partial-fraction verification.
ML_LATTICE_CAP = 10**4


# ---------------------------------------------------------------------------
# Partial-fraction decomposition of the sine-power kernel.
# ---------------------------------------------------------------------------

class MLDecomposition(NamedTuple):
    """Principal-part coefficients of (-2i sin(pi w))^(-r) at w = 0.

    ``alphas[j]`` (exact rationals) multiply (-2 pi i w)^(-j); only the
    parities j == r (mod 2) occur and the top coefficient alpha_r is 1.
    The same coefficients weight the principal part at every integer pole
    m, up to the sign (-1)^{m r}: the kernel is 1-periodic for even r but
    only anti-periodic for odd r, so for odd r the lattice sum alternates.
    (Printed forms of this expansion sometimes omit that sign; it only
    ever enters absolute-value bounds there, but the pointwise identity
    needs it.)
    """

    r: int
    alphas: dict

    def alpha(self, j: int) -> Fraction:
        return self.alphas.get(j, Fraction(0))


def _sine_ratio_power(r: int, order: int):
    """Taylor coefficients in u = x^2 of (x / sin x)^r through u^order."""
    sinc = [
        Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(order + 1)
    ]
    inv = [Fraction(1)]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += sinc[i] * inv[k - i]
        inv.append(-acc)
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(r):
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(out):
            if a:
                for jj in range(order + 1 - i):
                    nxt[i + jj] += a * inv[jj]
        out = nxt
    return out


def ml_alphas(r: int) -> MLDecomposition:
    """Exact principal-part coefficients for orders 1 <= r <= 12.

    Writing (-2i sin(pi w))^(-r) = (-2 pi i w)^(-r) (pi w / sin(pi w))^r
    and pushing each Taylor term of the even factor into the basis
    (-2 pi i w)^(-j) gives alpha_{r-2k} = c_k / (-4)^k, where c_k is the
    u^k coefficient of (x/sin x)^r with u = x^2.  In particular
    alpha_r = 1 and alpha_{r-2} = -r/24.
    """
    if not 1 <= r <= 12:
        raise ValueError("r must be between 1 and 12")
    kmax = (r - 1) // 2
    coeffs = _sine_ratio_power(r, kmax)
    alphas = {}
    for k in range(kmax + 1):
        alphas[r - 2 * k] = coeffs[k] / Fraction(-4) ** k
    return MLDecomposition(r=r, alphas=alphas)


def ml_kernel(w: complex, r: int) -> complex:
    """The kernel (-2i sin(pi w))^(-r), equal to e^{pi i r w}/(1-e^{2 pi i w})^r."""
    s = -2j * cmath.sin(cmath.pi * w)
    return s ** (-r)


def _zeta_tail(k: int, cap: int) -> float:
    """sum_{m > cap} m^(-k) by Euler-Maclaurin (k >= 2, cap large)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    M = float(cap)
    val = M ** (1 - k) / (k - 1) - 0.5 * M ** (-k) + (k / 12.0) * M ** (-k - 1)
    val -= k * (k + 1) * (k + 2) / 720.0 * M ** (-k - 3)
    val += (
        k * (k + 1) * (k + 2) * (k + 3) * (k + 4) / 30240.0 * M ** (-k - 5)
    )
    return val


def _alternating_zeta_tail(k: int, cap: int) -> float:
    """sum_{m > cap} (-1)^m m^(-k) by Boole summation (k >= 1, cap large)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a = float(cap + 1)
    val = 0.5 * a ** (-k) + (k / 4.0) * a ** (-k - 1)
    val -= k * (k + 1) * (k + 2) / 48.0 * a ** (-k - 3)
    val += k * (k + 1) * (k + 2) * (k + 3) * (k + 4) / 480.0 * a ** (-k - 5)
    sign = -1.0 if cap % 2 == 0 else 1.0  # (-1)^{cap+1}
    return sign * val


def ml_partial_value(dec: MLDecomposition, w: complex, lattice_cap: int = ML_LATTICE_CAP,
                     with_tail: bool = True) -> complex:
    """Evaluate the partial-fraction side of the kernel identity at w.

    Sums the principal parts at 0 and at the integer poles up to
    ``lattice_cap`` (signed by (-1)^{m r} for odd r); with ``with_tail``
    the remaining lattice tail is estimated through the binomial
    expansion of (w -+ m)^(-j) through w^8, whose m-sums reduce to
    (alternating) zeta tails.  For |w| < 1/2 the corrected value matches
    the kernel to near machine precision at the default cap.
    """
    if abs(w) >= 1:
        raise ValueError("|w| must be < 1 to stay inside the first pole pair")
    alternating = dec.r % 2 == 1
    total = 0j
    for j, alpha in sorted(dec.alphas.items()):
        a = float(alpha)
        total += a * (-2j * math.pi * w) ** (-j)
        lattice = 0j
        for m in range(1, lattice_cap + 1):
            pair = (w - m) ** (-j) + (w + m) ** (-j)
            if alternating and m % 2 == 1:
                lattice -= pair
            else:
                lattice += pair
        if with_tail:
            sign = (-1) ** j
            for i in range(j % 2, 9, 2):
                tail = (
                    _alternating_zeta_tail(i + j, lattice_cap)
                    if alternating else _zeta_tail(i + j, lattice_cap)
                )
                lattice += (
                    2.0 * sign * math.comb(j + i - 1, i) * w ** i * tail
                )
        total += a * (-2j * math.pi) ** (-j) * lattice
    return total


# ---------------------------------------------------------------------------
# Weighted alternating theta sums (main-arc control functions).
# ---------------------------------------------------------------------------

def alternating_theta(ell: int, j: int, tau: complex, rho: float = 0.0,
                      max_terms: int = 10**6) -> complex:
    """sum_{n>=1} (-1)^{n+1} n^{-j} e^{2 pi i tau (l n^2/2 + rho n)}.

    Converges Gaussian-fast for Im(tau) > 0; j may be any integer,
    including the <= 0 weights arising at small orders.  Summation stops
    when a geometric majorant of the tail drops below 1e-12 times the
    partial sum.
    """
    y = tau.imag
    if y <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    grow = max(0, -j)

    def term(n):
        phase = 2j * cmath.pi * tau * (0.5 * ell * n * n + rho * n)
        return (n ** float(-j)) * cmath.exp(phase)

    def tail(n):
        nb = n + 1
        head = nb ** grow * math.exp(-math.pi * ell * nb * nb * y)
        ratio = 2.0 ** grow * math.exp(-math.pi * ell * (2 * nb + 1) * y)
        return head / (1.0 - ratio) if ratio < 1.0 else math.inf

    return qs._alternating_sum(map(term, count(1)), tail, 1e-12, max_terms,
                               "theta sum").value


def euler_inversion_ratio(tau: complex) -> complex:
    """1/(q;q)_inf divided by its two-term modular approximation.

    The approximation is sqrt(-i tau) e^{pi i/(12 tau)} (1 + 2 pi i tau/24),
    obtained from the inversion of Dedekind's eta function; near tau -> 0
    in the standard main-arc window the ratio tends to 1 at rate 1/N.
    """
    q = qs.tau_to_q(tau)
    direct = qs.euler_inverse_value(q, 1e-13).value
    approx = (
        cmath.sqrt(-1j * tau)
        * cmath.exp(1j * cmath.pi / (12.0 * tau))
        * (1.0 + 2j * cmath.pi * tau / 24.0)
    )
    return direct / approx


def appell_pole_deviation(ell: int, r: int, tau: complex) -> float:
    """|appell sum minus its two-term pole expansion| at q = e^{2 pi i tau}.

    The expansion is c (-2 pi i tau)^(-r) + d (-2 pi i tau)^(-r+1) with the
    leading/subleading constants of the asymptotic model; on the main-arc
    window the deviation stays O(N^{r/2-1}).
    """
    from .asymptotics import build_model

    model = build_model(r, ell)
    q = qs.tau_to_q(tau)
    direct = qs.appell_sum_value(ell, r, q, 1e-12).value
    z = -2j * cmath.pi * tau
    approx = model.appell_leading * z ** (-r) + model.appell_second * z ** (-r + 1)
    return abs(direct - approx)


# ---------------------------------------------------------------------------
# Wright-style contour integration.
# ---------------------------------------------------------------------------

class QuadratureReport(NamedTuple):
    """Numeric main/error arc integrals against an exact coefficient."""

    N: int
    ell: int
    r: int
    main_arc: complex
    error_arc: complex
    exact: int
    relative_error: float
    arc_ratio: float
    panels: tuple
    quadrature_error_estimate: float

    def as_dict(self) -> dict:
        return {
            **self._asdict(),
            "main_arc": [self.main_arc.real, self.main_arc.imag],
            "error_arc": [self.error_arc.real, self.error_arc.imag],
            "exact": str(self.exact),
        }


#: The 16-point Gauss-Legendre rule on [-1, 1], written out so that no
#: LAPACK eigensolver runs at import; each literal is the ``repr`` of
#: ``numpy.polynomial.legendre.leggauss(16)``, equal to it bit for bit.
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499,
])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176,
])


def _gl_nodes(lo: float, hi: float, panels: int):
    """Nodes and panel half-widths of the composite 16-point Gauss-Legendre
    rule on [lo, hi]; the key (lo, hi, panels) determines them exactly."""
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel(), half


def _composite_gl(fn, lo: float, hi: float, panels: int) -> complex:
    """``fn(xs, lo, hi, panels)`` returns the integrand at the nodes ``xs``
    of ``_gl_nodes(lo, hi, panels)``, built once here; the key (lo, hi,
    panels) lets an integrand reuse a factor computed once per node set."""
    xs, half = _gl_nodes(lo, hi, panels)
    vals = fn(xs, lo, hi, panels).reshape(panels, -1)
    del xs  # free before the weighted sum allocates its products
    return complex((vals * _GL_WEIGHTS[None, :]).sum(axis=1) @ half)


def _refine_gl(fn, lo: float, hi: float, start_panels: int, tol_abs: float):
    panels = start_panels
    prev = _composite_gl(fn, lo, hi, panels)
    for _ in range(9):
        panels *= 2
        cur = _composite_gl(fn, lo, hi, panels)
        delta = abs(cur - prev)
        if delta <= tol_abs:
            return cur, panels, delta
        prev = cur
    raise ConvergenceError(
        f"quadrature on [{lo}, {hi}] did not reach tol {tol_abs}",
        achieved_bound=delta,
    )


def check_quadrature_order(N: int, r: int) -> None:
    """Refuse N outside [20, 400], where the integrand magnitude
    e^{2 pi sqrt(N/6)}-ish stays comfortably inside double precision.

    Also refuse an order r for which the ``wright_integrals`` integrand
    could leave double range on the circle |q| = e^{-t}, t = pi/sqrt(6N).
    Each Appell term divides by (1 - q^n)^r, and |1 - q^n| >= 1 - |q|, so
    1/(1 - |q|)^r must be finite.  The integrand is ``amplitude``
    e^{pi sqrt(N/6)} times the Euler factor, at most 1/(|q|;|q|)_inf =
    exp(sum_k 1/(k (e^{kt} - 1))) <= e^{pi^2/(6t)} = e^{pi sqrt(N/6)},
    times the Appell sum, at most sum_n |q|^{E(n)} / (1 - |q|)^r <=
    |q|^{E(1)} / (1 - |q|)^{r+1} with the exponent E of ell = 1 (that of
    ell = 3 is larger, and E(n+1) - E(n) >= 1).  A panel's 16 weights sum
    to 2, so twice that bounds each panel sum, which must be finite too.
    """
    if not 20 <= N <= 400:
        raise ValueError("N must be in [20, 400] for double-precision quadrature")
    t = math.pi / math.sqrt(6.0 * N)
    log_recip = -math.log1p(-math.exp(-t))  # log(1/(1 - |q|))
    log_panel = (math.log(2.0) + 2.0 * math.pi * math.sqrt(N / 6.0)
                 - (r + 2 - r % 2) // 2 * t + (r + 1) * log_recip)
    if max(r * log_recip, log_panel) >= math.log(sys.float_info.max):
        raise ValueError(f"r = {r} is too large for double-precision "
                         f"quadrature at N = {N}")


def _circle_q(N: int, xs: np.ndarray) -> np.ndarray:
    """q = e^{-pi/sqrt(6N) + 2 pi i x} at the nodes x."""
    return np.exp(-math.pi / math.sqrt(6.0 * N) + 2j * math.pi * xs)


@lru_cache(maxsize=None)
def _euler_at_nodes(N: int, lo: float, hi: float, panels: int) -> np.ndarray:
    """1/(q;q)_inf at ``_circle_q(N, xs)`` for the nodes xs of
    ``_gl_nodes(lo, hi, panels)``, read-only.

    The Euler factor of the ``wright_integrals`` integrand does not depend
    on (ell, r), so every quotient integrated on the same nodes shares it.
    The memo holds a few node sets per N of the quadrature window, about
    0.3 MB for the four N of 50..400 with default panels.
    """
    # evaluator tolerance far below any quadrature target
    q = _circle_q(N, _gl_nodes(lo, hi, panels)[0])
    value = qs.euler_inverse_value(q, 1e-15).value
    value.flags.writeable = False
    return value


def wright_integrals(ell: int, r: int, N: int, exact: int) -> QuadratureReport:
    """Split the coefficient integral into main and error arcs and compare.

    Integrates the quotient series around |q| = e^{-pi/sqrt(6N)}: the main
    arc covers |x| <= 1/(2 sqrt(6N)) in q = e^{-pi/sqrt(6N) + 2 pi i x},
    the error arc the rest of a full period.  The sum of the two arcs
    must reproduce ``exact``, the integer coefficient of q^N of the
    symmetrized series; each arc refines until two panel counts agree to
    half of 1e-8 of it.  The report also carries |error arc| / |main arc|,
    which decays in N.

    N and r are restricted by ``check_quadrature_order``; an ``exact``
    of 0 is refused, since it leaves no relative target.
    """
    check_quadrature_order(N, r)
    if r < 1:
        raise ValueError("r must be >= 1")
    if ell not in (1, 3):
        raise ValueError(f"ell must be 1 or 3, got {ell}")
    if exact == 0:
        raise ValueError(f"the coefficient of q^{N} is 0 for ell = {ell}, "
                         f"r = {r}: no relative target for the quadrature")
    x_split = 1.0 / (2.0 * math.sqrt(6.0 * N))
    amplitude = math.exp(math.pi * math.sqrt(N / 6.0))

    def integrand(xs, lo: float, hi: float, panels: int) -> np.ndarray:
        q = _circle_q(N, xs)
        f = (qs.appell_sum_value(ell, r, q, 1e-15).value
             * _euler_at_nodes(N, lo, hi, panels))
        return f * amplitude * np.exp(-2j * math.pi * N * xs)

    # conjugate symmetry: the integral over [-b, -a] is the conjugate of [a, b]
    tol_abs = 1e-8 * float(exact)
    main_half, main_panels, main_delta = _refine_gl(
        integrand, 0.0, x_split, 8, tol_abs / 2.0
    )
    err_half, err_panels, err_delta = _refine_gl(
        integrand, x_split, 0.5, max(32, N // 2), tol_abs / 2.0
    )
    main_arc = 2.0 * complex(main_half).real + 0j
    error_arc = 2.0 * complex(err_half).real + 0j
    total = main_arc + error_arc
    rel = abs(total - exact) / abs(exact)
    return QuadratureReport(
        N=N, ell=ell, r=r,
        main_arc=main_arc, error_arc=error_arc, exact=exact,
        relative_error=rel,
        arc_ratio=abs(error_arc) / abs(main_arc),
        panels=(main_panels, err_panels),
        quadrature_error_estimate=(main_delta + err_delta) / float(exact),
    )


def wright_auxiliary(s: float, N: int) -> complex:
    """The straight-segment contour integral
    (1/(2 pi i)) int_{1-i}^{1+i} v^s e^{pi sqrt(N/6)(v + 1/v)} dv.

    Parametrized by v = 1 + it this is a smooth, sharply peaked integrand;
    the principal branch of v^s never crosses a cut since Re(v) = 1.  As N
    grows the value approaches I_{-s-1}(pi sqrt(2N/3)) up to an error a
    factor e^{-(pi/2) sqrt(N/6)} smaller.  The quadrature refines to
    1e-12 of the integrand's peak e^{2 pi sqrt(N/6)} / (2 pi).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    c = math.pi * math.sqrt(N / 6.0)

    def integrand(xs, lo: float, hi: float, panels: int) -> np.ndarray:
        v = 1.0 + 1j * xs
        return np.exp(s * np.log(v) + c * (v + 1.0 / v)) / (2.0 * math.pi)

    scale = math.exp(2.0 * c) / (2.0 * math.pi)
    value, _, _ = _refine_gl(integrand, -1.0, 1.0, 8, 1e-12 * scale)
    return value


# ---------------------------------------------------------------------------
# Bernoulli-polynomial expansion of sampled smooth sums.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


def bernoulli_poly(n: int, x) -> Fraction:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^{n-k}."""
    xf = Fraction(x) if not isinstance(x, Fraction) else x
    acc = Fraction(0)
    for k in range(n + 1):
        acc += math.comb(n, k) * bernoulli_number(k) * xf ** (n - k)
    return acc


def zagier_expansion(taylor, integral: float, a: float, t: float,
                     order: int) -> float:
    """Asymptotic value of sum_{m>=0} f((m+a)t) for small t > 0.

    Given the Taylor coefficients b_0..b_order of f at 0 and the
    convergent integral of f over (0, inf), returns
    integral/t - sum_{n<=order} b_n B_{n+1}(a)/(n+1) t^n.  The omitted
    remainder is O(t^{order+1}).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if order >= len(taylor):
        raise ValueError(f"need Taylor coefficients through order {order}")
    total = integral / t
    af = Fraction(a).limit_denominator(10**12)
    for n in range(order + 1):
        b = taylor[n]
        if b:
            total -= float(b) * float(bernoulli_poly(n + 1, af)) / (n + 1) * t ** n
    return total


def sampled_sum(fn, a: float, t: float, max_terms: int = 10**7) -> float:
    """Direct evaluation of sum_{m>=0} f((m+a)t) for f of rapid decay.

    Terms are accumulated until they fall below 1e-14 times the running
    total twice in a row past the decay onset.
    """
    if a <= 0 or t <= 0:
        raise ValueError("a and t must be positive")
    acc = 0.0
    small_streak = 0
    for m in range(max_terms):
        u = (m + a) * t
        term = fn(u)
        acc += term
        if u > 2.0 and abs(term) <= 1e-14 * max(abs(acc), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                return acc
        else:
            small_streak = 0
    raise ConvergenceError(f"sampled sum did not settle in {max_terms} terms")


class ZagierFunction(NamedTuple):
    """A built-in test function with known Taylor data and integral."""

    name: str
    fn: object
    taylor: tuple
    integral: float


def _gaussian(u: float) -> float:
    return math.exp(-u * u)


def _gaussian_weighted(u: float) -> float:
    return u * math.exp(-u * u)


def _gaussian_pair(u: float) -> float:
    if u == 0.0:
        return 0.0
    return (math.exp(-2.0 * u * u) - math.exp(-6.0 * u * u)) / (2.0 * u)


def _taylor_gaussian(order: int):
    out = [0.0] * (order + 1)
    for k in range(0, order + 1, 2):
        out[k] = (-1.0) ** (k // 2) / math.factorial(k // 2)
    return tuple(out)


def _taylor_gaussian_weighted(order: int):
    out = [0.0] * (order + 1)
    for k in range(1, order + 1, 2):
        out[k] = (-1.0) ** ((k - 1) // 2) / math.factorial((k - 1) // 2)
    return tuple(out)


def _taylor_gaussian_pair(order: int):
    out = [0.0] * (order + 1)
    for k in range(1, order + 1, 2):
        j = (k + 1) // 2
        out[k] = ((-2.0) ** j - (-6.0) ** j) / (2.0 * math.factorial(j))
    return tuple(out)


BUILTIN_FUNCTIONS = (
    ZagierFunction("gaussian", _gaussian, _taylor_gaussian(9),
                   math.sqrt(math.pi) / 2.0),
    ZagierFunction("gaussian_weighted", _gaussian_weighted,
                   _taylor_gaussian_weighted(9), 0.5),
    ZagierFunction("gaussian_pair", _gaussian_pair,
                   _taylor_gaussian_pair(9), math.log(3.0) / 4.0),
)


def gaussian_weighted_lattice(y: float) -> float:
    """Direct sum_{n>=1} n e^{-pi n^2 y}, which grows like 1/(2 pi y)."""
    if y <= 0:
        raise ValueError("y must be positive")
    acc = 0.0
    n = 1
    while True:
        term = n * math.exp(-math.pi * n * n * y)
        acc += term
        if n * n * y > 50.0:
            return acc
        n += 1


def gaussian_difference_sum(y: float) -> float:
    """Direct sum_{n>=1} (-1)^{n+1} e^{-n^2 y/2} (1 - e^{-n^2 y}) / n.

    This is the small-argument limit object behind the ospt numerator;
    its expansion starts y/4 + O(y^2).
    """
    if y <= 0:
        raise ValueError("y must be positive")
    acc = 0.0
    n = 1
    while True:
        term = math.exp(-n * n * y / 2.0) * (1.0 - math.exp(-n * n * y)) / n
        acc += term if n % 2 == 1 else -term
        if n * n * y > 100.0:
            return acc
        n += 1


def away_bound_rows(ell: int, r: int, Ns) -> list:
    """Sample |quotient series| against its off-arc envelope.

    For each N the window y <= x <= 1/2, with y = 1/(2 sqrt(6N)), is
    sampled at six fractions of its width; the envelope is
    N^{r/2+1/4} e^{(pi/2) sqrt(N/6)}.  Returns (N, x, y, lhs, rhs_bound,
    ratio) rows, ratio staying bounded (well below 1) when the envelope
    holds.
    """
    rows = []
    for N in Ns:
        if N < 1:
            raise ValueError("N must be >= 1")
        y = 1.0 / (2.0 * math.sqrt(6.0 * N))
        envelope = N ** (r / 2.0 + 0.25) * math.exp(
            (math.pi / 2.0) * math.sqrt(N / 6.0)
        )
        for frac in (0.0, 0.02, 0.1, 0.3, 0.6, 1.0):
            x = y + frac * (0.5 - y)
            q = qs.tau_to_q(complex(x, y))
            lhs = abs(
                qs.appell_sum_value(ell, r, q, 1e-10).value
                * qs.euler_inverse_value(q, 1e-10).value
            )
            rows.append((N, x, y, lhs, envelope, lhs / envelope))
    return rows


def ospt_numerator_limit_table(ys) -> list:
    """Evaluate the ospt numerator at q = e^{-y} along a ladder of y values.

    Returns (y, value, |value - 1/4|) rows; the deviation should shrink
    monotonically as y decreases toward 0.
    """
    rows = []
    for y in ys:
        if not 0 < y < 1.0001:
            raise ValueError("y values must lie in (0, 1]")
        val = qs.ospt_numerator_value(math.exp(-y), tol=1e-12).value.real
        rows.append((y, val, abs(val - 0.25)))
    return rows
