import cmath
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from crankrank import asymptotics as asy
from crankrank import circle as cm
from crankrank import moments as mm
from crankrank import series as qs
from crankrank.errors import ConvergenceError


def quadrature(ell, r, N):
    """``wright_integrals`` against the series route's coefficient of q^N."""
    return cm.wright_integrals(ell, r, N, exact=mm.symmetrized_series(ell, r, N)[N])


class TestMLDecomposition:
    def test_top_coefficient_is_one(self):
        for r in range(1, 13):
            assert cm.ml_alphas(r).alpha(r) == 1

    def test_next_coefficient(self):
        for r in range(3, 13):
            assert cm.ml_alphas(r).alpha(r - 2) == Fraction(-r, 24)

    def test_r3_value(self):
        assert cm.ml_alphas(3).alpha(1) == Fraction(-1, 8)

    def test_parity_support(self):
        dec = cm.ml_alphas(6)
        assert set(dec.alphas) == {6, 4, 2}
        dec = cm.ml_alphas(5)
        assert set(dec.alphas) == {5, 3, 1}
        with pytest.raises(AttributeError):
            dec.r = 6

    def test_range(self):
        with pytest.raises(ValueError):
            cm.ml_alphas(0)
        with pytest.raises(ValueError):
            cm.ml_alphas(13)

    def test_kernel_forms_agree(self):
        # e^{pi i r w} (1 - e^{2 pi i w})^{-r} is the sine-power kernel
        for w in (0.3 + 0.2j, -0.4 + 0.1j, 0.2 - 0.3j):
            for r in (1, 2, 5):
                via_exp = cmath.exp(1j * math.pi * r * w) \
                    / (1 - cmath.exp(2j * math.pi * w)) ** r
                assert abs(via_exp - cm.ml_kernel(w, r)) < 1e-12 * abs(via_exp)

    def test_partial_fraction_identity(self):
        import random

        rng = random.Random(20260810)
        for r in range(1, 7):
            dec = cm.ml_alphas(r)
            for _ in range(20):
                w = complex(
                    rng.uniform(-0.45, 0.45),
                    rng.choice([-1, 1]) * rng.uniform(0.03, 0.45),
                )
                lhs = cm.ml_kernel(w, r)
                rhs = cm.ml_partial_value(dec, w)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), (w, r)

    def test_truncation_decay(self):
        # without the tail correction the defect shrinks at the rate the
        # slowest lattice term dictates: like 1/cap for even r (leading
        # zeta tail at power 2), like 1/cap^2 for odd r (alternating
        # lattice, smallest power i+j = 2 with Boole cancellation)
        w = 0.28 + 0.19j
        for r in (1, 2, 3, 4):
            dec = cm.ml_alphas(r)
            lhs = cm.ml_kernel(w, r)
            devs = [
                abs(lhs - cm.ml_partial_value(dec, w, cap, with_tail=False))
                for cap in (1000, 10000)
            ]
            assert devs[1] < devs[0]
            expected = 0.1 if r % 2 == 0 else 0.01
            assert devs[1] / devs[0] < 2.5 * expected, (r, devs)

    def test_low_order_quadrature(self):
        for r in (1, 2):
            rep = quadrature(1, r, 50)
            assert rep.relative_error <= 1e-6

    def test_rejects_large_w(self):
        with pytest.raises(ValueError):
            cm.ml_partial_value(cm.ml_alphas(2), 1.5 + 0j)


class TestAlternatingTheta:
    def test_gaussian_domination(self):
        # at tau = 10i the n=1 term carries everything
        val = cm.alternating_theta(1, 2, 10j)
        first = cmath.exp(2j * cmath.pi * 10j * 0.5)
        assert abs(val - first) < 1e-12

    def test_limit_is_eta(self):
        tau = 1e-5j
        for j in (1, 2, 3):
            for ell in (1, 3):
                got = cm.alternating_theta(ell, j, tau)
                assert abs(got - asy.dirichlet_eta(j)) < 1e-3, (ell, j)

    def test_rho_shift(self):
        tau = 0.001 + 0.002j
        base = cm.alternating_theta(1, 2, tau, rho=0.0)
        shifted = cm.alternating_theta(1, 2, tau, rho=0.5)
        assert base != shifted

    def test_small_orders_bounded_on_window(self):
        # the j = -1, 0, 1 weights stay bounded on the main-arc window
        for ell, rho in ((1, 0.0), (3, 0.0), (1, 0.5), (3, 0.5)):
            for j in (-1, 0, 1):
                worst = 0.0
                for N in (10**2, 10**3, 10**4, 10**5, 10**6):
                    y = 1.0 / (2.0 * math.sqrt(6.0 * N))
                    for frac in (-1.0, -0.5, 0.0, 0.5, 1.0):
                        tau = complex(frac * y, y)
                        worst = max(
                            worst, abs(cm.alternating_theta(ell, j, tau, rho))
                        )
                assert worst < 6.0, (ell, rho, j, worst)

    def test_domain(self):
        with pytest.raises(ValueError):
            cm.alternating_theta(1, 2, 1.0 + 0j)

    def test_unreachable_tolerance(self):
        with pytest.raises(ConvergenceError) as err:
            cm.alternating_theta(1, 2, 0.001 + 0.002j, max_terms=3)
        bound = err.value.achieved_bound
        assert bound is not None and 0 < bound < math.inf


class TestMainArcExpansions:
    def test_euler_inversion_ratio(self):
        # two-term eta-inversion approximation is accurate to O(1/N)
        for N in (10**3, 10**4):
            y = 1.0 / (2.0 * math.sqrt(6.0 * N))
            for frac in (0.0, 0.7, -1.0):
                tau = complex(frac * y, y)
                dev = abs(cm.euler_inversion_ratio(tau) - 1.0)
                assert dev < 30.0 / N, (N, frac, dev)

    def test_appell_pole_deviation_scaling(self):
        # remainder after two pole terms stays O(N^{r/2-1}) on the window
        for r in (3, 4, 5):
            ratios = []
            for N in (10**3, 10**4, 10**5, 10**6):
                y = 1.0 / (2.0 * math.sqrt(6.0 * N))
                dev = max(
                    cm.appell_pole_deviation(1, r, complex(x * y, y))
                    for x in (0.0, 1.0)
                )
                ratios.append(dev / N ** (r / 2.0 - 1.0))
            assert max(ratios) < 2.0, (r, ratios)

    def test_appell_away_bound(self):
        # |S| << N^{r/2 + 1/4} off the main arc, with a stable constant
        for r in (2, 4):
            fitted = []
            for N in (400, 1600, 6400):
                y = 1.0 / (2.0 * math.sqrt(6.0 * N))
                worst = 0.0
                for x in (y, 0.01, 0.1, 0.25, 0.5):
                    q = qs.tau_to_q(complex(x, y))
                    val = abs(qs.appell_sum_value(3, r, q, 1e-10).value)
                    worst = max(worst, val)
                fitted.append(worst / N ** (r / 2.0 + 0.25))
            assert max(fitted) < 2.0 * min(fitted) + 1e-12, (r, fitted)

    def test_quotient_away_bound(self):
        # |S/(q)_inf| << N^{r/2+1/4} e^{(pi/2) sqrt(N/6)} off the main arc
        r = 3
        fitted = []
        for N in (400, 1600, 6400):
            y = 1.0 / (2.0 * math.sqrt(6.0 * N))
            worst = 0.0
            for x in (y, 2 * y, 0.01, 0.1, 0.5):
                q = qs.tau_to_q(complex(x, y))
                val = abs(
                    qs.appell_sum_value(1, r, q, 1e-10).value
                    * qs.euler_inverse_value(q, 1e-10).value
                )
                worst = max(worst, val)
            bound = N ** (r / 2.0 + 0.25) * math.exp(
                (math.pi / 2.0) * math.sqrt(N / 6.0)
            )
            fitted.append(worst / bound)
        # the envelope is not sharp here: the fitted constant stays well
        # below 1 and does not grow along the ladder
        assert max(fitted) < 1.0, fitted
        assert fitted[-1] <= fitted[0], fitted


class TestWrightIntegrals:
    @pytest.mark.parametrize("ell,r", [(1, 3), (3, 3), (1, 4), (3, 4)])
    def test_reproduces_exact_coefficient(self, ell, r):
        for N in (50, 100):
            rep = quadrature(ell, r, N)
            assert rep.relative_error <= 1e-6
            assert abs(rep.main_arc) > abs(rep.error_arc)

    def test_arc_ratio_decays(self):
        ratios = [quadrature(1, 3, N).arc_ratio for N in (50, 100, 200)]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_report_dict(self):
        rep = quadrature(1, 3, 50)
        d = rep.as_dict()
        assert d["N"] == 50 and d["exact"] == str(rep.exact)
        assert set(d) == {"N", "ell", "r", "main_arc", "error_arc", "exact",
                          "relative_error", "arc_ratio", "panels",
                          "quadrature_error_estimate"}
        for arc in ("main_arc", "error_arc"):
            assert [type(x) for x in d[arc]] == [float, float], arc
        assert [type(x) for x in d["panels"]] == [int, int]
        assert type(d["exact"]) is str
        with pytest.raises(AttributeError):
            rep.N = 100

    def test_window_enforced(self):
        with pytest.raises(ValueError):
            quadrature(1, 3, 10)
        with pytest.raises(ValueError):
            quadrature(1, 3, 500)

    def test_refused_before_quadrature(self, monkeypatch):
        monkeypatch.setattr(cm, "_refine_gl",
                            lambda *args: pytest.fail("quadrature ran"))
        # 1/(1 - e^{-pi/sqrt(2400)})^300 is past double range
        with pytest.raises(ValueError, match="too large"):
            cm.wright_integrals(1, 300, 400, exact=1)
        # the first Appell exponent, (1 + 51)/2 = 26, passes N = 20
        assert mm.symmetrized_series(1, 50, 20)[20] == 0
        with pytest.raises(ValueError, match="is 0"):
            cm.wright_integrals(1, 50, 20, exact=0)

    @pytest.mark.parametrize("N", [20, 50, 100, 200, 400])
    def test_largest_accepted_order_stays_finite(self, N, monkeypatch):
        # the first level of each arc, on the start panels, at the largest
        # order the integrand bound accepts: finite, with no numpy warning
        r = 1
        while True:
            try:
                cm.check_quadrature_order(N, r + 1)
            except ValueError:
                break
            r += 1

        def first_level(fn, lo, hi, panels, tol_abs):
            value = cm._composite_gl(fn, lo, hi, panels)
            assert cmath.isfinite(value)
            return value, panels, 0.0

        monkeypatch.setattr(cm, "_refine_gl", first_level)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ell in (1, 3):
                assert cm.wright_integrals(ell, r, N, exact=1).panels == (
                    8, max(32, N // 2))
        with pytest.raises(ValueError, match=f"r = {r + 1} is too large"):
            cm.wright_integrals(1, r + 1, N, exact=1)

    def test_exact_override(self):
        true = mm.symmetrized_series(1, 3, 60)[60]
        rep = cm.wright_integrals(1, 3, 60, exact=true)
        assert rep.exact == true

    def test_euler_memo_warm_equals_cold(self):
        # warm: the node sets were filled by another (ell, r) pair
        cm._euler_at_nodes.cache_clear()
        quadrature(1, 1, 60)
        hits = cm._euler_at_nodes.cache_info().hits
        warm = quadrature(3, 2, 60)
        assert cm._euler_at_nodes.cache_info().hits > hits
        cm._euler_at_nodes.cache_clear()
        cold = quadrature(3, 2, 60)
        assert cm._euler_at_nodes.cache_info().hits == 0
        for field in cm.QuadratureReport._fields:
            assert getattr(warm, field) == getattr(cold, field), field

    def test_euler_memo_is_read_only(self):
        value = cm._euler_at_nodes(60, 0.0, 0.02, 8)
        assert value.shape == (8 * 16,) and not value.flags.writeable
        with pytest.raises(ValueError):
            value[0] = 0


class TestWrightAuxiliary:
    def test_real_and_positive(self):
        val = cm.wright_auxiliary(-2.5, 80)
        assert val.real > 0
        assert abs(val.imag) < 1e-10 * val.real

    def test_against_bessel(self):
        for r in (3, 4):
            s = 0.5 - r
            for N in (60, 100, 160):
                ps = cm.wright_auxiliary(s, N)
                ib = math.exp(
                    asy.log_bessel_i(r - 1.5, math.pi * math.sqrt(2 * N / 3))
                )
                rel = abs(ps - ib) / ib
                assert rel <= 10.0 * math.exp(
                    -(math.pi / 2.0) * math.sqrt(N / 6.0)
                ), (r, N, rel)

    def test_s_zero_reaches_order_one_bessel(self):
        # at s=0 the target order is -1, and I_{-1} = I_1
        import mpmath

        N = 60
        ps = cm.wright_auxiliary(0.0, N)
        ib = float(mpmath.besseli(1, math.pi * math.sqrt(2 * N / 3)))
        rel = abs(ps - ib) / ib
        assert rel <= 10.0 * math.exp(-(math.pi / 2.0) * math.sqrt(N / 6.0))


class TestZagier:
    def test_bernoulli_polys(self):
        assert cm.bernoulli_poly(1, Fraction(1, 2)) == 0
        assert cm.bernoulli_poly(2, 1) == Fraction(1, 6)
        assert cm.bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)
        assert cm.bernoulli_number(12) == Fraction(-691, 2730)

    def test_single_term_expansion(self):
        # with only b_0 the expansion is integral/t - b_0 (a - 1/2)
        got = cm.zagier_expansion((1.0,), 2.0, 0.75, 0.1, 0)
        assert abs(got - (2.0 / 0.1 - (0.75 - 0.5))) < 1e-14

    def test_expansion_matches_direct_sums(self):
        for zf in cm.BUILTIN_FUNCTIONS:
            for a in (0.5, 0.75, 1.0):
                direct = cm.sampled_sum(zf.fn, a, 0.05)
                approx = cm.zagier_expansion(zf.taylor, zf.integral, a, 0.05, 5)
                assert abs(direct - approx) < 1e-6, (zf.name, a)
        with pytest.raises(AttributeError):
            zf.integral = 0.0

    def test_residual_order_improves_with_terms(self):
        zf = cm.BUILTIN_FUNCTIONS[1]  # u e^{-u^2}
        t = 0.05
        direct = cm.sampled_sum(zf.fn, 1.0, t)
        res = [
            abs(direct - cm.zagier_expansion(zf.taylor, zf.integral, 1.0, t, S))
            for S in (0, 1, 3, 5)
        ]
        assert res[3] < res[2] < res[1] < res[0] or res[3] < res[1] < res[0]

    def test_weighted_gaussian_lattice(self):
        y = 1e-4
        got = cm.gaussian_weighted_lattice(y)
        assert abs(got - 1 / (2 * math.pi * y)) < 1e-3 * (1 / (2 * math.pi * y))

    def test_difference_sum_linear_coefficient(self):
        y = 1e-3
        assert abs(cm.gaussian_difference_sum(y) - y / 4) < 1e-5

    def test_sampled_sum_validation(self):
        with pytest.raises(ValueError):
            cm.sampled_sum(lambda u: u, 0.0, 0.1)
        with pytest.raises(ConvergenceError):
            cm.sampled_sum(lambda u: 1.0, 1.0, 0.1, max_terms=100)

    def test_taylor_coefficient_guard(self):
        with pytest.raises(ValueError):
            cm.zagier_expansion((1.0, 2.0), 1.0, 0.5, 0.1, 5)


class TestOsptNumeratorLimit:
    def test_ladder(self):
        rows = cm.ospt_numerator_limit_table([1.0, 0.1, 0.01, 1e-3, 1e-4])
        devs = [dev for _, _, dev in rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-3
        assert abs(rows[0][1]) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            cm.ospt_numerator_limit_table([2.0])


def test_circle_builds_no_exact_data():
    # every caller passes the exact coefficient in, so circle loads no
    # exact-moment module of its own
    src = str(Path(cm.__file__).resolve().parents[1])
    probe = ("import sys, crankrank.circle; print('crankrank.moments' in "
             "sys.modules, 'numpy.polynomial' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    # nor numpy.polynomial: the Gauss-Legendre rule is written out
    assert done.stdout.split() == ["False", "False"]


def test_gauss_legendre_rule_is_leggauss():
    # the written-out 16-point rule equals numpy's, bit for bit
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert cm._GL_NODES.tolist() == nodes.tolist()
    assert cm._GL_WEIGHTS.tolist() == weights.tolist()
