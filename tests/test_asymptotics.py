import math

import mpmath
import pytest

from crankrank import asymptotics as asy
from crankrank import moments as mm
from crankrank import series as qs


def shifted_model(r, ell):
    """``build_model(r, ell)`` with the other printed zeta(r-1) weight of the
    subleading constant, (1 - 2^(1-r)) zeta(r-1) in place of eta(r-1) =
    (1 - 2^(2-r)) zeta(r-1); the reference the trend tests reject."""
    model = asy.build_model(r, ell)
    weight = (1.0 - 2.0 ** (1 - r)) * float(mpmath.zeta(r - 1))
    appell_second = -(ell / 2.0) * asy.dirichlet_eta(r - 2) - model.rho * weight
    bessel_second = (
        (-model.appell_leading / 24.0 + appell_second)
        * 6.0 ** (r / 2.0 - 1.25) / (math.sqrt(2.0) * math.pi ** (r - 2))
    )
    return model._replace(appell_second=appell_second, bessel_second=bessel_second)


def hardy_ramanujan_log(N):
    """log of the leading partition asymptotic e^{pi sqrt(2N/3)}/(4 sqrt(3) N)."""
    return asy.growth_argument(N) - math.log(4.0 * math.sqrt(3.0) * N)


class TestDirichletEta:
    def test_closed_values(self):
        assert asy.dirichlet_eta(1) == math.log(2)
        assert asy.dirichlet_eta(0) == 0.5
        assert asy.dirichlet_eta(-1) == 0.25

    def test_even_values(self):
        assert abs(asy.dirichlet_eta(2) - math.pi ** 2 / 12) < 1e-14
        assert abs(asy.dirichlet_eta(4) - 7 * math.pi ** 4 / 720) < 1e-14

    def test_against_mpmath(self):
        for s in (0.5, 1.5, 3.0, 6.0, 9.5):
            ref = float(mpmath.altzeta(s))
            assert abs(asy.dirichlet_eta(s) - ref) < 1e-14 * max(1.0, abs(ref))

    def test_unsupported(self):
        with pytest.raises(ValueError):
            asy.dirichlet_eta(-3)
        with pytest.raises(ValueError):
            asy.dirichlet_eta(-2)
        with pytest.raises(ValueError):
            asy.dirichlet_eta(-0.5)


class TestModelConstants:
    def test_remarkable_closed_forms(self):
        tol = 1e-12
        m1 = asy.build_model(1, 1)
        assert abs(m1.gamma - math.log(2) / (2 * math.sqrt(2) * math.pi)) < tol
        assert abs(m1.delta - 1 / (16 * math.sqrt(3))) < tol
        m2 = asy.build_model(2, 1)
        assert abs(m2.gamma - 1 / (4 * math.sqrt(3))) < tol
        assert abs(m2.delta - 1 / (2 * math.sqrt(2) * math.pi)) < tol
        m3 = asy.build_model(3, 1)
        assert abs(m3.delta - 3 * math.sqrt(3) * math.log(2) / math.pi ** 2) < tol

    def test_rho_parity(self):
        assert asy.build_model(3, 1).rho == 0.0
        model = asy.build_model(4, 1)
        assert model.rho == 0.5
        with pytest.raises(AttributeError):
            model.rho = 0.0

    def test_gamma_from_bessel_reduction(self):
        # replacing I_nu(x) by e^x/sqrt(2 pi x) in the Bessel-form leading
        # term must reproduce the exponential-form constant
        for r in range(1, 9):
            m = asy.build_model(r, 1)
            reduced = (
                math.factorial(r) * m.bessel_leading
                * (1.5) ** 0.25 / (math.pi * math.sqrt(2.0))
            )
            assert abs(reduced - m.gamma) < 1e-12 * m.gamma

    def test_leading_constant_side_independent(self):
        for r in range(1, 7):
            a = asy.build_model(r, 1)
            b = asy.build_model(r, 3)
            assert a.bessel_leading == b.bessel_leading
            assert a.gamma == b.gamma

    def test_variants_differ_only_for_even_r(self):
        for r in (3, 5):
            a = asy.build_model(r, 1)
            b = shifted_model(r, 1)
            assert a.appell_second == b.appell_second
            assert a.bessel_second == b.bessel_second
        for r in (4, 6):
            a = asy.build_model(r, 1)
            b = shifted_model(r, 1)
            assert a.appell_second != b.appell_second

    def test_input_validation(self):
        with pytest.raises(ValueError):
            asy.build_model(0, 1)
        with pytest.raises(ValueError):
            asy.build_model(2, 2)


class TestLogBessel:
    def test_half_order_closed_form(self):
        want = math.log(math.sqrt(2 / math.pi) * math.sinh(1.0))
        assert abs(asy.log_bessel_i(0.5, 1.0) - want) < 1e-14

    def test_negative_half_order_closed_form(self):
        want = math.log(math.sqrt(1 / math.pi) * math.cosh(2.0))
        assert abs(asy.log_bessel_i(-0.5, 2.0) - want) < 1e-14

    def test_large_argument_asymptotic(self):
        got = asy.log_bessel_i(0.5, 100.0)
        want = 100.0 - 0.5 * math.log(2 * math.pi * 100.0)
        assert abs(got - want) < 0.01 * abs(want)

    def test_against_mpmath(self):
        for nu in (-1.5, -0.5, 0.5, 1.5, 2.5, 4.5, 8.5):
            for x in (2.0, 5.0, 30.0, 114.0, 900.0):
                if nu == -1.5 and x < 1.3:
                    continue
                got = asy.log_bessel_i(nu, x)
                ref = float(mpmath.log(mpmath.besseli(nu, x)))
                assert abs(got - ref) < 1e-12 * max(1.0, abs(ref)), (nu, x)

    def test_three_term_recurrence(self):
        for nu in (0.5, 1.5, 3.5, 6.5):
            for x in (5.0, 40.0, 200.0):
                lo = math.exp(asy.log_bessel_i(nu - 1, x))
                hi = math.exp(asy.log_bessel_i(nu + 1, x))
                mid = math.exp(asy.log_bessel_i(nu, x))
                assert abs((lo - hi) - 2 * nu / x * mid) < 1e-10 * lo

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            asy.log_bessel_i(1.0, 3.0)
        with pytest.raises(ValueError):
            asy.log_bessel_i(0.25, 3.0)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            asy.log_bessel_i(0.5, 0.0)


class TestPredict:
    def test_diff_r2_matches_spt_shape(self):
        # delta_2 N^{-1/2} e^{pi sqrt(2N/3)}
        m = asy.build_model(2, 1)
        N = 100
        want = math.log(1 / (2 * math.sqrt(2) * math.pi)) - 0.5 * math.log(N) \
            + math.pi * math.sqrt(2 * N / 3)
        assert abs(asy.predict_log(m, "diff", N) - want) < 1e-12

    def test_one_term_sides_agree(self):
        for r in (1, 3, 6):
            mu = asy.predict_log(asy.build_model(r, 1), "mu", 500)
            eta = asy.predict_log(asy.build_model(r, 3), "eta", 500)
            assert mu == eta

    def test_two_term_below_one_term(self):
        # subleading constants are negative
        m = asy.build_model(4, 1)
        one = asy.predict_log(m, "mu", 1000, terms=1)
        two = asy.predict_log(m, "mu", 1000, terms=2)
        assert two < one

    def test_errors(self):
        m = asy.build_model(2, 1)
        with pytest.raises(ValueError):
            asy.predict_log(m, "M_pos", 100, terms=2)
        with pytest.raises(ValueError):
            asy.predict_log(m, "eta", 100)  # wrong side
        with pytest.raises(ValueError):
            asy.predict_log(asy.build_model(1, 1), "mu", 100, terms=2)
        with pytest.raises(ValueError):
            asy.predict_log(m, "mystery", 100)
        with pytest.raises(ValueError):
            asy.predict_log(m, "mu", 0)

    def test_gamma_form_r0_analog_matches_hardy_ramanujan(self):
        # the exponential-form constant continues to r=0 as half the
        # partition asymptotic (positive values carry half the mass)
        gamma0 = asy.dirichlet_eta(0) / (4 * math.sqrt(3))
        assert abs(2 * gamma0 - 1 / (4 * math.sqrt(3))) < 1e-15
        N = 1200
        p = qs.partition_series(N).coeffs[N]
        assert abs(math.log(p) - hardy_ramanujan_log(N)) < 0.1


class TestTrend:
    def test_requires_three_points(self):
        m = asy.build_model(2, 1)
        with pytest.raises(ValueError, match="3 ladder"):
            asy.trend([100, 200], [1, 2], m, "M_pos")

    def test_requires_increasing(self):
        m = asy.build_model(2, 1)
        with pytest.raises(ValueError, match="increasing"):
            asy.trend([100, 50, 200], [1, 2, 3], m, "M_pos")

    def test_requires_positive_values(self):
        m = asy.build_model(2, 1)
        with pytest.raises(ValueError, match="positive"):
            asy.trend([50, 100, 200], [1, -2, 3], m, "M_pos")

    def test_partition_asymptotic_trend(self):
        # exact p(N) against its leading asymptotic: residuals fall like
        # N^{-1/2}
        series = qs.partition_series(2000).coeffs
        Ns = [250, 500, 1000, 2000]
        logs = [hardy_ramanujan_log(N) for N in Ns]
        ratios = [math.exp(math.log(series[N]) - lp) for N, lp in zip(Ns, logs)]
        residuals = [abs(x - 1) for x in ratios]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] < 0.04

    def test_moment_trend_report(self):
        Ns = [250, 500, 1000, 2000]
        vals = [mm.symmetrized_series(1, 3, N)[N] for N in Ns]
        m = asy.build_model(3, 1)
        rep = asy.trend(Ns, vals, m, "mu")
        assert rep.decreasing
        assert rep.residuals[-1] < 0.05
        assert -0.85 < rep.fitted_exponent < -0.15
        d = rep.as_dict()
        assert d["target"] == "mu" and len(d["ratios"]) == 4
        assert set(d) == {"target", "r", "ell", "terms", "Ns", "exact_log",
                          "predicted_log", "ratios", "decreasing",
                          "fitted_exponent", "exponent_stderr"}
        with pytest.raises(AttributeError):
            rep.decreasing = False

    def test_two_term_variant_selection(self):
        # the decisive experiment for the subleading-constant form: with
        # the eta(r-1) weight the two-term residual keeps shrinking like 1/N,
        # with the shifted weight it stalls at the 1/sqrt(N) scale
        Ns = [500, 1000, 2000]
        vals = [mm.symmetrized_series(1, 4, N)[N] for N in Ns]
        rep_eta = asy.trend(Ns, vals, asy.build_model(4, 1), "mu", terms=2)
        rep_shifted = asy.trend(Ns, vals, shifted_model(4, 1), "mu", terms=2)
        assert rep_eta.residuals[-1] < 0.1 * rep_shifted.residuals[-1]
        assert rep_eta.fitted_exponent < -0.8
        assert rep_shifted.fitted_exponent > -0.7

    def test_two_term_beats_one_term(self):
        for r in (3, 4, 5):
            N = 2000
            val = mm.symmetrized_series(1, r, N)[N]
            m = asy.build_model(r, 1)
            one = abs(math.exp(math.log(val) - asy.predict_log(m, "mu", N, 1)) - 1)
            two = abs(math.exp(math.log(val) - asy.predict_log(m, "mu", N, 2)) - 1)
            assert two < one
