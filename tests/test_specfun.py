"""Special-function accuracy against independent oracles."""

import math

import pytest
from hypothesis import given, strategies as st

from etaint import specfun
from etaint.errors import DomainError, PoleError

from conftest import (
    alternating_sum_euler,
    erfc_scaled_cf_oracle,
    euler_gamma_oracle,
    zeta_direct_oracle,
)


class TestLogGamma:
    def test_gamma_one_and_two(self):
        assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=5e-15)
        assert specfun.log_gamma(2.0) == pytest.approx(0.0, abs=5e-15)

    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert specfun.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_integer_factorials(self):
        assert specfun.gamma(5.0) == pytest.approx(24.0, rel=1e-14)
        assert specfun.gamma(8.0) == pytest.approx(5040.0, rel=1e-14)

    @pytest.mark.parametrize("x", [0.08, 0.3, 0.7, 1.3, 2.5, 5.5, 9.7, 33.0])
    def test_duplication_formula(self, x):
        # Gamma(2x) = 2^(2x-1) Gamma(x) Gamma(x+1/2) / sqrt(pi)
        lhs = specfun.log_gamma(2.0 * x)
        rhs = (
            specfun.log_gamma(x)
            + specfun.log_gamma(x + 0.5)
            + (2.0 * x - 1.0) * math.log(2.0)
            - 0.5 * math.log(math.pi)
        )
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            specfun.log_gamma(bad)


class TestDigamma:
    @pytest.mark.parametrize("x", [0.3, 1.7, 5.2])
    def test_recurrence(self, x):
        assert specfun.digamma(x + 1.0) - specfun.digamma(x) == pytest.approx(
            1.0 / x, abs=1e-12
        )

    @given(st.floats(min_value=0.01, max_value=10.0))
    def test_recurrence_property(self, x):
        assert specfun.digamma(x + 1.0) - specfun.digamma(x) == pytest.approx(
            1.0 / x, rel=1e-11, abs=1e-12
        )

    def test_reflection_quarter(self):
        # psi(1-z) - psi(z) = pi cot(pi z) at z = 1/4 gives exactly pi
        assert specfun.digamma(0.75) - specfun.digamma(0.25) == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_at_one_is_minus_euler_gamma(self):
        assert specfun.digamma(1.0) == pytest.approx(-euler_gamma_oracle(), abs=1e-12)

    def test_half(self):
        # psi(1/2) = -gamma - 2 ln 2
        ref = -euler_gamma_oracle() - 2.0 * math.log(2.0)
        assert specfun.digamma(0.5) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            specfun.digamma(bad)


class TestHurwitzZeta:
    def test_reduces_to_riemann(self):
        # zeta(2, 1) = pi^2/6, against the direct-summation oracle
        ref = zeta_direct_oracle(2.0, 1.0)
        assert specfun.hurwitz_zeta(2.0, 1.0) == pytest.approx(ref, abs=1e-12)
        assert specfun.hurwitz_zeta(2.0, 1.0) == pytest.approx(
            math.pi**2 / 6.0, rel=1e-13
        )

    @pytest.mark.parametrize("s", [1.5, 2.5, 4.0])
    @pytest.mark.parametrize("a", [1.0 / 12.0, 0.25, 7.0 / 12.0, 1.0])
    def test_convergent_domain_oracle(self, s, a):
        assert specfun.hurwitz_zeta(s, a) == pytest.approx(
            zeta_direct_oracle(s, a), rel=1e-12
        )

    def test_bracket_on_convergent_domain(self):
        # partial sum + integral tail brackets the true value
        s, a, n = 2.5, 0.25, 10_000
        partial = math.fsum((k + a) ** (-s) for k in range(n))
        lower = partial + (n + a) ** (1.0 - s) / (s - 1.0)
        upper = partial + (n - 1 + a) ** (1.0 - s) / (s - 1.0)
        val = specfun.hurwitz_zeta(s, a)
        assert lower <= val <= upper

    def test_zero_reduction(self):
        # zeta(0, a) = 1/2 - a, exactly representable pieces
        assert specfun.hurwitz_zeta(0.0, 1.0 / 12.0) == pytest.approx(
            5.0 / 12.0, abs=1e-14
        )
        assert specfun.hurwitz_zeta(0.0, 0.75) == pytest.approx(-0.25, abs=1e-14)

    @pytest.mark.parametrize("a", [1.0 / 12.0, 5.0 / 12.0, 0.5, 1.0])
    def test_negative_one_bernoulli(self, a):
        # zeta(-1, a) = -B_2(a)/2 with B_2(a) = a^2 - a + 1/6
        ref = -(a * a - a + 1.0 / 6.0) / 2.0
        assert specfun.hurwitz_zeta(-1.0, a) == pytest.approx(ref, abs=1e-13)

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            specfun.hurwitz_zeta(1.0, 0.5)
        with pytest.raises(DomainError):
            specfun.hurwitz_zeta(2.0, 0.0)
        with pytest.raises(DomainError):
            specfun.hurwitz_zeta(2.0, 1.5)


class TestZetaCombo:
    def test_zero_cancels_exactly(self):
        # zeta(0, a) = 1/2 - a makes the four terms cancel
        assert abs(specfun.hurwitz_zeta_combo(0.0)) < 1e-13

    def test_limit_at_one_vs_richardson(self):
        # Z(1) from the digamma limit vs the symmetric average of the
        # Euler-Maclaurin path at w = 1 +- h (error O(h^2 Z''))
        h = 1e-4
        rich = 0.5 * (
            specfun.hurwitz_zeta_combo(1.0 + h) + specfun.hurwitz_zeta_combo(1.0 - h)
        )
        assert specfun.hurwitz_zeta_combo(1.0) == pytest.approx(rich, abs=1e-6)

    def test_continuity_across_one(self):
        # |Z'(1)| ~ 27, so the gap at h = 1e-6 sits near 2.7e-5; the
        # checked bound is the slope-based one (a pole would give ~1e6).
        z1 = specfun.hurwitz_zeta_combo(1.0)
        assert abs(specfun.hurwitz_zeta_combo(1.0 + 1e-6) - z1) < 5e-5
        assert abs(specfun.hurwitz_zeta_combo(1.0 - 1e-6) - z1) < 5e-5

    def test_positive_at_three(self):
        ref = math.fsum(
            sign * zeta_direct_oracle(3.0, a)
            for a, sign in [
                (1.0 / 12.0, 1.0),
                (11.0 / 12.0, 1.0),
                (5.0 / 12.0, -1.0),
                (7.0 / 12.0, -1.0),
            ]
        )
        got = specfun.hurwitz_zeta_combo(3.0)
        assert got > 0.0
        assert got == pytest.approx(ref, rel=1e-11)


class TestDirichletBeta:
    def test_at_one(self):
        assert specfun.dirichlet_beta(1.0) == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_catalan(self):
        ref = alternating_sum_euler(lambda k: (2 * k + 1) ** -2.0)
        assert specfun.dirichlet_beta(2.0) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 5.0])
    def test_alternating_route_agreement(self, s):
        ref = alternating_sum_euler(lambda k: (2 * k + 1) ** -s)
        assert specfun.dirichlet_beta(s) == pytest.approx(ref, rel=1e-12)

    def test_odd_closed_forms(self):
        # beta(3) = pi^3/32, beta(5) = 5 pi^5/1536, beta(7) = 61 pi^7/184320
        assert specfun.dirichlet_beta(3.0) == pytest.approx(math.pi**3 / 32.0, rel=1e-13)
        assert specfun.dirichlet_beta(5.0) == pytest.approx(
            5.0 * math.pi**5 / 1536.0, rel=1e-13
        )
        assert specfun.dirichlet_beta(7.0) == pytest.approx(
            61.0 * math.pi**7 / 184320.0, rel=1e-13
        )

    def test_a15_consistency_at_zero(self):
        # the n = 0 moment of eta^3 must reduce to 1
        assert 4.0 / math.pi * specfun.dirichlet_beta(1.0) == pytest.approx(
            1.0, rel=1e-14
        )


class TestErfFamily:
    def test_anchors(self):
        assert specfun.erf(0.0) == 0.0
        assert specfun.erfc(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_oddness(self, x):
        assert specfun.erf(-x) == -specfun.erf(x)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_complementarity(self, x):
        assert specfun.erf(x) + specfun.erfc(x) == pytest.approx(1.0, abs=1e-13)
        assert abs(specfun.erf(x)) <= 1.0

    def test_scaled_matches_continued_fraction(self):
        assert specfun.erfc_scaled(10.0) == pytest.approx(
            erfc_scaled_cf_oracle(10.0), rel=1e-12
        )
        assert specfun.erfc_scaled(10.0) == pytest.approx(0.05614099274, abs=5e-12)

    @pytest.mark.parametrize("x", [3.0, 8.0, 25.5, 26.5, 50.0, 1e4])
    def test_scaled_cf_sweep(self, x):
        assert specfun.erfc_scaled(x) == pytest.approx(
            erfc_scaled_cf_oracle(x), rel=2e-13
        )

    def test_scaled_small_consistency(self):
        # below the overflow split the definition is usable directly
        for x in (0.0, 0.25, 1.0, 2.0):
            ref = math.exp(x * x) * math.erfc(x)
            assert specfun.erfc_scaled(x) == pytest.approx(ref, rel=1e-14)

    def test_scaled_domain(self):
        with pytest.raises(DomainError):
            specfun.erfc_scaled(-0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_rejected(self, bad):
        for fn in (specfun.erf, specfun.erfc, specfun.erfc_scaled):
            with pytest.raises(DomainError):
                fn(bad)

    def test_unchecked_scaled_core(self):
        # the kernels' inner loop: the same value, and the limit 0 at +inf
        for x in (0.0, 1.0, 25.5, 26.5, 1e154):
            assert specfun.erfc_scaled_unchecked(x) == specfun.erfc_scaled(x)
        assert specfun.erfc_scaled_unchecked(math.inf) == 0.0


class TestSinhMinusSin:
    @pytest.mark.parametrize("x", [1e-8, 1e-3, 0.1, 0.499, 0.5, 2.0, 20.0])
    def test_against_series_bracket(self, x):
        # reference by 6-term exact series (converges for |x| < 3)
        if x <= 2.0:
            ref, term = 0.0, None
            for k in range(6):
                m = 4 * k + 3
                ref += 2.0 * x**m / math.factorial(m)
            assert specfun.sinh_minus_sin(x) == pytest.approx(ref, rel=1e-13)
        else:
            assert specfun.sinh_minus_sin(x) == pytest.approx(
                math.sinh(x) - math.sin(x), rel=1e-13
            )
