"""Closed-form evaluators against series oracles and limit relations."""

import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

from etaint import closed_forms as cf
from etaint import specfun
from etaint.errors import DomainError

from conftest import eta_transform_series_oracle, fourier_rhs_mp

TWO_PI_OVER_SQRT3 = 2.0 * math.pi / math.sqrt(3.0)


class TestLaplaceEta:
    def test_zero_limit(self):
        assert cf.laplace_eta(0.0) == TWO_PI_OVER_SQRT3

    @pytest.mark.parametrize("t", [0.1, 1.0, 3.0 * math.pi, 10.0])
    def test_partial_fraction_oracle(self, t):
        # termwise integration of the eta series: sum c_n / (r_n + t)
        ref = eta_transform_series_oracle(lambda r, tt: 1.0 / (r + tt), t)
        assert cf.laplace_eta(t) == pytest.approx(ref, rel=1e-10)

    def test_rearranged_form_at_two_pi(self):
        # the same closed form written through the nome-power variable:
        # pi sqrt(2) sinh(pi sqrt(8/3))/cosh(pi sqrt(6)) / (2 pi) at t = 2 pi
        ref = (
            math.pi
            * math.sqrt(2.0)
            * math.sinh(math.pi * math.sqrt(8.0 / 3.0))
            / math.cosh(math.pi * math.sqrt(6.0))
            / (2.0 * math.pi)
        )
        assert cf.laplace_eta(2.0 * math.pi) == pytest.approx(ref, rel=1e-14)

    def test_completely_monotone_scan(self):
        ts = [1.0 + 0.25 * k for k in range(37)]
        vals = [cf.laplace_eta(t) for t in ts]
        assert all(u > v > 0.0 for u, v in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.laplace_eta(-0.5)


class TestMellinEta:
    def test_half_matches_reflection_value(self):
        # Z'(0) = ln[sin(5 pi/12)/sin(pi/12)] by the reflection formula,
        # so M(1/2) = 2 ln(2 + sqrt 3)
        assert cf.mellin_eta(0.5) == pytest.approx(
            2.0 * math.log(2.0 + math.sqrt(3.0)), rel=1e-13
        )

    def test_symmetry(self):
        # modular symmetry M(s) = M(3/2 - s)
        for s in (0.25, 0.4, 0.7, 0.749):
            assert cf.mellin_eta(s) == pytest.approx(cf.mellin_eta(1.5 - s), rel=1e-12)

    def test_one_equals_half(self):
        # special case of the symmetry, through the two distinct limit paths
        assert cf.mellin_eta(1.0) == pytest.approx(cf.mellin_eta(0.5), rel=1e-12)

    def test_small_s_approaches_total_integral(self):
        assert cf.mellin_eta(1e-3) == pytest.approx(TWO_PI_OVER_SQRT3, abs=1e-2)

    @pytest.mark.parametrize("s0", [0.5, 1.0])
    def test_continuity_at_limit_paths(self, s0):
        v = cf.mellin_eta(s0)
        assert abs(cf.mellin_eta(s0 + 1e-6) - v) < 1e-4
        assert abs(cf.mellin_eta(s0 - 1e-6) - v) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.mellin_eta(0.0)
        with pytest.raises(DomainError):
            cf.mellin_eta(-1.0)

    @pytest.mark.parametrize("f,param,value", [
        (cf.mellin_eta, "s", 150.0), (cf.mellin_eta, "s", 1e300),
        (cf.mellin_eta3, "nu", 200.0), (cf.mellin_eta3, "nu", 1e300),
    ])
    def test_overflow_is_a_domain_error(self, f, param, value):
        with pytest.raises(DomainError, match=re.escape(f"{param}={value:g}")):
            f(value)


class TestFourierEta:
    def test_cos_zero_limit(self):
        assert cf.fourier_cos_eta(0.0) == TWO_PI_OVER_SQRT3

    def test_sin_zero_limit(self):
        assert cf.fourier_sin_eta(0.0) == 0.0

    @pytest.mark.parametrize("y", [0.5, 1.0, 5.0])
    def test_cos_partial_fraction_oracle(self, y):
        # sum c_n r_n / (r_n^2 + y^2)
        ref = eta_transform_series_oracle(
            lambda r, yy: r / (r * r + yy * yy), y
        )
        assert cf.fourier_cos_eta(y) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("y", [0.5, 1.0, 5.0])
    def test_sin_partial_fraction_oracle(self, y):
        # sum c_n y / (r_n^2 + y^2)
        ref = eta_transform_series_oracle(
            lambda r, yy: yy / (r * r + yy * yy), y
        )
        assert cf.fourier_sin_eta(y) == pytest.approx(ref, abs=1e-10)

    @given(st.floats(min_value=0.0, max_value=40.0))
    def test_denominator_never_vanishes(self, y):
        c = cf.fourier_cos_eta(y)
        s = cf.fourier_sin_eta(y)
        assert c * c + s * s > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.fourier_cos_eta(-1.0)
        with pytest.raises(DomainError):
            cf.fourier_sin_eta(-1.0)


_FOURIER_FORMS = {
    "EQ8": cf.fourier_cos_eta,
    "EQ10": cf.fourier_sin_eta,
    "A11": cf.fourier_cos_eta3,
    "A12": cf.fourier_sin_eta3,
}


class TestFourierLargeY:
    """Beyond y ~ 8e4 the hyperbolic factors overflow a double; the closed
    forms switch to an e^{-v}-scaled expression there (at y = 1e5 A11 and
    A12 are ~1e-172, at 1e6 they underflow to 0)."""

    @pytest.mark.parametrize("y", [2e4, 5e4, 1e5, 1e6])
    @pytest.mark.parametrize("ident", sorted(_FOURIER_FORMS))
    def test_matches_mpmath(self, ident, y):
        got = _FOURIER_FORMS[ident](y)
        want = fourier_rhs_mp(ident, y)
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-11 * abs(want) + 1e-320, (got, want)

    @pytest.mark.parametrize("y", [1e308, sys.float_info.max])
    @pytest.mark.parametrize("ident", ["A11", "A12"])
    def test_eta3_forms_where_pi_y_overflows(self, ident, y):
        # beyond y = 5.7e307, where v = sqrt(pi y/2) no longer comes from pi y
        assert _FOURIER_FORMS[ident](y) == 0.0 == fourier_rhs_mp(ident, y)

    @pytest.mark.parametrize("y", [2e307, 1e308, sys.float_info.max])
    @pytest.mark.parametrize("ident", ["EQ8", "EQ10"])
    def test_eta_forms_where_pi_y_overflows(self, ident, y):
        # beyond y = 1.9e307, where 3 pi y overflows, the square roots of the
        # Laplace transform at t = iy come from sqrt(t) (they gave NaN)
        assert _FOURIER_FORMS[ident](y) == 0.0 == fourier_rhs_mp(ident, y)


def _a8_mp(a: float) -> float:
    """A8's printed right-hand side at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        u = mpmath.sqrt(mpmath.pi * mpmath.mpf(a) / 2)
        v = 2 * u
        return float(2 * mpmath.cos(u) * mpmath.cosh(u) / (mpmath.cos(v) + mpmath.cosh(v)))


class TestCosRecipLargeA:
    """A8's right-hand side: cosh(v) overflows from v = sqrt(2 pi a) of
    about 710 (a = 8.0e4); from v = 350 (a = 1.95e4) it is divided through
    by e^v/2 (~1e-172 at a = 1e5, 0 by 1e8)."""

    @pytest.mark.parametrize("a", [1.9e4, 19496.48, 19496.49, 2e4, 8.3e4, 1e5, 1.5e5])
    def test_matches_mpmath(self, a):
        got = cf.cos_recip_eta3(a)
        want = _a8_mp(a)
        # u ~ 500 is good to eps u, and so are e^-u and cos(u) (5e-13 at 1.5e5)
        assert abs(got - want) <= 1e-11 * abs(want) + 1e-320, (got, want)

    @pytest.mark.parametrize("a", [1e8, 1e12, 1e300, 1e308, sys.float_info.max])
    def test_zero_where_it_underflows(self, a):
        assert cf.cos_recip_eta3(a) == 0.0 == _a8_mp(a)


class TestLaplaceEta3:
    def test_zero(self):
        assert cf.laplace_eta3(0.0) == 1.0

    def test_at_pi(self):
        # sech(sqrt(pi * pi)) = sech(pi)
        assert cf.laplace_eta3(math.pi) == pytest.approx(1.0 / math.cosh(math.pi), rel=1e-14)

    def test_complete_monotonicity_scan(self):
        ys = [0.25 * k for k in range(41)]
        vals = [cf.laplace_eta3(y) for y in ys]
        d1 = [v - u for u, v in zip(vals, vals[1:])]
        d2 = [v - u for u, v in zip(d1, d1[1:])]
        assert all(d < 0.0 for d in d1)  # decreasing
        assert all(d > 0.0 for d in d2)  # convex

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.laplace_eta3(-0.1)


class TestClosedFormDispatch:
    def test_ids_complete(self):
        ids = cf.closed_form_ids()
        assert len(ids) == 25
        assert ids[0] == "EQ5" and "A7" in ids and "A15" in ids

    def test_constants(self):
        assert cf.closed_form("A7") == math.sqrt(2.0) - 1.0
        assert cf.closed_form("EQ16") == math.sqrt(2.0) - 1.0
        assert cf.closed_form("A13") == TWO_PI_OVER_SQRT3
        assert cf.closed_form("EQ9") == TWO_PI_OVER_SQRT3
        assert cf.closed_form("A14") == 1.0
        assert cf.closed_form("EQ11") == math.pi / 4.0
        assert cf.closed_form("EQ17") == math.pi / 8.0

    def test_a5_equals_eta3_laplace(self):
        for a in (0.25, 1.0, 4.0):
            assert cf.closed_form("A5", {"a": a}) == cf.laplace_eta3(a)

    def test_a1_equals_eq14(self):
        for y in (0.25, 1.0, 4.0):
            assert cf.closed_form("A1", {"y": y}) == cf.closed_form("EQ14", {"y": y})

    def test_a11_at_zero(self):
        assert cf.closed_form("A11", {"y": 0.0}) == pytest.approx(1.0, rel=1e-15)

    def test_a15_euler_number_oracle(self):
        # (-1)^n E_{2n} pi^n n!/(2n)! from the sech Taylor coefficients
        euler = [1.0, -1.0, 5.0, -61.0]
        for n in range(4):
            ref = (
                (-1.0) ** n
                * euler[n]
                * math.pi**n
                * math.factorial(n)
                / math.factorial(2 * n)
            )
            assert cf.closed_form("A15", {"n": n}) == pytest.approx(ref, rel=1e-12)

    def test_rhs_by_quadrature_marking(self):
        assert cf.rhs_by_quadrature("A2")
        assert cf.rhs_by_quadrature("A4")
        assert cf.rhs_by_quadrature("A6")
        assert not cf.rhs_by_quadrature("A5")

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            cf.closed_form("A16")

    def test_param_domain_errors(self):
        with pytest.raises(DomainError):
            cf.closed_form("A3", {"nu": 0.0})
        with pytest.raises(DomainError):
            cf.closed_form("A15", {"n": -1})
        with pytest.raises(DomainError):
            cf.closed_form("A15", {"n": 1.5})
        with pytest.raises(DomainError):
            cf.closed_form("A10", {"a": 0.0})


class TestLimitWeb:
    """Cross-identity consistency relations that need no quadrature."""

    def test_a15_zero_equals_a14(self):
        assert cf.closed_form("A15", {"n": 0}) == pytest.approx(
            cf.closed_form("A14"), abs=1e-10
        )

    def test_a3_half_is_one(self):
        assert cf.closed_form("A3", {"nu": 0.5}) == pytest.approx(1.0, abs=1e-10)

    def test_a3_one_is_catalan_combination(self):
        ref = 4.0 * specfun.dirichlet_beta(2.0) / math.pi
        assert cf.closed_form("A3", {"nu": 1.0}) == pytest.approx(ref, abs=1e-10)

    def test_fourier_laplace_zero_agreement(self):
        assert cf.fourier_cos_eta(0.0) == cf.laplace_eta(0.0) == TWO_PI_OVER_SQRT3

    def test_a9_limit_direction(self):
        # the b -> inf limit is 1, approached like (4/pi) e^{-sqrt(pi b)}
        gap = 1.0 - cf.closed_form("A9", {"b": 50.0})
        assert 0.0 < gap < 1e-5

    def test_a10_printed_form_off_by_sqrt_a(self):
        # the flagged identity: printed rhs * sqrt(a) passes the a -> 0
        # consistency the printed form itself fails
        a = 1e-12
        printed = cf.closed_form("A10", {"a": a})
        assert printed * math.sqrt(a) == pytest.approx(1.0, abs=1e-4)
        assert printed > 1e5  # diverges as printed
