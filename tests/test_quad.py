"""Quadrature engine: constant integrals, tails, determinism, budgets."""

import math

import pytest

from etaint import closed_forms, specfun
from etaint._forms import FORMS
from etaint.errors import DomainError, NonConvergenceError
from etaint.quad import (
    EVAL_BUDGET,
    KernelSpec,
    integrate,
    integrate_glaisher,
    integrate_rhs_aux,
)

from conftest import eta_transform_series_oracle

TWO_PI_OVER_SQRT3 = 2.0 * math.pi / math.sqrt(3.0)


class TestConstantIntegrals:
    def test_eta_total_integral(self):
        r = integrate(KernelSpec("exp", 1, a=0.0), 1e-11)
        assert abs(r.value - TWO_PI_OVER_SQRT3) <= 1e-10
        assert abs(r.value - TWO_PI_OVER_SQRT3) <= 10.0 * r.err_est

    def test_eta3_total_integral(self):
        r = integrate(KernelSpec("exp", 3, a=0.0), 1e-11)
        assert abs(r.value - 1.0) <= 1e-10

    def test_sqrt_shift_eta3(self):
        r = integrate(KernelSpec("sqrt_shift", 3), 1e-11)
        assert abs(r.value - (math.sqrt(2.0) - 1.0)) <= 1e-10


class TestGlaisher:
    def test_eq11_value(self):
        r = integrate_glaisher("eq11", 1e-11)
        assert abs(r.value - math.pi / 4.0) <= 1e-10
        assert r.tail_method == "algebraic-correction"

    def test_eq17_value(self):
        r = integrate_glaisher("eq17", 1e-11)
        assert abs(r.value - math.pi / 8.0) <= 1e-10
        assert r.tail_method == "exp-bound"

    def test_eq11_tail_at_thirty(self):
        r = integrate_glaisher("eq11", 1e-11, cutoff=30.0)
        assert abs(r.tail_value - 1.0 / 30.0) < 1e-12
        assert abs(r.value - math.pi / 4.0) <= max(1e-10, r.err_est)

    def test_eq11_cutoff_doubling(self):
        r1 = integrate_glaisher("eq11", 1e-11)
        r2 = integrate_glaisher("eq11", 1e-11, cutoff=2.0 * r1.cutoff)
        assert abs(r1.value - r2.value) <= r1.err_est

    def test_unknown_selector(self):
        with pytest.raises(DomainError):
            integrate_glaisher("eq12")


class TestRhsAux:
    def test_a6_at_zero_is_catalan_combination(self):
        # (2/pi) int_0^inf x sech x dx = 4 G / pi with G = beta(2)
        r = integrate_rhs_aux("A6_rhs", 0.0, 1e-11)
        ref = 4.0 * specfun.dirichlet_beta(2.0) / math.pi
        assert abs(r.value - ref) <= 1e-10

    def test_a4_at_zero_is_one(self):
        # (2/pi) int sech = (2/pi)(pi/2)
        r = integrate_rhs_aux("A4_rhs", 0.0, 1e-11)
        assert abs(r.value - 1.0) <= 1e-10

    def test_a2_decreases_in_a(self):
        vals = [integrate_rhs_aux("A2_rhs", a, 1e-11).value for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(u > v > 0.0 for u, v in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_rhs_aux("A9_rhs", 1.0)
        with pytest.raises(DomainError):
            integrate_rhs_aux("A2_rhs", -1.0)


class TestEngineContracts:
    def test_determinism_bit_identical(self):
        a = integrate(KernelSpec("cos", 1, a=5.0), 1e-11)
        b = integrate(KernelSpec("cos", 1, a=5.0), 1e-11)
        assert a == b  # tuple equality is fieldwise and exact

    @pytest.mark.parametrize(
        "kernel",
        [
            KernelSpec("exp", 1, a=0.0),
            KernelSpec("exp", 3, a=1.0),
            KernelSpec("power", 3, a=1.5),
            KernelSpec("exp_recip", 3, a=1.0),
            KernelSpec("cos", 1, a=100.0),
            KernelSpec("sin", 3, a=100.0),
        ],
    )
    def test_cutoff_doubling(self, kernel):
        r1 = integrate(kernel, 1e-11)
        r2 = integrate(kernel, 1e-11, cutoff=2.0 * r1.cutoff)
        assert abs(r1.value - r2.value) <= r1.err_est

    def test_metadata(self):
        r = integrate(KernelSpec("power", 3, a=1.0), 1e-11)
        assert r.evals > 0
        assert r.evals <= EVAL_BUDGET
        assert math.isfinite(r.cutoff) and r.cutoff > 0.0
        assert r.tail_method == "exp-bound"
        assert r.lower == 1e-12

    def test_budget_exhaustion_raises(self):
        with pytest.raises(NonConvergenceError):
            integrate(KernelSpec("cos", 1, a=2000.0), 1e-13, max_evals=600)

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            integrate(KernelSpec("exp", 1, a=0.0), 1e-14)

    def test_err_estimate_includes_tail(self):
        r = integrate(KernelSpec("exp", 3, a=0.0), 1e-11)
        assert r.err_est > 0.0
        assert r.err_est <= 1e-11


def _mp_integral(form: str, n: int, a: float, lo: float) -> float:
    """int_lo^inf w(x) eta^n(ix) dx by mpmath at 30 digits, lo in {0, 1}.

    eta comes from its product form q^{1/24} prod (1 - q^k), never from
    the q-series the engine sums; below x = 1 it is mapped through
    eta(ix) = x^{-1/2} eta(i/x).  Beyond x = 180 (eta) or 60 (eta^3)
    the integrand is below e^{-15 pi}, so the omitted part is < 1e-20.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        eps = mpmath.mpf(10) ** -35
        a = mpmath.mpf(a)
        weight = {
            "exp": lambda x: mpmath.exp(-a * x),
            "cos": lambda x: mpmath.cos(a * x),
            "sin": lambda x: mpmath.sin(a * x),
        }[form]

        def eta_product(x):
            q = mpmath.exp(-2 * mpmath.pi * x)
            prod, qk = mpmath.mpf(1), q
            while qk > eps:
                prod *= 1 - qk
                qk *= q
            return mpmath.exp(-mpmath.pi * x / 12) * prod

        def integrand(x):
            eta = eta_product(x) if x >= 1 else eta_product(1 / x) / mpmath.sqrt(x)
            return weight(x) * eta**n

        upper = 180 if n == 1 else 60
        total = mpmath.quad(integrand, mpmath.linspace(1, upper, upper // 2 + 1),
                            method="gauss-legendre")
        if lo == 0:
            total += mpmath.quad(integrand, [0, 1])
        return float(total)


_TAIL_CASES = [
    ("exp", 1, 0.0), ("exp", 1, 1.0), ("exp", 3, 0.0), ("exp", 3, 1.0),
    ("cos", 1, 5.0), ("cos", 3, 5.0), ("sin", 1, 5.0), ("sin", 3, 5.0),
]


class TestSeriesCorrectionTail:
    """exp/cos/sin kernels integrate [1, inf) term by term from the q-series."""

    @pytest.mark.parametrize("form,n,a", _TAIL_CASES)
    def test_tail_matches_mpmath(self, form, n, a):
        r = integrate(KernelSpec(form, n, a=a), 1e-11)
        assert r.tail_method == "series-correction" and r.cutoff == 1.0
        oracle = _mp_integral(form, n, a, 1)
        assert abs(r.tail_value - oracle) <= r.tail_err, (r.tail_value, oracle)

    @pytest.mark.parametrize("form,n,a", [c for c in _TAIL_CASES if c[0] == "exp"])
    def test_whole_integral_matches_mpmath(self, form, n, a):
        r = integrate(KernelSpec(form, n, a=a), 1e-11)
        oracle = _mp_integral(form, n, a, 0)
        assert abs(r.value - oracle) <= r.err_est, (r.value, oracle)

    def test_cutoff_below_the_split_rejected(self):
        with pytest.raises(DomainError):
            integrate(KernelSpec("cos", 1, a=5.0), 1e-11, cutoff=0.5)

    def test_independent_of_right_hand_sides(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the left-hand side read a right-hand side")

        for name in ("closed_form", "fourier_cos_eta", "laplace_eta"):
            monkeypatch.setattr(closed_forms, name, forbidden)
        r = integrate(KernelSpec("cos", 1, a=5.0), 1e-11)
        assert r.tail_method == "series-correction"
        ref = eta_transform_series_oracle(lambda lam, y: lam / (lam * lam + y * y), 5.0)
        assert abs(r.value - ref) <= 1e-10


class TestKernelSpecValidation:
    def test_unknown_form(self):
        with pytest.raises(DomainError):
            KernelSpec("gaussian", 1)

    def test_bad_eta_power(self):
        with pytest.raises(DomainError):
            KernelSpec("exp", 2, a=1.0)

    def test_aux_forms_need_n_zero(self):
        with pytest.raises(DomainError):
            KernelSpec("glaisher11", 1)
        with pytest.raises(DomainError):
            KernelSpec("exp", 0, a=1.0)

    def test_negative_parameters_rejected(self):
        bounded = {name: row for name, row in FORMS.items() if row.a_min is not None}
        assert "im_rsqrt" in bounded and "exp" in bounded
        for name, row in bounded.items():
            n = 3 if row.eta else 0
            below = row.a_min if row.a_open else row.a_min - 0.5
            with pytest.raises(DomainError):
                KernelSpec(name, n, a=below)
            KernelSpec(name, n, a=row.a_min + 0.5)  # inside the domain

    def test_shifted_recip_exponent(self):
        with pytest.raises(DomainError):
            KernelSpec("shifted_recip", 3, a=1.0, p=0.25)

    def test_nonfinite_parameter(self):
        with pytest.raises(DomainError):
            KernelSpec("exp", 3, a=math.nan)

    @pytest.mark.parametrize(
        "fields",
        [
            ("gaussian", 1, 0.0, 1.0),
            ("exp", 2, 1.0, 1.0),
            ("glaisher11", 1, 0.0, 1.0),
            ("exp", 0, 1.0, 1.0),
            ("exp", 3, -0.5, 1.0),
            ("im_rsqrt", 3, 0.0, 1.0),
            ("shifted_recip", 3, 1.0, 0.25),
            ("exp", 3, math.nan, 1.0),
            ("exp", 3, math.inf, 1.0),
        ],
    )
    def test_make_and_replace_check_like_the_constructor(self, fields):
        with pytest.raises(DomainError):
            KernelSpec(*fields)
        with pytest.raises(DomainError):
            KernelSpec._make(fields)
        with pytest.raises(DomainError):
            KernelSpec("sech_aux", 0)._replace(**dict(zip(KernelSpec._fields, fields)))

    def test_make_and_replace_return_kernel_specs(self):
        k = KernelSpec._make(("cos", 3, 5.0, 1.0))
        assert type(k) is KernelSpec and k == KernelSpec("cos", 3, a=5.0)
        r = k._replace(form="sin")
        assert type(r) is KernelSpec and r == KernelSpec("sin", 3, a=5.0)


class TestMellinSymmetry:
    """The modular functional equation forces M(s) = M(3/2 - s) on the
    Mellin side; two independent quadratures must agree."""

    @pytest.mark.parametrize("s", [0.25, 0.4, 0.6])
    def test_symmetry(self, s):
        r1 = integrate(KernelSpec("power", 1, a=s), 1e-11)
        r2 = integrate(KernelSpec("power", 1, a=1.5 - s), 1e-11)
        assert abs(r1.value - r2.value) <= 10.0 * (r1.err_est + r2.err_est) + 1e-11
