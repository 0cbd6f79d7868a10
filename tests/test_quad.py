"""Quadrature engine: constant integrals, tails, determinism, budgets."""

import math
import random

import pytest

from etaint import _backend, _pykernels, closed_forms, quad, specfun, verify
from etaint import _forms as F
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
        # the lower limit is a power of two, and both bounds are in err_est
        assert math.frexp(r.lower)[0] == 0.5 and 1e-12 <= r.lower <= 0.125
        assert r.err_est >= r.tail_err + r.lower_err

    def test_budget_exhaustion_raises(self):
        with pytest.raises(NonConvergenceError) as info:
            integrate(KernelSpec("cos", 1, a=2000.0), 1e-13, max_evals=600)
        assert 570 < info.value.evals <= 600

    @pytest.mark.parametrize("backend", sorted(_backend.available_backends()))
    def test_non_finite_panel_raises(self, monkeypatch, backend):
        # x^-60 overflows near 0 (inf * eta = NaN); NaN > tol is False, so
        # without the check the bisection would end as if converged.
        monkeypatch.setattr(_backend, "panel", _backend.available_backends()[backend].panel)
        with pytest.raises(DomainError, match="not finite"):
            quad._adaptive(F.FORM_POWER, 1, 60.0, 0.0, 1e-12, 1.0, 1e-11, EVAL_BUDGET)

    @pytest.mark.parametrize("backend", sorted(_backend.available_backends()))
    @pytest.mark.parametrize("n,a", [(1, -200.0), (3, -200.0), (1, -1000.0)])
    def test_overflowing_tail_bound_raises(self, monkeypatch, backend, n, a):
        # x^-a e^(-rate x) with a << 0: the tail bound exceeds any double
        kernels = _backend.available_backends()[backend]
        monkeypatch.setattr(_backend, "panel", kernels.panel)
        monkeypatch.setattr(_backend, "kernel_weight", kernels.kernel_weight)
        with pytest.raises(DomainError, match="cannot be bounded"):
            integrate(KernelSpec("power", n, a=a))

    def test_cutoff_with_unbounded_tail_raises(self):
        # x^3 eta(ix) still grows at x = 2: no finite tail bound there, and an
        # infinite err_est would pass any residual
        with pytest.raises(DomainError, match="cutoff=2 .* no finite bound"):
            integrate(KernelSpec("power", 1, a=-3.0), cutoff=2.0)
        assert math.isfinite(integrate(KernelSpec("power", 1, a=-3.0), 1e-6, cutoff=100.0).err_est)

    def test_tail_that_no_cutoff_bounds_raises(self):
        # x^100000 e^(-pi x/4) still grows at x = 1e5
        with pytest.raises(DomainError, match="no cutoff below x=1e5"):
            integrate(KernelSpec("power", 3, a=-1e5))

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


def _mp_lower_mass(k: KernelSpec, lo: float) -> float:
    """int_0^lo |w(x) eta^n(ix)| dx by mpmath at 30-digit working precision.

    With t = 1/x, eta(ix) = t^{1/2} e^{-pi t/12} prod (1 - e^{-2 pi j t})
    is the product form of eta(it), so the integral becomes one over
    [1/lo, inf) of an exponentially decaying integrand.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, p = mpmath.mpf(k.a), mpmath.mpf(k.p)
        sqrt = mpmath.sqrt
        weight = {
            "power": lambda x: x**-a,
            "exp": lambda x: mpmath.exp(-a * x),
            "cos": lambda x: mpmath.cos(a * x),
            "sin": lambda x: mpmath.sin(a * x),
            "exp_recip": lambda x: mpmath.exp(-a / x) / sqrt(x),
            "cos_recip": lambda x: mpmath.cos(a / x) / sqrt(x),
            "erf_weight": lambda x: mpmath.erf(sqrt(a * x)) / sqrt(x),
            "scaled_erfc_recip": lambda x: mpmath.exp(a / x) * mpmath.erfc(sqrt(a / x)) / sqrt(x),
            "shifted_recip": lambda x: (x + a) ** -p,
            "sqrt_shift": lambda x: sqrt((sqrt(x * x + 1) - 1) / (x * x + 1)),
            "exp_over_x": lambda x: mpmath.exp(-a * x) / x,
            "im_rsqrt": lambda x: mpmath.im(mpmath.mpc(x, -a) ** mpmath.mpf(-0.5)),
        }[k.form]

        def eta_n(t):
            q = mpmath.exp(-2 * mpmath.pi * t)
            prod, qj = mpmath.mpf(1), q
            while qj > mpmath.mpf(10) ** -35:
                prod *= 1 - qj
                qj *= q
            return (sqrt(t) * mpmath.exp(-mpmath.pi * t / 12) * prod) ** k.n

        t0 = 1 / mpmath.mpf(lo)
        mass = mpmath.quad(lambda t: abs(weight(1 / t)) * eta_n(t) / (t * t),
                           [t0, 2 * t0, mpmath.inf])
        return float(mass)


def _lower_cases():
    """(kernel, tol) for every eta kernel of the grid and at the domain edges."""
    cases = set()
    for spec in verify.default_registry():
        if callable(spec.kernel):
            for point in spec.param_grid:
                cases.add((spec.kernel(point), max(spec.tol / 10.0, 1e-13)))
    for pair in ("exp", "exp_sqrt", "sin_sqrt"):  # transform_pair_check's f sides
        for n in (1, 3):
            cases.add((verify._TP_PAIRS[pair][0](n, 1.0), 1e-10))
    edges = [("power", 25.7, 1.0), ("power", -5.0, 1.0), ("im_rsqrt", 1e-3, 1.0),
             ("shifted_recip", 0.0, 0.5), ("shifted_recip", 0.0, 1.0), ("exp_over_x", 0.0, 1.0)]
    for form, a, p in edges:
        for n in (1, 3):
            for tol in (1e-11, 1e-13):
                cases.add((KernelSpec(form, n, a=a, p=p), tol))
    return sorted(cases)


class TestLowerLimit:
    """Each eta integral starts at the largest power of two 2^-j <= 1/8
    whose bound on the clipped mass is <= tol/4."""

    def test_every_eta_form_is_covered(self):
        covered = {k.form for k, _ in _lower_cases()}
        assert covered == {name for name, row in FORMS.items() if row.eta}

    @pytest.mark.parametrize("kernel,tol", _lower_cases(), ids=str)
    def test_bound_covers_the_clipped_mass(self, kernel, tol):
        _, m, amp = quad._decay_model(kernel)
        lo, bound = quad._choose_lower(kernel.n, m, amp, 0.25 * tol)
        assert math.frexp(lo)[0] == 0.5 and 1e-12 <= lo <= 0.125
        assert bound == quad._lower_mass_bound(kernel.n, m, amp, lo) <= 0.25 * tol
        assert _mp_lower_mass(kernel, lo) <= bound

    @pytest.mark.parametrize("n", [1, 3])
    def test_sup_sits_at_the_lower_limit(self, n):
        # A tiny amplitude meets tol/4 at 1/8, but x^-25.7 x^{-n/2} e^{-n pi/(12 x)}
        # peaks at n pi/(12 (n/2 + 25.7)): only below it is sup * lo a bound.
        kernel = KernelSpec("power", n, a=25.7)
        lo, _ = quad._choose_lower(kernel.n, -25.7, 1e-300, 2.5e-12)
        assert lo <= n * math.pi / (12.0 * (0.5 * n + 25.7)) < 2.0 * lo

    def test_an_overflowing_bound_moves_the_limit_down(self):
        # amp x^m overflows a double at the first candidates: they are skipped
        lo, bound = quad._choose_lower(3, -25.7, 1e300, 2.5e-14)
        assert quad._lower_mass_bound(3, -25.7, 1e300, 2.0 * lo) > 2.5e-14
        assert 2.0**-39 <= lo and bound <= 2.5e-14

    def test_cutoff_must_exceed_the_lower_limit(self):
        kernel = KernelSpec("exp_over_x", 1, a=100.0)
        lower = integrate(kernel, 1e-11).lower
        # any cutoff above 1/8 is accepted
        assert integrate(kernel, 1e-11, cutoff=0.2).lower == lower < 0.125
        with pytest.raises(DomainError, match="exceed the lower limit"):
            integrate(kernel, 1e-11, cutoff=lower)

    def test_result_reports_the_lower_limit(self):
        kernel = KernelSpec("cos", 1, a=5.0)
        r = integrate(kernel, 1e-11)
        _, m, amp = quad._decay_model(kernel)
        assert (r.lower, r.lower_err) == quad._choose_lower(kernel.n, m, amp, 0.25e-11)
        assert r.lower == 2.0**-7

    def test_without_eta_the_limit_stays_zero(self):
        assert integrate(KernelSpec("sech_aux", 0, a=1.0, p=1.0), 1e-11).lower == 0.0
        assert integrate(KernelSpec("tp_rhs3_u", 0, a=1.0, p=0.0), 1e-11).lower == 0.0

    def test_breakpoints_are_graded_and_dyadic(self):
        assert quad._initial_breakpoints(2.0**-7, 4.0, 2.0**-6) == [
            2.0**e for e in range(-7, 3)
        ]
        assert quad._initial_breakpoints(0.0, 1.0) == [0.0, 0.25, 0.5, 1.0]


_EPS = 2.220446049250313e-16


def _mp_moments(c: float) -> list[float]:
    """int_{-1}^{1} T_k(t) cos(ct) dt (k even), sin(ct) dt (k odd), k = 0..14.

    mpmath at 60 digits: T_k expanded in powers of t, and
    I_p = int_{-1}^{1} t^p e^{ict} dt integrated by parts exactly.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        ic = mpmath.mpc(0, c)
        e_plus, e_minus = mpmath.exp(ic), mpmath.exp(-ic)
        powers = [(e_plus - e_minus) / ic]
        for p in range(1, 15):
            powers.append((e_plus - (-1) ** p * e_minus - p * powers[-1]) / ic)
        cheb = [[1], [0, 1]]  # integer coefficients of T_k
        while len(cheb) < 15:
            nxt = [0] + [2 * x for x in cheb[-1]]
            for i, x in enumerate(cheb[-2]):
                nxt[i] -= x
            cheb.append(nxt)
        out = []
        for k, coeffs in enumerate(cheb):
            v = sum((x * powers[p] for p, x in enumerate(coeffs)), mpmath.mpc(0))
            out.append(float(v.real if k % 2 == 0 else v.imag))
        return out


def _mp_panel(form: int, n: int, y: float, a: float, b: float) -> float:
    """int_a^b w(yx) eta^n(ix) dx for w = cos or sin, 0 <= a < b <= 1, by mpmath.

    The direct q-series of eta^n (eta: sum chi_12(m) e^{-pi m^2 x/12};
    eta^3: sum (-1)^k (2k+1) e^{-pi (2k+1)^2 x/4}) is integrated term by
    term in closed form at 40 digits.  Below x = 1 the kernels evaluate eta
    through the modular transform instead, so the two do not share a path.
    Below x = 0.004 eta^n(ix) < 1e-27 and that piece is dropped (< 1e-29).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lo, b, y = max(mpmath.mpf(a), mpmath.mpf("0.004")), mpmath.mpf(b), mpmath.mpf(y)
        if lo >= b:
            return 0.0
        if n == 1:
            terms = [(1 if m % 12 in (1, 11) else -1, mpmath.pi * m * m / 12)
                     for m in range(1, 400) if m % 12 in (1, 5, 7, 11)]
        else:
            terms = [((-1) ** k * (2 * k + 1), mpmath.pi * (2 * k + 1) ** 2 / 4)
                     for k in range(120)]

        def primitive(x, lam):
            e = mpmath.exp(-lam * x) / (lam * lam + y * y)
            if form == F.FORM_COS:
                return e * (y * mpmath.sin(y * x) - lam * mpmath.cos(y * x))
            return -e * (lam * mpmath.sin(y * x) + y * mpmath.cos(y * x))

        total = mpmath.mpf(0)
        for coef, lam in terms:
            if lam * lo > 100:  # e^{-100}: the rest is below 1e-40
                break
            total += coef * (primitive(b, lam) - primitive(lo, lam))
        return float(total)


def _mp_recip_panel(n: int, p: float, a: float, b: float) -> float:
    """int_a^b x^-1/2 cos(p/x) eta^n(ix) dx, 0 < a < b, by mpmath at 30 digits.

    In t = 1/x it is int_{1/b}^{1/a} cos(pt) g(t) dt with g(t) = x^{3/2}
    eta^n(ix), which the modular transform makes eta^3(it) for n = 3 and
    eta(it)/t for n = 1.  Their q-series in t are integrated term by term
    in closed form: e^{-lam t} cos(pt) by its primitive, e^{-lam t}/t
    cos(pt) as Re[E1(s/b) - E1(s/a)] with s = lam - ip.  The kernels take
    the same series only where x < 1 and then scale it by x^{3/2}; terms
    with lam/b > 100 are below 1e-40 and dropped.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        tb, ta, p = 1 / mpmath.mpf(b), 1 / mpmath.mpf(a), mpmath.mpf(p)
        if n == 1:
            terms = [(1 if m % 12 in (1, 11) else -1, mpmath.pi * m * m / 12)
                     for m in range(1, 2000) if m % 12 in (1, 5, 7, 11)]
        else:
            terms = [((-1) ** k * (2 * k + 1), mpmath.pi * (2 * k + 1) ** 2 / 4)
                     for k in range(600)]

        def primitive(t, lam):
            e = mpmath.exp(-lam * t) / (lam * lam + p * p)
            return e * (p * mpmath.sin(p * t) - lam * mpmath.cos(p * t))

        total = mpmath.mpf(0)
        for coef, lam in terms:
            if lam * tb > 100:
                break
            if n == 3:
                total += coef * (primitive(ta, lam) - primitive(tb, lam))
            else:
                s = mpmath.mpc(lam, -p)
                total += coef * (mpmath.e1(s * tb) - mpmath.e1(s * ta)).real
        return float(total)


class TestFilonPanel:
    """cos/sin panels with c = p1 (b - a)/2 > 3 use the Filon-Clenshaw-Curtis
    rule: 15 eta samples, the oscillation integrated exactly by moments."""

    # c <= 14: forward recurrence to degree int(c) - 1, then the boundary-value
    # solve.  13.043 is the worst point of a 3,000-point scan of [3, 14];
    # 8.4175 was the worst, off by 1.8e4 eps/c, with mu_2 as the solve's lower end.
    @pytest.mark.parametrize(
        "c",
        [3.000001, 3.5, 5.0, 7.7, 8.4175, 10.0, 13.043, 13.9, 14.0,
         14.000001, 14.5, 17.96, 20.0, 31.4159, 100.0, 1e3, 12345.678, 1e5, 1e6],
    )
    def test_moments_match_mpmath(self, c):
        got = _pykernels._moments(c)
        want = _mp_moments(c)
        for k in range(15):
            # the moments are O(1/c); both methods keep 100 eps of that
            assert abs(got[k] - want[k]) <= 100.0 * _EPS / c, (k, got[k], want[k])

    def test_err_est_bounds_the_true_error(self):
        # The engine's panels: [1e-12, 2^-l], dyadic pieces of [0, 1] and the
        # graded panels [2^-j, 2^(1-j)] toward the lower limit.  Besides
        # err_est, allow for the rounding of the weight's argument p1 x
        # itself (eps p1 b times the mass) and the reference's 1e-29.
        rng = random.Random(7)
        checked = small_c = 0
        while checked < 160:
            form = rng.choice((F.FORM_COS, F.FORM_SIN))
            n = rng.choice((1, 3))
            y = 10 ** rng.uniform(0.5, 6.0)
            if rng.random() < 0.25:
                j = rng.randint(1, 9)
                a, b = 2.0**-j, 2.0 ** (1 - j)
            else:
                level = rng.randint(0, 12)
                j = 0 if rng.random() < 0.2 else rng.randrange(2**level)
                a, b = max(j / 2**level, 1e-12), (j + 1) / 2**level
            c = y * 0.5 * (b - a)
            if c <= 3.0:
                continue
            checked += 1
            small_c += c <= 14.0
            value, err, resabs = _backend.panel(form, n, y, 0.0, a, b)
            true_err = abs(value - _mp_panel(form, n, y, a, b))
            assert true_err <= err + _EPS * y * b * resabs + 1e-29, (form, n, y, a, b)
        assert small_c >= 40

    def test_cos_recip_err_est_bounds_the_true_error(self):
        # cos_recip panels take the cos rule in t = 1/x where
        # c = p1 (1/a - 1/b)/2 > 3.  A8's panels: the graded [2^-j, 2^(1-j)]
        # toward the lower limit, dyadic pieces of [0, 4] and the doubling
        # panels up to its cutoff.  Besides err_est, allow for the rounding of
        # the weight's argument p1 t (eps p1 / a times the mass) and 1e-29,
        # which covers panels far below the tolerance near the lower limit
        # (values of 1e-88 there, where 15 samples of eta^3(it) ~ e^{-pi t/4}
        # over t in [256, 512] leave a relative error of 1e-5).
        rng = random.Random(13)
        checked = small_c = 0
        while checked < 60:
            n = rng.choice((1, 3))
            p1 = 10 ** rng.uniform(-0.5, 4.7)
            r = rng.random()
            if r < 0.25:
                j = rng.randint(1, 9)
                a, b = 2.0**-j, 2.0 ** (1 - j)
            elif r < 0.4:
                j = rng.randint(0, 4)
                a, b = 2.0**j, 2.0 ** (j + 1)
            else:
                level = rng.randint(0, 10)
                j = rng.randrange(1, 4 * 2**level)
                a, b = j / 2**level, (j + 1) / 2**level
            c = p1 * 0.5 * (1.0 / a - 1.0 / b)
            if c <= 3.0:
                continue
            checked += 1
            small_c += c <= 14.0
            value, err, resabs = _backend.panel(F.FORM_COS_RECIP, n, p1, 0.0, a, b)
            true_err = abs(value - _mp_recip_panel(n, p1, a, b))
            assert true_err <= err + _EPS * p1 / a * resabs + 1e-29, (n, p1, a, b)
        assert small_c >= 10

    @pytest.mark.parametrize("form", [F.FORM_COS, F.FORM_SIN])
    def test_fifteen_samples_resolve_any_frequency(self, form):
        # c = 25,000: Gauss-Kronrod would need thousands of panels here,
        # while this one panel's estimate sits at its 50 eps rounding floor
        value, err, resabs = _backend.panel(form, 1, 1e5, 0.0, 0.5, 1.0)
        assert err == 50.0 * _EPS * resabs
        assert abs(value - _mp_panel(form, 1, 1e5, 0.5, 1.0)) <= err


@pytest.mark.parametrize("backend", sorted(_backend.available_backends()))
def test_a8_passes_across_its_frequency_range(monkeypatch, backend):
    # With the Filon rule in t = 1/x the panel count follows eta, not
    # cos(a/x): GK15 alone needed about 150 evaluations per unit of a and
    # ran out of budget from a of about 650.
    kernels = _backend.available_backends()[backend]
    monkeypatch.setattr(_backend, "panel", kernels.panel)
    monkeypatch.setattr(_backend, "kernel_weight", kernels.kernel_weight)
    spec = verify.registry_by_id()["A8"]
    for i in range(60):
        a = 10.0 ** (-3.0 + i * (math.log10(5e4) + 3.0) / 59)
        record = verify.verify_identity(spec, {"a": a})
        assert record.status == "pass" and record.evals <= 1_000, (a, record)


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
        assert {"im_rsqrt", "exp", "tp_rhs3_u", "tp_rhs1_u"} <= set(bounded)
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
