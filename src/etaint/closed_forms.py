"""Independent right-hand sides of the identities in the registry.

Each registry row (``verify.default_registry``) binds its identity to
one of the named functions here; ``closed_form`` looks the row up by
id.  Everything is computed through specfun and elementary (real or
complex) functions; never through the quadrature that produces the
left-hand sides.  The three exceptions whose right-hand side *is* an
integral (A2, A4, A6) call ``quad.integrate_rhs_aux`` from their rows
and are marked ``rhs-by-quadrature`` in the registry notes, as weaker
evidence.

Two display-level defects of the printed source equations are corrected
here so that the identities hold (the registry notes record both):

* The cosine/sine transforms of eta (EQ8/EQ10): the printed forms reuse
  the argument sqrt(8 pi y/3) in the denominator, which is inconsistent
  with the (verified) Laplace transform EQ5 they are derived from.  The
  implementation takes the stated derivation literally: the real and
  negated imaginary parts of the Laplace transform continued to t = iy.
* The eta^3 moments (A15): the printed prefactor 4 n!/pi^{n+1} fails
  for every n >= 1; the correct prefactor n! 4^{n+1}/pi^{n+1} follows
  from differentiating the Laplace transform A1 at y = 0 and matches
  the Euler-number expansion of sech.

A10 is *not* corrected: it is implemented exactly as printed and its
registry entry is flagged (its prefactor disagrees with both a -> 0 and
a -> inf asymptotics; empirically the printed form is 1/sqrt(a) times
the integral, exact only at a = 1).
"""

from __future__ import annotations

import cmath
import math
from functools import wraps
from math import atan, cos, cosh, exp, factorial, pi, sin, sinh, sqrt, tanh

from . import specfun
from .errors import DomainError

__all__ = [
    "laplace_eta",
    "mellin_eta",
    "fourier_cos_eta",
    "fourier_sin_eta",
    "laplace_eta3",
    "mellin_eta3",
    "cos_recip_eta3",
    "erf_weight_eta3",
    "scaled_erfc_recip_eta3",
    "fourier_cos_eta3",
    "fourier_sin_eta3",
    "moment_eta3",
    "closed_form",
    "closed_form_ids",
    "rhs_by_quadrature",
    "TWO_PI_OVER_SQRT3",
]

TWO_PI_OVER_SQRT3 = 2.0 * pi / sqrt(3.0)


def _finite(v: float, name: str) -> float:
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        raise DomainError(f"{name} must be finite, got {v!r}")
    return v


def _finite_result(param: str):
    """Decorator: a right-hand side of one parameter that overflows double
    precision (by OverflowError, or an inf or NaN result) raises DomainError
    naming the parameter."""

    def wrap(f):
        @wraps(f)
        def checked(x: float) -> float:
            try:
                v = f(x)
            except OverflowError:
                v = math.inf
            if not math.isfinite(v):
                raise DomainError(
                    f"{f.__name__} overflows in double precision at {param}={float(x):g}"
                )
            return v

        return checked

    return wrap


def laplace_eta(t: float) -> float:
    """EQ5: int e^{-t x} eta(ix) dx = sqrt(pi/t) sinh(2 sqrt(pi t/3)) / cosh(sqrt(3 pi t)).

    Continuously extended by 2 pi/sqrt(3) at t = 0.
    """
    t = _finite(t, "t")
    if t < 0.0:
        raise DomainError(f"laplace_eta requires t >= 0, got {t}")
    if t == 0.0:
        return TWO_PI_OVER_SQRT3
    u = 2.0 * sqrt(pi * t / 3.0)
    v = sqrt(3.0 * pi * t)
    if v > 350.0:
        # sinh(u)/cosh(v) in overflow-safe exponential form
        ratio = exp(u - v) * (1.0 - exp(-2.0 * u)) / (1.0 + exp(-2.0 * v))
        return sqrt(pi / t) * ratio
    return sqrt(pi / t) * sinh(u) / cosh(v)


def _laplace_eta_complex(t: complex) -> complex:
    u = 2.0 * cmath.sqrt(pi * t / 3.0)
    v = cmath.sqrt(3.0 * pi * t)
    if cmath.isinf(v):
        # Beyond |t| = 1.9e307, where 3 pi t overflows (and pi t from 5.7e307),
        # the square roots split as in _sqrt_half_pi: sqrt(t) < 1.4e154.
        r = cmath.sqrt(t)
        u = 2.0 * sqrt(pi / 3.0) * r
        v = sqrt(3.0 * pi) * r
    if v.real > 350.0:
        # sinh(u)/cosh(v) in overflow-safe exponential form (Re u, Re v > 0)
        ratio = cmath.exp(u - v) * (1.0 - cmath.exp(-2.0 * u)) / (1.0 + cmath.exp(-2.0 * v))
        return cmath.sqrt(pi / t) * ratio
    return cmath.sqrt(pi / t) * cmath.sinh(u) / cmath.cosh(v)


@_finite_result("s")
def mellin_eta(s: float) -> float:
    """EQ7: int x^{-s} eta(ix) dx, for s > 0.

    8 sqrt(3) pi / (16^s (3 pi)^s) * Gamma(2s-1)/Gamma(s) * Z(2s-1) with
    Z the four-term Hurwitz zeta combination.  At s = 1/2 the Gamma pole
    meets the zero Z(0) = 0 and the product limit is Z'(0) computed from
    zeta'(0, a) = ln Gamma(a) - ln(2 pi)/2; at s = 1 the combination
    itself takes its digamma-limit value.
    """
    s = _finite(s, "s")
    if s <= 0.0:
        raise DomainError(f"mellin_eta requires s > 0, got {s}")
    prefactor = 8.0 * sqrt(3.0) * pi / (16.0 ** s * (3.0 * pi) ** s)
    w = 2.0 * s - 1.0
    if s == 0.5:
        zprime0 = (
            specfun.log_gamma(1.0 / 12.0)
            + specfun.log_gamma(11.0 / 12.0)
            - specfun.log_gamma(5.0 / 12.0)
            - specfun.log_gamma(7.0 / 12.0)
        )
        return prefactor * zprime0 / specfun.gamma(s)
    z = specfun.hurwitz_zeta_combo(w)
    if s == 1.0:
        ratio = 1.0
    elif s > 0.5:
        ratio = exp(specfun.log_gamma(w) - specfun.log_gamma(s))
    else:
        # Gamma(w) = Gamma(w+1)/w for w in (-1, 0); w + 1 is written 2s
        # because w = 2s - 1 has already rounded away the low digits of s.
        ratio = exp(specfun.log_gamma(2.0 * s) - specfun.log_gamma(s)) / w
    return prefactor * ratio * z


def fourier_cos_eta(y: float) -> float:
    """EQ8: int cos(xy) eta(ix) dx = Re of the Laplace transform at t = iy."""
    y = _finite(y, "y")
    if y < 0.0:
        raise DomainError(f"fourier_cos_eta requires y >= 0, got {y}")
    if y < 1e-280:  # pi/(iy) overflows below; the limit is already exact here
        return TWO_PI_OVER_SQRT3
    return _laplace_eta_complex(1j * y).real


def fourier_sin_eta(y: float) -> float:
    """EQ10: int sin(xy) eta(ix) dx = -Im of the Laplace transform at t = iy."""
    y = _finite(y, "y")
    if y < 0.0:
        raise DomainError(f"fourier_sin_eta requires y >= 0, got {y}")
    if y < 1e-280:
        return 0.0
    return -_laplace_eta_complex(1j * y).imag


def laplace_eta3(y: float) -> float:
    """EQ14/A1: int e^{-x y} eta^3(ix) dx = sech(sqrt(pi y))."""
    y = _finite(y, "y")
    if y < 0.0:
        raise DomainError(f"laplace_eta3 requires y >= 0, got {y}")
    u = sqrt(pi * y)
    if u > 350.0:
        return 2.0 * exp(-u) / (1.0 + exp(-2.0 * u))
    return 1.0 / cosh(u)


@_finite_result("nu")
def mellin_eta3(nu: float) -> float:
    """A3: int x^{-nu} eta^3(ix) dx = (4/pi^nu) Gamma(2nu)/Gamma(nu) beta(2nu)."""
    nu = _finite(nu, "nu")
    if nu <= 0.0:
        raise DomainError(f"A3 requires nu > 0, got {nu}")
    ratio = exp(specfun.log_gamma(2.0 * nu) - specfun.log_gamma(nu))
    return 4.0 / pi ** nu * ratio * specfun.dirichlet_beta(2.0 * nu)


def cos_recip_eta3(a: float) -> float:
    """A8: int x^{-1/2} cos(a/x) eta^3(ix) dx
    = 2 cos(u) cosh(u)/(cos(v) + cosh(v)), u = sqrt(pi a/2), v = sqrt(2 pi a)."""
    a = _finite(a, "a")
    if a < 0.0:
        raise DomainError(f"A8 requires a >= 0, got {a}")
    u = _sqrt_half_pi(a)
    v = sqrt(2.0 * pi * a)
    if v == math.inf:  # 2 pi a overflows: split as in _sqrt_half_pi
        v = sqrt(2.0 * pi) * sqrt(a)
    if v > 350.0:
        # divided through by e^v/2, with cosh w = e^w (1 + e^{-2w})/2:
        # nothing overflows
        num = 2.0 * cos(u) * exp(u - v) * (1.0 + exp(-2.0 * u))
        return num / (1.0 + exp(-2.0 * v) + 2.0 * cos(v) * exp(-v))
    return 2.0 * cos(u) * cosh(u) / (cos(v) + cosh(v))


def erf_weight_eta3(b: float) -> float:
    """A9: int x^{-1/2} erf(sqrt(b x)) eta^3(ix) dx."""
    b = _finite(b, "b")
    if b < 0.0:
        raise DomainError(f"A9 requires b >= 0, got {b}")
    return 4.0 / pi * atan(tanh(0.5 * sqrt(pi * b)))


def scaled_erfc_recip_eta3(a: float) -> float:
    """A10 as printed: int x^{-1/2} exp(a/x) erfc(sqrt(a/x)) eta^3(ix) dx.

    Includes the 1/(pi sqrt(a)) prefactor that fails the asymptotic
    checks; the registry flags this identity.
    """
    a = _finite(a, "a")
    if a <= 0.0:
        raise DomainError(f"A10 requires a > 0, got {a}")
    z = 0.5 * sqrt(a / pi)
    return (specfun.digamma(z + 0.75) - specfun.digamma(z + 0.25)) / (pi * sqrt(a))


def _sqrt_half_pi(y: float) -> float:
    """v = sqrt(pi y/2) of A11 and A12 (u of A8), y >= 0.  Beyond
    y = 5.7e307, where pi y overflows, v comes as sqrt(pi/2) sqrt(y), which
    stays below 1.7e154."""
    v = sqrt(pi * y / 2.0)
    if v == math.inf:
        v = sqrt(pi / 2.0) * sqrt(y)
    return v


def fourier_cos_eta3(y: float) -> float:
    """A11: int cos(xy) eta^3(ix) dx."""
    y = _finite(y, "y")
    if y < 0.0:
        raise DomainError(f"A11 requires y >= 0, got {y}")
    v = _sqrt_half_pi(y)
    if v > 350.0:
        # divided through by e^{2v}/4, with E = e^{-2v}: nothing overflows
        big_e = exp(-2.0 * v)
        den = (1.0 - big_e) ** 2 + 4.0 * big_e * cos(v) ** 2
        return 2.0 * exp(-v) * (1.0 + big_e) * cos(v) / den
    return cosh(v) * cos(v) / (sinh(v) ** 2 + cos(v) ** 2)


def fourier_sin_eta3(y: float) -> float:
    """A12: int sin(xy) eta^3(ix) dx."""
    y = _finite(y, "y")
    if y < 0.0:
        raise DomainError(f"A12 requires y >= 0, got {y}")
    v = _sqrt_half_pi(y)
    if v > 350.0:
        # as in fourier_cos_eta3, with sinh v = e^v (1 - E)/2
        big_e = exp(-2.0 * v)
        den = (1.0 - big_e) ** 2 + 4.0 * big_e * cos(v) ** 2
        return 2.0 * exp(-v) * (1.0 - big_e) * sin(v) / den
    return sinh(v) * sin(v) / (sinh(v) ** 2 + cos(v) ** 2)


def moment_eta3(n) -> float:
    """A15: int x^n eta^3(ix) dx = n! 4^(n+1)/pi^(n+1) beta(2n+1)."""
    if n != int(n) or n < 0:
        raise DomainError(f"A15 requires an integer n >= 0, got {n!r}")
    n = int(n)
    return factorial(n) * 4.0 ** (n + 1) / pi ** (n + 1) * specfun.dirichlet_beta(2 * n + 1)


def _registry_by_id() -> dict:
    from . import verify  # imported on first use: verify imports this module

    return verify.registry_by_id()


def closed_form_ids() -> tuple[str, ...]:
    """All identity ids with a right-hand-side evaluator, in registry order."""
    return tuple(_registry_by_id())


def rhs_by_quadrature(ident: str) -> bool:
    """True when the right-hand side is itself evaluated by quadrature."""
    spec = _registry_by_id().get(ident)
    return spec is not None and spec.notes.startswith("rhs-by-quadrature")


def closed_form(ident: str, params: dict | None = None, tol: float = 1e-11) -> float:
    """Evaluate the right-hand side of an identity in the registry.

    ``tol`` only matters for the rhs-by-quadrature ids (A2, A4, A6).
    Raises DomainError for unknown ids or out-of-domain parameters.
    """
    spec = _registry_by_id().get(ident)
    if spec is None:
        raise DomainError(f"unknown identity id {ident!r}")
    return spec.rhs(params or {}, tol)
