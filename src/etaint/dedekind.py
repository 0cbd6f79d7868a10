"""Dedekind eta function and its cube on the positive imaginary axis.

With the real nome q = exp(-2 pi x), x > 0:

    eta(ix)   = q^{1/24} prod_{n>=1} (1 - q^n)
              = sum_n c_n q^{(2n+1)^2/24},  c_n in {+1, 0, -1}
                (the cosine-weighted rearrangement of Euler's pentagonal
                 identity: c_n = (2/sqrt 3) cos[(2n+1) pi/6])
    eta^3(ix) = sum_n (-1)^n (2n+1) q^{(2n+1)^2/8}   (Jacobi triple product)

Both series converge at theta speed once q <= exp(-2 pi).  For x < 1 the
modular functional equation eta(ix) = x^{-1/2} eta(i/x) keeps the working
nome in that regime; it is a numerical accelerator only, self-consistency
is property-tested.

Every value carries a rigorous truncation bound: a first-omitted-term
bound for the alternating eta^3 series, a geometric majorant for the eta
series (whose coefficients are not sign-alternating term by term).
"""

from __future__ import annotations

import math
from math import exp, pi
from typing import NamedTuple

from .errors import DomainError, ToleranceError

__all__ = [
    "EtaValue",
    "eta",
    "eta_cubed",
    "eta_product",
    "trunc_terms_needed",
    "series_terms",
    "remainder_integral_bound",
]

TERM_BUDGET = 10_000

# c_n pattern of the eta series by n mod 6.
_ETA_COEF = (1.0, 0.0, -1.0, -1.0, 0.0, 1.0)


class EtaValue(NamedTuple):
    """An eta-power value with its truncation-error certificate."""

    value: float
    trunc_bound: float
    terms_used: int
    path: str  # "series" | "product" | "modular-accelerated"


def _check_args(x: float, tol: float) -> tuple[float, float]:
    x = float(x)
    tol = float(tol)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be a finite positive real, got {x!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a finite positive real, got {tol!r}")
    return x, tol


def _rate(power: int, n: int) -> float:
    return (pi / 12.0 if power == 1 else pi / 4.0) * (2 * n + 1) ** 2


def series_terms(power: int, n_terms: int) -> list[tuple[float, float]]:
    """The nonzero terms among the first n_terms of the series, as (c_n, lam_n).

    eta^power(ix) = sum_n c_n e^{-lam_n x}, with lam_n = pi (2n+1)^2 / 12
    for eta and pi (2n+1)^2 / 4 for eta^3.
    """
    out = []
    for n in range(n_terms):
        if power == 1:
            c = _ETA_COEF[n % 6]
        else:
            c = float(2 * n + 1) if n % 2 == 0 else -float(2 * n + 1)
        if c != 0.0:
            out.append((c, _rate(power, n)))
    return out


def _tail_bound(x_eff: float, power: int, n_terms: int) -> float:
    """Bound on the omitted tail after n_terms terms of the series at x_eff.

    power=1: geometric majorant sum_{n>=N} q^{(2n+1)^2/24}
             <= q^{(2N+1)^2/24} / (1 - q^{(N+1)/3}).
    power=3: alternating series with decreasing terms, so the first
             omitted term (2N+1) q^{(2N+1)^2/8} bounds the tail.
    """
    n = n_terms
    e = _rate(power, n) * x_eff
    if e > 745.0:
        return 0.0
    if power == 1:
        ratio = exp(-2.0 * pi * x_eff * (n + 1) / 3.0)
        return exp(-e) / (1.0 - ratio)
    return (2 * n + 1) * exp(-e)


def remainder_integral_bound(x0: float, power: int, n_terms: int) -> float:
    """Bound on int_{x0}^inf |eta^power(ix) - first n_terms of the series| dx.

    For x0 >= 1.  The pointwise bound ``_tail_bound(x, power, N)`` is
    e^{-lam_N x} times a factor that does not grow with x, so its
    integral over [x0, inf) is at most ``_tail_bound(x0, power, N) / lam_N``.
    """
    return _tail_bound(x0, power, n_terms) / _rate(power, n_terms)


def trunc_terms_needed(x_eff: float, power: int, tol: float) -> int:
    """Smallest term count whose tail bound at x_eff drops below tol.

    Requires the post-acceleration regime x_eff >= 1, where the bounds
    above contract at least geometrically.
    """
    x_eff, tol = _check_args(x_eff, tol)
    if x_eff < 1.0:
        raise DomainError(f"trunc_terms_needed requires x_eff >= 1, got {x_eff}")
    if power not in (1, 3):
        raise DomainError(f"power must be 1 or 3, got {power}")
    for n in range(1, TERM_BUDGET + 1):
        if _tail_bound(x_eff, power, n) < tol:
            return n
    raise ToleranceError(
        f"term budget {TERM_BUDGET} exhausted for x_eff={x_eff}, tol={tol}"
    )


def _series(x_eff: float, power: int, n_terms: int) -> float:
    acc = 0.0
    for c, lam in series_terms(power, n_terms):
        e = lam * x_eff
        if e > 745.0:
            break
        acc += c * exp(-e)
    return acc


def _eval(x: float, tol: float, power: int) -> EtaValue:
    if x < 1.0:
        x_eff = 1.0 / x
        amp = x ** (-0.5 * power)  # x^{-1/2} for eta, x^{-3/2} for eta^3
        path = "modular-accelerated"
    else:
        x_eff = x
        amp = 1.0
        path = "series"
    # For x small enough that amp is huge, the series and its tail both
    # underflow to exact zero (true value below double range); clamping
    # the per-series tolerance keeps the term search well-posed.
    tol_eff = max(tol / amp, 1e-320)
    n = trunc_terms_needed(x_eff, power, tol_eff)
    series = _series(x_eff, power, n)
    tail = _tail_bound(x_eff, power, n)
    if series == 0.0 and tail == 0.0:
        return EtaValue(value=0.0, trunc_bound=0.0, terms_used=n, path=path)
    return EtaValue(
        value=amp * series,
        trunc_bound=amp * tail,
        terms_used=n,
        path=path,
    )


def eta(x: float, tol: float = 1e-15) -> EtaValue:
    """eta(ix) for x > 0, with |value - eta(ix)| <= trunc_bound <= tol."""
    x, tol = _check_args(x, tol)
    return _eval(x, tol, 1)


def eta_cubed(x: float, tol: float = 1e-15) -> EtaValue:
    """eta^3(ix) for x > 0, with |value - eta^3(ix)| <= trunc_bound <= tol."""
    x, tol = _check_args(x, tol)
    return _eval(x, tol, 3)


def eta_product(x: float, factors: int = 200) -> float:
    """Partial product q^{1/24} prod_{n=1}^{factors} (1 - q^n).

    Cross-check oracle only: no acceleration, no error certificate.  The
    omitted factors are within q^{factors+1} * (1 + o(1)) relatively.
    """
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be a finite positive real, got {x!r}")
    if factors < 1:
        raise DomainError(f"factors must be >= 1, got {factors}")
    lam = 2.0 * pi * x
    prod = 1.0
    for n in range(1, factors + 1):
        e = lam * n
        if e > 745.0:
            break
        prod *= 1.0 - exp(-e)
    return exp(-lam / 24.0) * prod
