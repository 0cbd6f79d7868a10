"""Self-contained special functions backing the closed-form evaluators.

Everything here is plain double precision built on the math module; no
third-party numerics.  Accuracy targets (absolute unless stated):

========================  =================================================
``log_gamma``             relative < 1e-13 on x > 0
``digamma``               < 1e-12 on x > 0
``hurwitz_zeta``          relative < 1e-12 away from the s = 1 pole
``hurwitz_zeta_combo``    < 1e-12, total function of w (pole cancellation)
``dirichlet_beta``        relative < 1e-12 for all real s
``erf``/``erfc``          < 1e-13, complementarity to 1e-13
``erfc_scaled``           relative ~1e-13, no overflow for any x >= 0
========================  =================================================

The Hurwitz zeta continuation uses Euler-Maclaurin with N = 25 shifted
terms and Bernoulli corrections through B16; the first omitted correction
is below 1e-14 for every argument the identity suite needs.
"""

from __future__ import annotations

import math
from math import exp, fsum, log, pi, sin, sqrt

from .errors import DomainError, PoleError

__all__ = [
    "gamma",
    "log_gamma",
    "digamma",
    "hurwitz_zeta",
    "hurwitz_zeta_combo",
    "dirichlet_beta",
    "erf",
    "erfc",
    "erfc_scaled",
    "sinh_minus_sin",
]

# B_{2k} for k = 1..8 (through B16).
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

# B_{2k} / (2k)! for k = 1..8, used by the Euler-Maclaurin tail.
_B2K_OVER_FACT = tuple(b / math.factorial(2 * k) for k, b in enumerate(_B2K, start=1))

_EM_SHIFT = 25  # Euler-Maclaurin shifted-sum depth
_LN_SQRT_2PI = 0.5 * log(2.0 * pi)


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 via upward recurrence + Stirling series."""
    x = _require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    shift = []
    z = x
    while z < 10.0:
        shift.append(log(z))
        z += 1.0
    rz = 1.0 / z
    rz2 = rz * rz
    # Stirling tail sum_{k} B_{2k} / (2k(2k-1) z^{2k-1})
    tail = 0.0
    p = rz
    for k, b in enumerate(_B2K, start=1):
        tail += b / (2 * k * (2 * k - 1)) * p
        p *= rz2
    core = (z - 0.5) * log(z) - z + _LN_SQRT_2PI + tail
    if not shift:
        return core
    return core - fsum(shift)


def gamma(x: float) -> float:
    """Gamma(x) = exp(log_gamma(x)), x > 0."""
    return exp(log_gamma(x))


def digamma(x: float) -> float:
    """psi(x) for x > 0: upward recurrence to x >= 8, then the asymptotic series."""
    x = _require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    acc = []
    z = x
    while z < 8.0:
        acc.append(1.0 / z)
        z += 1.0
    rz = 1.0 / z
    rz2 = rz * rz
    # psi(z) ~ ln z - 1/(2z) - sum_k B_{2k} / (2k z^{2k})
    tail = 0.0
    p = rz2
    for k, b in enumerate(_B2K, start=1):
        tail += b / (2 * k) * p
        p *= rz2
    core = log(z) - 0.5 * rz - tail
    if not acc:
        return core
    return core - fsum(acc)


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) for real s != 1 and a in (0, 1], by Euler-Maclaurin.

    Valid on the analytic continuation (s may be negative); raises
    PoleError at s = 1.
    """
    s = _require_finite(s, "s")
    a = _require_finite(a, "a")
    if not 0.0 < a <= 1.0:
        raise DomainError(f"hurwitz_zeta requires a in (0, 1], got {a}")
    if s == 1.0:
        raise PoleError("hurwitz_zeta has a pole at s = 1")
    pieces = [(k + a) ** (-s) for k in range(_EM_SHIFT)]
    nb = _EM_SHIFT + a
    pieces.append(nb ** (1.0 - s) / (s - 1.0))
    pieces.append(0.5 * nb ** (-s))
    # Correction terms B_{2j}/(2j)! * (s)_{2j-1} * nb^{-s-2j+1}
    poch = s
    pw = nb ** (-s - 1.0)
    nb2 = nb * nb
    for j, coef in enumerate(_B2K_OVER_FACT, start=1):
        pieces.append(coef * poch * pw)
        pw /= nb2
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return fsum(pieces)


# Shifts entering the four-term zeta combination.
_COMBO_SHIFTS = (
    (1.0 / 12.0, 1.0),
    (11.0 / 12.0, 1.0),
    (5.0 / 12.0, -1.0),
    (7.0 / 12.0, -1.0),
)


def hurwitz_zeta_combo(w: float) -> float:
    """Z(w) = zeta(w,1/12) + zeta(w,11/12) - zeta(w,5/12) - zeta(w,7/12).

    The four simple poles at w = 1 cancel; there the finite limit
    -[psi(1/12) + psi(11/12) - psi(5/12) - psi(7/12)] is returned exactly
    (Laurent expansion zeta(w, a) = 1/(w-1) - psi(a) + O(w-1)).
    """
    w = _require_finite(w, "w")
    if w == 1.0:
        return -fsum(sign * digamma(a) for a, sign in _COMBO_SHIFTS)
    return fsum(sign * hurwitz_zeta(w, a) for a, sign in _COMBO_SHIFTS)


def dirichlet_beta(s: float) -> float:
    """beta(s) = sum (-1)^n (2n+1)^{-s}, continued to all real s.

    Computed through the Hurwitz route beta(s) = 4^{-s}[zeta(s,1/4) -
    zeta(s,3/4)]; at s = 1 the two zeta poles cancel and the exact
    digamma limit (psi(3/4) - psi(1/4))/4 = pi/4 is used.
    """
    s = _require_finite(s, "s")
    if s == 1.0:
        return 0.25 * (digamma(0.75) - digamma(0.25))
    return 4.0 ** (-s) * (hurwitz_zeta(s, 0.25) - hurwitz_zeta(s, 0.75))


def erf(x: float) -> float:
    """Error function."""
    return math.erf(_require_finite(x, "x"))


def erfc(x: float) -> float:
    """Complementary error function."""
    return math.erfc(_require_finite(x, "x"))


def erfc_scaled(x: float) -> float:
    """exp(x^2) * erfc(x) for x >= 0, evaluated without overflow.

    Direct product below x = 26 (where erfc is still normal); the
    asymptotic series 1/(x sqrt(pi)) * sum (-1)^k (2k-1)!!/(2x^2)^k
    beyond, which is already below double rounding there.
    """
    x = _require_finite(x, "x")
    if x < 0.0:
        raise DomainError(f"erfc_scaled requires x >= 0, got {x}")
    return erfc_scaled_unchecked(x)


def erfc_scaled_unchecked(x: float) -> float:
    """``erfc_scaled`` without its argument checks, for the pure-Python
    quadrature kernel's inner loop: x >= 0, or +inf (which gives 0.0, the
    limit, as in the C twin)."""
    if x < 26.0:
        return exp(x * x) * math.erfc(x)
    r2 = 0.5 / (x * x)
    term = 1.0
    acc = 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) * r2
        acc += term
        if abs(term) < 1e-17 * acc:
            break
    return acc / (x * sqrt(pi))


def sinh_minus_sin(x: float) -> float:
    """sinh(x) - sin(x), with the small-x cancellation removed.

    Both terms are ~x near zero while the difference is x^3/3; below
    |x| = 0.5 the exact series 2(x^3/3! + x^7/7! + x^11/11! + ...) is
    summed instead (four terms reach double precision there).
    """
    x = _require_finite(x, "x")
    if abs(x) >= 0.5:
        return math.sinh(x) - sin(x)
    x2 = x * x
    x4 = x2 * x2
    term = x * x2 / 3.0  # 2 x^3/3!
    acc = term
    for m in (7, 11, 15):
        # step x^{m-4}/(m-4)! -> x^m/m!
        term *= x4 / ((m - 3) * (m - 2) * (m - 1) * m)
        acc += term
    return acc
