"""Shared fixtures and independent numeric oracles for the test suite.

The oracles here deliberately avoid the library's own evaluation paths:
brute-force sums, Euler-transformed alternating series, continued
fractions and block-accelerated partial fractions.  Expected values
asserted in the tests are computed by these, never copied from the
implementation under test.
"""

from __future__ import annotations

import math
import os

import pytest

import etaint
from etaint import verify


def subprocess_env(pure: bool = False) -> dict:
    """The environment for a child interpreter that imports this etaint."""
    env = dict(os.environ)
    env.pop("ETAINT_PURE", None)
    if pure:
        env["ETAINT_PURE"] = "1"
    src = os.path.dirname(os.path.dirname(etaint.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def suite_report():
    """One full default-registry run shared by the verification tests."""
    return verify.run_suite()


# ---------------------------------------------------------------- oracles


def alternating_sum_euler(term, levels: int = 40) -> float:
    """Euler-transformed alternating sum  sum_{k>=0} (-1)^k term(k).

    Repeated averaging of the partial-sum sequence; converges like
    2^-levels for smooth terms, independent of the library code.
    """
    rows = []
    s = 0.0
    for k in range(levels):
        s += term(k) if k % 2 == 0 else -term(k)
        rows.append(s)
    for _ in range(levels - 1):
        rows = [(a + b) / 2.0 for a, b in zip(rows, rows[1:])]
    return rows[0]


def euler_gamma_oracle(n: int = 2000) -> float:
    """Euler-Mascheroni constant from the harmonic-sum limit with
    endpoint corrections (error O(n^-4))."""
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 0.5 / n + 1.0 / (12.0 * n * n)


def zeta_direct_oracle(s: float, a: float, n: int = 200_000) -> float:
    """sum (k+a)^-s for s > 1 by direct summation plus an integral-tail
    midpoint correction (error far below the asserted tolerances)."""
    acc = math.fsum((k + a) ** (-s) for k in range(n))
    # sum_{k>=n} f(k) ~ int_{n-1/2}^inf f  (midpoint rule)
    tail = (n - 0.5 + a) ** (1.0 - s) / (s - 1.0)
    return acc + tail


def erfc_scaled_cf_oracle(x: float, depth: int = 80) -> float:
    """exp(x^2) erfc(x) by the Laplace continued fraction
    x/sqrt(pi) / (x^2 + (1/2)/(1 + 1/(x^2 + (3/2)/(1 + 2/(x^2 + ...))))),
    evaluated bottom-up; accurate for x >= ~2."""
    f = 0.0
    for k in range(depth, 0, -1):
        f = (k / 2.0) / (1.0 + f) if k % 2 else (k / 2.0) / (x * x + f)
    return x / math.sqrt(math.pi) / (x * x + f)


_ETA_COEF = (1.0, 0.0, -1.0, -1.0, 0.0, 1.0)


def eta_transform_series_oracle(weight, y: float, max_blocks: int = 400_000) -> float:
    """sum_n c_n * weight(r_n, y) with r_n = pi (2n+1)^2 / 12.

    The termwise-integrated form of the eta series (the route the
    Laplace/Fourier closed forms are derived by).  Summed in blocks of
    six so the zero-mean sign pattern cancels; stops once a block falls
    below 1e-16.
    """
    total = 0.0
    n = 0
    for _ in range(max_blocks):
        block = 0.0
        for _ in range(6):
            c = _ETA_COEF[n % 6]
            if c != 0.0:
                r = math.pi * (2 * n + 1) ** 2 / 12.0
                block += c * weight(r, y)
            n += 1
        total += block
        if abs(block) < 1e-16 and n > 600:
            return total
    raise AssertionError("eta transform series oracle did not converge")


def fourier_rhs_mp(ident: str, y: float) -> float:
    """EQ8/EQ10/A11/A12 right-hand sides at 30 digits (mpmath), y > 0.

    The same closed expressions as ``closed_forms``, free of overflow:
    EQ8/EQ10 are Re / -Im of sqrt(pi/t) sinh(2 sqrt(pi t/3))/cosh(sqrt(3 pi t))
    at t = iy, A11/A12 are cosh(v) cos(v) resp. sinh(v) sin(v) over
    sinh^2 v + cos^2 v with v = sqrt(pi y/2).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        y = mpmath.mpf(y)
        pi = mpmath.pi
        if ident in ("EQ8", "EQ10"):
            t = mpmath.mpc(0, y)
            v = (mpmath.sqrt(pi / t) * mpmath.sinh(2 * mpmath.sqrt(pi * t / 3))
                 / mpmath.cosh(mpmath.sqrt(3 * pi * t)))
            return float(v.real if ident == "EQ8" else -v.imag)
        v = mpmath.sqrt(pi * y / 2)
        num = mpmath.cosh(v) * mpmath.cos(v) if ident == "A11" else mpmath.sinh(v) * mpmath.sin(v)
        return float(num / (mpmath.sinh(v) ** 2 + mpmath.cos(v) ** 2))
