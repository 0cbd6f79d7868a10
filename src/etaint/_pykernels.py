"""Pure-Python twin of the quadrature hot kernels.

Selected by ``etaint._backend`` when the compiled extension is absent
(or when ETAINT_PURE=1).  The arithmetic here mirrors ``_ckernels.c``
operation for operation so the two backends agree bit for bit.

Exports: ``eta_point``, ``eta3_point`` (machine-precision eta powers for
integrand use), ``kernel_weight``, ``integrand`` and ``panel`` (one
Gauss-Kronrod 7/15 panel of integrand evaluations).
"""

from __future__ import annotations

from math import cos, cosh, exp, hypot, pi, sin, sinh, sqrt

from . import _forms as F
from .specfun import erf, erfc_scaled, sinh_minus_sin

BACKEND_NAME = "python"

_EPS = 2.220446049250313e-16
_UFLOW_GUARD = 2.2250738585072014e-308 / (50.0 * _EPS)
_SQRT_PI = sqrt(pi)
_TP1_C1 = 2.0 * sqrt(pi / 3.0)
_TP1_C2 = sqrt(3.0 * pi)

# Gauss-Kronrod 7/15 nodes and weights (positive half; index 7 = center).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _eta_series(xe: float) -> float:
    c = pi * xe / 12.0
    acc = 0.0
    n = 0
    while n < 64:
        m = n % 6
        if m == 0 or m == 5:
            coef = 1.0
        elif m == 2 or m == 3:
            coef = -1.0
        else:
            coef = 0.0
        if coef != 0.0:
            e = c * (2 * n + 1) * (2 * n + 1)
            if e > 745.0:
                break
            t = exp(-e)
            acc += coef * t
            if t <= 1e-17 * acc:
                break
        n += 1
    return acc


def _eta3_series(xe: float) -> float:
    c = pi * xe / 4.0
    acc = 0.0
    n = 0
    while n < 64:
        e = c * (2 * n + 1) * (2 * n + 1)
        if e > 745.0:
            break
        t = (2 * n + 1) * exp(-e)
        if n % 2 == 0:
            acc += t
        else:
            acc -= t
        if t <= 1e-17 * acc:
            break
        n += 1
    return acc


def eta_point(x: float) -> float:
    """eta(ix) to machine precision (modular acceleration below x = 1)."""
    if x <= 0.0:
        return 0.0
    if x < 1.0:
        return _eta_series(1.0 / x) / sqrt(x)
    return _eta_series(x)


def eta3_point(x: float) -> float:
    """eta^3(ix) to machine precision (modular acceleration below x = 1)."""
    if x <= 0.0:
        return 0.0
    if x < 1.0:
        return _eta3_series(1.0 / x) / (x * sqrt(x))
    return _eta3_series(x)


def _sech(x: float) -> float:
    if x > 350.0:
        return 2.0 * exp(-x)
    return 1.0 / cosh(x)


def kernel_weight(form: int, p1: float, p2: float, x: float) -> float:
    """The weight f(x) multiplying the eta power; see _forms for the table."""
    if form == F.FORM_POWER:
        return x ** (-p1)
    if form == F.FORM_EXP:
        e = p1 * x
        return exp(-e) if e <= 745.0 else 0.0
    if form == F.FORM_COS:
        return cos(p1 * x)
    if form == F.FORM_SIN:
        return sin(p1 * x)
    if form == F.FORM_EXP_RECIP:
        e = p1 / x
        return exp(-e) / sqrt(x) if e <= 745.0 else 0.0
    if form == F.FORM_COS_RECIP:
        return cos(p1 / x) / sqrt(x)
    if form == F.FORM_ERF_WEIGHT:
        return erf(sqrt(p1 * x)) / sqrt(x)
    if form == F.FORM_SCALED_ERFC_RECIP:
        return erfc_scaled(sqrt(p1 / x)) / sqrt(x)
    if form == F.FORM_SHIFTED_RECIP:
        return (x + p1) ** (-p2)
    if form == F.FORM_SQRT_SHIFT:
        r2 = x * x + 1.0
        s = sqrt(r2)
        return sqrt(x * x / (s + 1.0) / r2)
    if form == F.FORM_EXP_OVER_X:
        e = p1 * x
        return exp(-e) / x if e <= 745.0 else 0.0
    if form == F.FORM_IM_RSQRT:
        r = hypot(x, p1)
        return sqrt(p1 * p1 / (r + x) / (2.0 * r * r))
    if form == F.FORM_GLAISHER11:
        if x == 0.0:
            return 0.0
        if x > 350.0:
            return 1.0 / (x * x)
        return sinh_minus_sin(x) / (x * x * (cosh(x) + cos(x)))
    if form == F.FORM_GLAISHER17:
        if x == 0.0:
            return 0.0
        if x > 350.0:
            return sin(0.5 * x) * exp(-0.5 * x) / x
        return sinh(0.5 * x) * sin(0.5 * x) / (x * (cosh(x) + cos(x)))
    if form == F.FORM_SECH_AUX:
        e = p1 * x * x / pi
        if e > 745.0:
            return 0.0
        base = exp(-e) * _sech(x)
        return x * base if p2 == 1.0 else base
    if form == F.FORM_TP_RHS3_U:
        sech = _sech(_SQRT_PI * x)
        if p2 == F.FSEL_EXP:
            e = p1 * x * x
            return 2.0 * x * exp(-e) * sech if e <= 745.0 else 0.0
        if p2 == F.FSEL_EXP_SQRT:
            e = p1 * x * x
            return (2.0 / _SQRT_PI) * exp(-e) * sech if e <= 745.0 else 0.0
        return (2.0 / _SQRT_PI) * sin(p1 * x * x) * sech
    if form == F.FORM_TP_RHS1_U:
        b = _TP1_C2 * x
        if b > 350.0:
            ratio = exp((_TP1_C1 - _TP1_C2) * x) * (1.0 - exp(-2.0 * _TP1_C1 * x))
        else:
            ratio = sinh(_TP1_C1 * x) / cosh(b)
        if p2 == F.FSEL_EXP:
            e = p1 * x * x
            return 2.0 * _SQRT_PI * exp(-e) * ratio if e <= 745.0 else 0.0
        if p2 == F.FSEL_EXP_SQRT:
            e = p1 * x * x
            return (2.0 / x) * exp(-e) * ratio if e <= 745.0 else 0.0
        return (2.0 / x) * sin(p1 * x * x) * ratio
    raise ValueError(f"unknown form id {form}")


def integrand(form: int, n: int, p1: float, p2: float, x: float) -> float:
    """f(x) * eta^n(ix) at a single abscissa."""
    w = kernel_weight(form, p1, p2, x)
    if n == 0 or w == 0.0:
        return w
    if n == 1:
        return w * eta_point(x)
    return w * eta3_point(x)


def panel(
    form: int, n: int, p1: float, p2: float, a: float, b: float
) -> tuple[float, float, float]:
    """One Gauss-Kronrod 7/15 panel over [a, b].

    Returns (integral, error estimate, integral of |f|); 15 integrand
    evaluations.  Error model as in classic QUADPACK: the |K15-G7|
    difference is sharpened through the scaled deviation integral.
    """
    centr = 0.5 * (a + b)
    hl = 0.5 * (b - a)
    fc = integrand(form, n, p1, p2, centr)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 7
    fv2 = [0.0] * 7
    for j in range(7):
        dx = hl * _XGK[j]
        f1 = integrand(form, n, p1, p2, centr - dx)
        f2 = integrand(form, n, p1, p2, centr + dx)
        fv1[j] = f1
        fv2[j] = f2
        s = f1 + f2
        resk += _WGK[j] * s
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * s
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    value = resk * hl
    resabs *= abs(hl)
    resasc *= abs(hl)
    err = abs((resk - resg) * hl)
    if resasc != 0.0 and err != 0.0:
        scaled = (200.0 * err / resasc) ** 1.5
        err = resasc * (scaled if scaled < 1.0 else 1.0)
    if resabs > _UFLOW_GUARD:
        floor = 50.0 * _EPS * resabs
        if floor > err:
            err = floor
    return value, err, resabs
