"""Pure-Python twin of the quadrature hot kernels.

Selected by ``etaint._backend`` when the compiled extension is absent
(or when ETAINT_PURE=1).  The arithmetic here mirrors ``_ckernels.c``
operation for operation so the two backends agree bit for bit.

Exports: ``eta_point``, ``eta3_point`` (machine-precision eta powers for
integrand use), ``kernel_weight``, ``integrand`` and ``panel`` (one
quadrature panel: 15 evaluations of the integrand or of its eta factor).

``panel`` has three rules.  The cos and sin kernels on a panel with
c = p1 (b - a)/2 > 3 (more than 3/pi, about 1, period), use a
Filon-Clenshaw-Curtis rule: eta^n is interpolated at 15 Chebyshev-Lobatto
nodes and the interpolant is integrated against cos/sin exactly through
Chebyshev moments (the rule of QUADPACK's qawo), so the panel count
follows eta, not the oscillation.  The moments' forward recurrence is
stable only while the degree stays below c: for c > 14 it gives all 15,
for 3 < c <= 14 it runs to degree int(c) - 1 and the rest come from the
same recurrence solved as a boundary-value problem up to degree 40
(QUADPACK's qc25f does the same for 2 < c <= 24).  The cos_recip kernel
oscillates in t = 1/x instead: on a panel 0 < a < b,
int cos(p1/x) x^{-1/2} eta^n(ix) dx = int cos(p1 t) g(t) dt over
[1/b, 1/a], with g(t) = x^{3/2} eta^n(ix) at x = 1/t smooth and not
oscillating, so where c = p1 (1/a - 1/b)/2 > 3 the same cos rule
integrates it with its nodes in t (rule _RECIP).  Every other panel is
Gauss-Kronrod 7/15.

A GK15 panel makes one weight call.  ``_WEIGHTS`` holds one function per
``_forms.FORMS`` row, w(p1, p2, xs), that evaluates the form's weight at
all the panel's abscissae in a comprehension or a local loop;
``kernel_weight`` is that call at one abscissa, so each weight is stated
once.  Where Python raises and C's libm or division returns inf or NaN
(cos(inf), an overflowing exp or **, a division by zero), ``_weights``
redoes the panel node by node and gives a node that raises the value C
gives there, listed with the function; the hot path carries no guard.
``_filon`` and ``_moments`` likewise take C's NaN where p1 centr or c
overflows and cos or sin of it raises.  The GK15 sums are written out
term by term, in the order of the C twin's loop (Python evaluates
a + b + c as (a + b) + c), so they round as C's do.

Panels recur.  The adaptive quadrature of every record starts from
dyadic breakpoints (with an eta factor, powers of two graded from a lower
limit 2^-j up to 1/4, 1/2, 1, 2, ...; without one, 0, 0.25, 0.5, ...)
and bisects at midpoints, so the records of one process keep forming
the same panels [a, b], and eta^n at a panel's 15 nodes does not depend
on the weight.
``panel`` therefore keeps a per-process memo of what each rule consumes
of those node values, keyed by 4 n + rule (the three rules sample
different nodes or factors) and the exact doubles a and b: for GK15 the
15 values, for Filon and _RECIP the 15 + 8 DCT sums and the |g| sum of
``_cheb_sums``, none of which depends on p1.  It holds at most
_MEMO_SIZE = 1024 panels; a full memo is cleared.  On a hit a GK15 panel
evaluates only the weight, and a Filon panel does 15 multiply-adds with
the moments plus cos/sin(p1 centr).  Panels with n = 0 (the auxiliary
integrands, right-hand sides among them) bypass the memo, so no
right-hand side reads a value computed for a left-hand side.  The
moments depend only on c, and panel widths are dyadic, so c recurs too
(less so in t = 1/x, where widths are not): ``_moments`` keeps a second
memo, keyed by the exact c, of at most _MEMO_SIZE tuples (which no
caller can change), also cleared when full.  Sums run in the same order
either way: hit or miss, the result is the same to the bit.
"""

from __future__ import annotations

from math import cos, cosh, erf, exp, hypot, inf, nan, pi, sin, sinh, sqrt
from typing import Callable, Sequence

from . import _forms as F
from .specfun import erfc_scaled_unchecked, sinh_minus_sin

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

# Filon panels from c = p1 (b - a)/2 > _FILON_C_MIN; their moments come by
# forward recurrence above _FORWARD_C_MIN and by a boundary-value solve up to
# degree _MU_TOP below it (see _moments).  Then cos(i pi/14), i = 0..14, the
# Chebyshev-Lobatto nodes; the Clenshaw-Curtis weights of nodes j and 14 - j
# on [-1, 1] (j = 0..7); and the cosine of node j times degree k,
# cos(jk pi/14), for the DCT-I.
_FILON_C_MIN = 3.0
_FORWARD_C_MIN = 14.0
_MU_TOP = 40
# Row k of the moments' recurrence (see _moments): (k + 1, d_k, k - 1).
_MU_ROWS = tuple(
    (k + 1.0, 2.0 * (k * k - 1) if k % 2 else -2.0 * (k * k - 1), k - 1.0)
    for k in range(_MU_TOP + 1)
)
_CHEB = (
    1.0,
    0.974927912181823607018131682993931217,
    0.900968867902419126236102319507445051,
    0.781831482468029808708444526674057750,
    0.623489801858733530525004884004239811,
    0.433883739117558120475768332848358755,
    0.222520933956314404288902564496794759,
    0.0,
    -0.222520933956314404288902564496794759,
    -0.433883739117558120475768332848358755,
    -0.623489801858733530525004884004239811,
    -0.781831482468029808708444526674057750,
    -0.900968867902419126236102319507445051,
    -0.974927912181823607018131682993931217,
    -1.0,
)
_WCC = (
    0.00512820512820512820512820512820512821,
    0.0486993872950882385506451084909096498,
    0.0978203916760521591285373486189925945,
    0.139665078495604318031574925427921362,
    0.175605789001066746765375946953466347,
    0.202051467482383573636767327925673689,
    0.218881511630573401798394396735233366,
    0.224296338582052867767153481439195725,
)
_DCT = tuple(
    tuple(_CHEB[min(j * k % 28, 28 - j * k % 28)] for j in range(8)) for k in range(15)
)

# The GK15 rule unrolled: its node offsets in the order of a panel's
# abscissae (t_0..t_6, 0, -t_6..-t_0), and its weights one by one.
_GK_T = _XGK[:7] + (0.0,) + tuple(-t for t in _XGK[6::-1])
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G0, _G1, _G2, _G3 = _WG

# The panel rules, as memo keys, and their node tables t: every rule
# samples its eta factor at centr + hl t_j and centr - hl t_j (j = 0..6) and
# at centr.  _RECIP is the Filon rule of a cos_recip panel in t = 1/x (see
# panel), whose centr and hl are the panel's in t.
_GK15 = 0
_FILON = 1
_RECIP = 2
_NODES = (_XGK, _CHEB, _CHEB)
_MEMO_SIZE = 1024
# (4 n + rule, a, b) -> GK15 node values or Filon _cheb_sums; c -> moments.
_memo: dict[tuple[int, float, float], list[float] | tuple] = {}
_mu_memo: dict[float, tuple[float, ...]] = {}


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
        # The series is 0 below x = 1e-3, before x sqrt(x) can underflow to 0.
        s = _eta3_series(1.0 / x)
        return s and s / (x * sqrt(x))
    return _eta3_series(x)


def _in_recip(eta: Callable[[float], float]) -> Callable[[float], float]:
    """The eta factor of a cos_recip panel in t = 1/x: x^{3/2} eta^n(ix) at
    x = 1/t (dx = -x^2 dt takes x^{-1/2} to x^{3/2}), and 0 where t <= 0
    or eta^n(ix) is 0, so an x^{3/2} that overflows never multiplies a 0."""

    def g(t: float) -> float:
        x = 1.0 / t if t > 0.0 else 0.0
        e = eta(x)
        return e and e * (x * sqrt(x))

    return g


_RECIP_ETA = {1: _in_recip(eta_point), 3: _in_recip(eta3_point)}


def _eta_nodes(n: int, rule: int, centr: float, hl: float) -> list[float]:
    """The rule's eta factor at the panel's 15 nodes: [j] at centr + hl t_j,
    [14 - j] at centr - hl t_j (j < 7) and [7] at centr; eta^n, or for
    _RECIP its value in t = 1/x."""
    if rule == _RECIP:
        eta = _RECIP_ETA[n]
    else:
        eta = eta_point if n == 1 else eta3_point
    t = _NODES[rule]
    g = [0.0] * 15
    g[7] = eta(centr)
    for j in range(7):
        dx = hl * t[j]
        g[j] = eta(centr + dx)
        g[14 - j] = eta(centr - dx)
    return g


def _cheb_sums(g: list[float]) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """What the Filon rule consumes of the node values g: the DCT-I sums
    s14_k = sum_j v_j cos(jk pi/14) (k = 0..14) and s7_k, the same over
    even j (k = 0..7), of the even (k even) and odd (k odd) parts v of g,
    halved at the ends as the rule needs; and sum_j W_j |g_j| with the
    Clenshaw-Curtis weights W_j (``resabs`` before the factor |hl|)."""
    ev = [0.0] * 8
    od = [0.0] * 8
    fm = g[7]
    ev[7] = fm
    resabs = _WCC[7] * abs(fm)
    for j in range(7):
        f1 = g[j]
        f2 = g[14 - j]
        ev[j] = f1 + f2
        od[j] = f1 - f2
        resabs += _WCC[j] * (abs(f1) + abs(f2))
    ev[0] *= 0.5
    od[0] *= 0.5
    s14 = [0.0] * 15
    s7 = [0.0] * 8
    # In the order of the C twin's loop.
    for k, row in enumerate(_DCT):
        v = od if k % 2 else ev
        t0 = v[0] * row[0]
        t2 = v[2] * row[2]
        t4 = v[4] * row[4]
        t6 = v[6] * row[6]
        s14[k] = t0 + v[1] * row[1] + t2 + v[3] * row[3] + t4 + v[5] * row[5] + t6 + v[7] * row[7]
        if k <= 7:
            s7[k] = t0 + t2 + t4 + t6
    s14[0] *= 0.5
    s14[14] *= 0.5
    s7[0] *= 0.5
    s7[7] *= 0.5
    return tuple(s14), tuple(s7), resabs


def _memoised(n: int, rule: int, a: float, b: float, centr: float, hl: float):
    """What the rule consumes of eta^n on [a, b]: for GK15 the 15 node
    values, for Filon and _RECIP their ``_cheb_sums``; from the memo when
    [a, b] was seen before (see the module docstring).  4 n + rule keys n
    and the rule at once."""
    key = (4 * n + rule, a, b)
    e = _memo.get(key)
    if e is None:
        g = _eta_nodes(n, rule, centr, hl)
        e = g if rule == _GK15 else _cheb_sums(g)
        if len(_memo) >= _MEMO_SIZE:
            _memo.clear()
        _memo[key] = e
    return e


def _sech(x: float) -> float:
    if x > 350.0:
        return 2.0 * exp(-x)
    return 1.0 / cosh(x)


# The weights of _forms, as the C twin's kernel_weight computes them:
# w(p1, p2, xs) is the weight at each abscissa of xs.
def _power(p1, p2, xs):
    return [x ** (-p1) for x in xs]


def _exp(p1, p2, xs):
    return [exp(-e) if (e := p1 * x) <= 745.0 else 0.0 for x in xs]


def _cos(p1, p2, xs):
    return [cos(p1 * x) for x in xs]


def _sin(p1, p2, xs):
    return [sin(p1 * x) for x in xs]


def _exp_recip(p1, p2, xs):
    return [exp(-e) / sqrt(x) if (e := p1 / x) <= 745.0 else 0.0 for x in xs]


def _cos_recip(p1, p2, xs):
    return [cos(p1 / x) / sqrt(x) for x in xs]


def _erf_weight(p1, p2, xs):
    return [erf(sqrt(p1 * x)) / sqrt(x) for x in xs]


def _scaled_erfc_recip(p1, p2, xs):
    return [erfc_scaled_unchecked(sqrt(p1 / x)) / sqrt(x) for x in xs]


def _shifted_recip(p1, p2, xs):
    return [(x + p1) ** (-p2) for x in xs]


def _sqrt_shift(p1, p2, xs):
    out = []
    for x in xs:
        r2 = x * x + 1.0
        s = sqrt(r2)
        out.append(sqrt(x * x / (s + 1.0) / r2))
    return out


def _exp_over_x(p1, p2, xs):
    return [exp(-e) / x if (e := p1 * x) <= 745.0 else 0.0 for x in xs]


def _im_rsqrt(p1, p2, xs):
    out = []
    for x in xs:
        r = hypot(x, p1)
        out.append(sqrt(p1 * p1 / (r + x) / (2.0 * r * r)))
    return out


def _glaisher11(p1, p2, xs):
    out = []
    for x in xs:
        if x == 0.0:
            out.append(0.0)
        elif x > 350.0:
            out.append(1.0 / (x * x))
        else:
            out.append(sinh_minus_sin(x) / (x * x * (cosh(x) + cos(x))))
    return out


def _glaisher17(p1, p2, xs):
    out = []
    for x in xs:
        if x == 0.0:
            out.append(0.0)
        elif x > 350.0:
            out.append(sin(0.5 * x) * exp(-0.5 * x) / x)
        else:
            out.append(sinh(0.5 * x) * sin(0.5 * x) / (x * (cosh(x) + cos(x))))
    return out


def _sech_aux(p1, p2, xs):
    out = []
    for x in xs:
        e = p1 * x * x / pi
        if e > 745.0:
            out.append(0.0)
        else:
            base = exp(-e) * _sech(x)
            out.append(x * base if p2 == 1.0 else base)
    return out


def _tp_rhs3_u(p1, p2, xs):
    sechs = [_sech(_SQRT_PI * x) for x in xs]
    if p2 == F.FSEL_EXP:
        return [
            2.0 * x * exp(-e) * sech if (e := p1 * x * x) <= 745.0 else 0.0
            for x, sech in zip(xs, sechs)
        ]
    if p2 == F.FSEL_EXP_SQRT:
        return [
            (2.0 / _SQRT_PI) * exp(-e) * sech if (e := p1 * x * x) <= 745.0 else 0.0
            for x, sech in zip(xs, sechs)
        ]
    return [(2.0 / _SQRT_PI) * sin(p1 * x * x) * sech for x, sech in zip(xs, sechs)]


def _tp_rhs1_u(p1, p2, xs):
    ratios = []
    for x in xs:
        b = _TP1_C2 * x
        if b > 350.0:
            ratios.append(exp((_TP1_C1 - _TP1_C2) * x) * (1.0 - exp(-2.0 * _TP1_C1 * x)))
        else:
            ratios.append(sinh(_TP1_C1 * x) / cosh(b))
    if p2 == F.FSEL_EXP:
        return [
            2.0 * _SQRT_PI * exp(-e) * ratio if (e := p1 * x * x) <= 745.0 else 0.0
            for x, ratio in zip(xs, ratios)
        ]
    if p2 == F.FSEL_EXP_SQRT:
        return [
            (2.0 / x) * exp(-e) * ratio if (e := p1 * x * x) <= 745.0 else 0.0
            for x, ratio in zip(xs, ratios)
        ]
    return [(2.0 / x) * sin(p1 * x * x) * ratio for x, ratio in zip(xs, ratios)]


# One weight function per _forms.FORMS row, with the value C gives, over
# the form's parameter domain, at a node where the function raises.
_Weight = Callable[[float, float, Sequence[float]], list]
_WEIGHTS: dict[int, tuple[_Weight, float]] = {
    F.FORM_POWER: (_power, inf),  # x^-p1 overflows, or x = 0 < p1
    F.FORM_EXP: (_exp, nan),
    F.FORM_COS: (_cos, nan),  # p1 x overflows: cos(inf) is NaN
    F.FORM_SIN: (_sin, nan),
    F.FORM_EXP_RECIP: (_exp_recip, 0.0),  # x = 0: p1/x is inf or NaN, not <= 745
    F.FORM_COS_RECIP: (_cos_recip, nan),
    F.FORM_ERF_WEIGHT: (_erf_weight, nan),  # x = 0: 0/0
    F.FORM_SCALED_ERFC_RECIP: (_scaled_erfc_recip, nan),
    F.FORM_SHIFTED_RECIP: (_shifted_recip, inf),  # x + p1 = 0
    F.FORM_SQRT_SHIFT: (_sqrt_shift, nan),
    F.FORM_EXP_OVER_X: (_exp_over_x, inf),  # x = 0: 1/0
    F.FORM_IM_RSQRT: (_im_rsqrt, nan),
    F.FORM_GLAISHER11: (_glaisher11, nan),
    F.FORM_GLAISHER17: (_glaisher17, nan),
    F.FORM_SECH_AUX: (_sech_aux, nan),
    F.FORM_TP_RHS3_U: (_tp_rhs3_u, nan),
    F.FORM_TP_RHS1_U: (_tp_rhs1_u, nan),
}
# What Python raises where C's libm and division return inf or NaN.
_FAULTS = (OverflowError, ValueError, ZeroDivisionError)


def _weights(form: int, p1: float, p2: float, xs: Sequence[float]) -> list:
    """The weight of ``form`` at each abscissa of xs, as the C twin gives it.

    Python raises where C returns inf or NaN (cos(inf), an overflowing
    exp or **, a division by zero); then the nodes are redone one by one
    and those that raise take the form's value in _WEIGHTS, so the hot
    path carries no guard.
    """
    entry = _WEIGHTS.get(form)
    if entry is None:
        raise ValueError(f"unknown form id {form}")
    w, fault = entry
    try:
        return w(p1, p2, xs)
    except _FAULTS:
        return [_weight_at(w, fault, p1, p2, x) for x in xs]


def _weight_at(w: _Weight, fault: float, p1: float, p2: float, x: float) -> float:
    try:
        return w(p1, p2, (x,))[0]
    except _FAULTS:
        return fault


def kernel_weight(form: int, p1: float, p2: float, x: float) -> float:
    """The weight f(x) multiplying the eta power; see _forms for the table."""
    return _weights(form, p1, p2, (x,))[0]


def integrand(form: int, n: int, p1: float, p2: float, x: float) -> float:
    """f(x) * eta^n(ix) at a single abscissa."""
    w = kernel_weight(form, p1, p2, x)
    if n == 0 or w == 0.0:
        return w
    if n == 1:
        return w * eta_point(x)
    return w * eta3_point(x)


def _moments(c: float) -> tuple[float, ...]:
    """int_{-1}^{1} T_k(t) cos(ct) dt (k even), sin(ct) (k odd), k = 0..14, c > 3.

    mu_0..mu_2 in closed form, then the recurrence
    c (k - 1) mu_{k+1} + d_k mu_k - c (k + 1) mu_{k-1} = r_k, with
    d_k = 2 (k^2 - 1), r_k = -4 sin c for odd k and d_k = -2 (k^2 - 1),
    r_k = 4 cos c for even k, forward while k stays below c, where it is
    stable: to mu_14 for c > 14, else to mu_b, b = int(c) - 1, and the rest
    by ``_moments_bvp``.  Memoised by the exact c (see the module docstring).
    """
    cached = _mu_memo.get(c)
    if cached is not None:
        return cached
    try:
        sc = sin(c)
        cc = cos(c)
    except ValueError:  # c = inf, where C's sin and cos give NaN
        sc = cc = nan
    mu = [0.0] * 15
    mu[0] = 2.0 * sc / c
    mu[1] = 2.0 * (sc - c * cc) / (c * c)
    mu[2] = 4.0 * (sc / c + 2.0 * cc / (c * c) - 2.0 * sc / (c * c * c)) - mu[0]
    b = 14 if c > _FORWARD_C_MIN else int(c) - 1
    for k in range(2, b):
        if k % 2 == 1:
            mu[k + 1] = (
                -4.0 * sc / (c * (k - 1))
                - 2.0 * (k + 1) * mu[k] / c
                + (k + 1) / (k - 1) * mu[k - 1]
            )
        else:
            mu[k + 1] = (
                4.0 * cc / (c * (k - 1))
                + 2.0 * (k + 1) * mu[k] / c
                + (k + 1) / (k - 1) * mu[k - 1]
            )
    if b < 14:
        _moments_bvp(c, sc, cc, b, mu)
    if len(_mu_memo) >= _MEMO_SIZE:
        _mu_memo.clear()
    cached = _mu_memo[c] = tuple(mu)
    return cached


def _moments_bvp(c: float, sc: float, cc: float, b: int, mu: list[float]) -> None:
    """mu_{b+1}..mu_14 from the recurrence as a boundary-value problem.

    Forward, the recurrence amplifies rounding once k exceeds c.  Its rows
    k = b + 1..40 (_MU_TOP) form a tridiagonal system in mu_{b+1}..mu_40
    between the known mu_b and mu_41 ~ -2 sin c/(41^2 - 1), the leading
    term of its expansion in 1/k (Piessens and Branders, 1975; the top's
    error has decayed below rounding by degree 14).  Elimination runs from
    the top row down, so each row k gives mu_k = f_k + g_k mu_{k-1}, and
    substitution from mu_b up.  It needs no pivoting: each pivot
    d_k + c (k - 1) g_{k+1} keeps more than half the size of its larger
    term (0.56 at worst over 11,000 c in (3, 14]).  The lower end
    matters: the solve amplifies an error there by the decaying
    solution's ratio to its value at the end, which nearly vanishes at
    degree 2 for some c (with mu_2 as the end, c = 8.42 gave errors of
    1.8e4 eps/c, against at most 60 eps/c from b over 3,000 c).
    """
    ro = -4.0 * sc  # r_k of the odd rows
    re = 4.0 * cc  # and of the even ones
    f = -2.0 * sc / 1680.0  # mu_41 (41 is odd)
    g = 0.0
    fg = []
    for k in range(_MU_TOP, b, -1):
        kp, d, km = _MU_ROWS[k]
        cu = c * km
        den = d + cu * g
        f = ((ro if k % 2 else re) - cu * f) / den
        g = c * kp / den
        fg.append((f, g))
    for k in range(b + 1, 15):
        f, g = fg[_MU_TOP - k]
        mu[k] = f + g * mu[k - 1]


def _filon(
    form: int, p1: float, centr: float, hl: float, c: float,
    sums: tuple[tuple[float, ...], tuple[float, ...], float],
) -> tuple[float, float, float]:
    """Filon-Clenshaw-Curtis panel of cos/sin(p1 x) eta^n(ix), c = p1 hl.

    With x = centr + hl t, the eta factor g(t) is interpolated at the 15
    nodes t_j = cos(j pi/14) as sum_k a_k T_k(t) (a DCT-I of the samples,
    split into the even and odd parts of g: ``_cheb_sums``), and
    cos(p1 x) = cos(p1 centr) cos(ct) - sin(p1 centr) sin(ct), so the
    panel is hl [cos(p1 centr) sum_even a_k mu_k - sin(p1 centr) sum_odd
    a_k mu_k] (sin: hl [sin(p1 centr) sum_even + cos(p1 centr) sum_odd]).
    Q7 is the same rule on the 8 even nodes.  As in QUADPACK's qc25f the
    error is |cos(p1 centr)| |even part of Q14 - Q7| + |sin(p1 centr)|
    |odd part|: the bare |Q14 - Q7| can cancel between the two parts and
    understates the error where eta^n is poorly resolved (the panel at 0).
    The Gauss-Kronrod rule's 50 eps floor applies to resabs = hl sum W_j
    |g_j| with the Clenshaw-Curtis weights W_j.
    """
    s14, s7, resabs = sums
    mu = _moments(c)
    q14e = q14o = q7e = q7o = 0.0
    for k in range(0, 15, 2):
        q14e += s14[k] * mu[k]
    for k in range(1, 15, 2):
        q14o += s14[k] * mu[k]
    for k in range(0, 8, 2):
        q7e += s7[k] * mu[k]
    for k in range(1, 8, 2):
        q7o += s7[k] * mu[k]
    # cos(p1 x) = wc cos(ct) - ws sin(ct), sin(p1 x) = ws cos(ct) + wc sin(ct).
    try:
        wc = cos(p1 * centr)
        ws = sin(p1 * centr)
    except ValueError:  # p1 centr overflows, where C's cos and sin give NaN
        wc = ws = nan
    if form == F.FORM_COS:
        fe = wc
        fo = -ws
    else:
        fe = ws
        fo = wc
    scale = hl / 7.0  # a_k = (2/14) s14 and b_k = (2/7) s7
    value = (fe * q14e + fo * q14o) * scale
    err = (abs(fe) * abs(q14e - 2.0 * q7e) + abs(fo) * abs(q14o - 2.0 * q7o)) * abs(scale)
    resabs *= abs(hl)
    if resabs > _UFLOW_GUARD:
        floor = 50.0 * _EPS * resabs
        if floor > err:
            err = floor
    return value, err, resabs


def panel(
    form: int, n: int, p1: float, p2: float, a: float, b: float
) -> tuple[float, float, float]:
    """One quadrature panel over [a, b]: Filon for oscillating cos/sin and
    cos_recip, else GK15.

    Returns (integral, error estimate, integral of |f|); 15 evaluations.
    Gauss-Kronrod error model as in classic QUADPACK: the |K15-G7|
    difference is sharpened through the scaled deviation integral.
    A cos_recip panel with 0 < a < b is int cos(p1 t) g(t) dt over
    [1/b, 1/a] in t = 1/x, g(t) = x^{3/2} eta^n(ix), and takes the cos
    Filon rule there when c = p1 (1/a - 1/b)/2 > 3.
    """
    centr = 0.5 * (a + b)
    hl = 0.5 * (b - a)
    if (form == F.FORM_COS or form == F.FORM_SIN) and n != 0:
        c = p1 * hl
        if c > _FILON_C_MIN:
            return _filon(form, p1, centr, hl, c, _memoised(n, _FILON, a, b, centr, hl))
    elif form == F.FORM_COS_RECIP and n != 0 and 0.0 < a < b:
        ta = 1.0 / a
        tb = 1.0 / b
        hl_t = 0.5 * (ta - tb)
        c = p1 * hl_t
        if c > _FILON_C_MIN:
            centr_t = 0.5 * (ta + tb)
            sums = _memoised(n, _RECIP, a, b, centr_t, hl_t)
            return _filon(F.FORM_COS, p1, centr_t, hl_t, c, sums)
    # The weight at the 15 nodes in g's order (centr + hl (-t) is centr - hl t
    # to the bit), times the memoised eta^n, short-circuited at w = 0 as in
    # integrand (w and w * g is w where w == 0.0).
    xs = [centr + hl * t for t in _GK_T]
    xs[7] = centr  # not centr + hl * 0.0, which differs at centr = -0.0 or hl = inf
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14 = _weights(form, p1, p2, xs)
    if n != 0:
        g0, g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11, g12, g13, g14 = _memoised(
            n, _GK15, a, b, centr, hl
        )
        f0 = f0 and f0 * g0
        f1 = f1 and f1 * g1
        f2 = f2 and f2 * g2
        f3 = f3 and f3 * g3
        f4 = f4 and f4 * g4
        f5 = f5 and f5 * g5
        f6 = f6 and f6 * g6
        f7 = f7 and f7 * g7
        f8 = f8 and f8 * g8
        f9 = f9 and f9 * g9
        f10 = f10 and f10 * g10
        f11 = f11 and f11 * g11
        f12 = f12 and f12 * g12
        f13 = f13 and f13 * g13
        f14 = f14 and f14 * g14
    # The QUADPACK sums, term by term in the C twin's loop order: j = 0..6
    # pairs the nodes centr -/+ hl t_j, f[14 - j] and f[j].
    s0 = f14 + f0
    s1 = f13 + f1
    s2 = f12 + f2
    s3 = f11 + f3
    s4 = f10 + f4
    s5 = f9 + f5
    s6 = f8 + f6
    k7 = _K7 * f7
    resk = k7 + _K0 * s0 + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4 + _K5 * s5 + _K6 * s6
    resg = _G3 * f7 + _G0 * s1 + _G1 * s3 + _G2 * s5
    resabs = (
        abs(k7) + _K0 * (abs(f14) + abs(f0)) + _K1 * (abs(f13) + abs(f1))
        + _K2 * (abs(f12) + abs(f2)) + _K3 * (abs(f11) + abs(f3))
        + _K4 * (abs(f10) + abs(f4)) + _K5 * (abs(f9) + abs(f5)) + _K6 * (abs(f8) + abs(f6))
    )
    reskh = 0.5 * resk
    resasc = (
        _K7 * abs(f7 - reskh)
        + _K0 * (abs(f14 - reskh) + abs(f0 - reskh)) + _K1 * (abs(f13 - reskh) + abs(f1 - reskh))
        + _K2 * (abs(f12 - reskh) + abs(f2 - reskh)) + _K3 * (abs(f11 - reskh) + abs(f3 - reskh))
        + _K4 * (abs(f10 - reskh) + abs(f4 - reskh)) + _K5 * (abs(f9 - reskh) + abs(f5 - reskh))
        + _K6 * (abs(f8 - reskh) + abs(f6 - reskh))
    )
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
