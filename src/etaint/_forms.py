"""The kernel forms: one ``FORMS`` row per weight function.

A row holds everything the engine knows about a form: its integer id
(the compiled and pure-Python kernel twins both dispatch on these ids,
so they must stay in sync with the ``form_id`` enum of ``_ckernels.c``),
whether it carries an eta factor, the domain of its parameters, the
weight's own decay model, and for exp, cos and sin the weight's exact
Laplace tail.  Adding a form takes one row here plus its weight code in
each twin: a case of ``kernel_weight`` in ``_ckernels.c``, and in
``_pykernels.py`` a function over a panel's abscissae, listed in its
``_WEIGHTS`` table with the value C gives where Python raises.

Weight definitions (p1, p2 are the slots of the primary and secondary
parameter; u denotes the integration variable of the substituted
transform-pair forms, t = u^2):

====================  =====================================================
power                 x^(-p1)
exp                   exp(-p1*x)
cos                   cos(p1*x)
sin                   sin(p1*x)
exp_recip             x^(-1/2) exp(-p1/x)
cos_recip             x^(-1/2) cos(p1/x)
erf_weight            x^(-1/2) erf(sqrt(p1*x))
scaled_erfc_recip     x^(-1/2) exp(p1/x) erfc(sqrt(p1/x))
shifted_recip         (x + p1)^(-p2)
sqrt_shift            sqrt((sqrt(x^2+1) - 1)/(x^2+1))
exp_over_x            exp(-p1*x)/x
im_rsqrt              Im[(x - i*p1)^(-1/2)] = sqrt((R-x)/(2 R^2)), R=|x+i p1|
glaisher11            (sinh x - sin x)/(x^2 (cosh x + cos x))
glaisher17            sinh(x/2) sin(x/2)/(x (cosh x + cos x))
sech_aux              x^p2 * exp(-p1*x^2/pi) * sech(x)        (p2 in {0,1})
tp_rhs3_u             2u F(u^2) sech(sqrt(pi) u)              (F by p2)
tp_rhs1_u             2 sqrt(pi) F(u^2) sinh(2u sqrt(pi/3))/cosh(u sqrt(3pi))
====================  =====================================================

F selectors for the transform-pair forms (slot p2):
0 -> F(t) = exp(-a t); 1 -> exp(-a t)/sqrt(pi t); 2 -> sin(a t)/sqrt(pi t),
with a >= 0 in slot p1 (their decay models take exp(-a t) <= 1).
"""

from __future__ import annotations

from math import cos, exp, pi, sin, sqrt
from typing import Callable, NamedTuple

FORM_POWER = 0
FORM_EXP = 1
FORM_COS = 2
FORM_SIN = 3
FORM_EXP_RECIP = 4
FORM_COS_RECIP = 5
FORM_ERF_WEIGHT = 6
FORM_SCALED_ERFC_RECIP = 7
FORM_SHIFTED_RECIP = 8
FORM_SQRT_SHIFT = 9
FORM_EXP_OVER_X = 10
FORM_IM_RSQRT = 11
FORM_GLAISHER11 = 12
FORM_GLAISHER17 = 13
FORM_SECH_AUX = 14
FORM_TP_RHS3_U = 15
FORM_TP_RHS1_U = 16

FSEL_EXP = 0
FSEL_EXP_SQRT = 1
FSEL_SIN_SQRT = 2


class Form(NamedTuple):
    """One kernel form.

    ``decay(a, p)`` returns (rate, m, amp) with |weight(x)| <= amp * x^m
    * e^{-rate x} for x >= 1; the engine adds the eta factor's own rate.
    For the forms with an eta factor, amp * x^m must also bound |weight|
    on (0, 1/8]: the engine bounds the mass it clips below its lower
    limit with it.  Every such row does: x^-a exactly; the factors beside
    x^m of exp, cos, sin, exp_recip, cos_recip, erf_weight and
    scaled_erfc_recip (e^{z^2} erfc(z)) are <= 1 in modulus;
    (x + a)^-p <= x^-p; e^{-a x}/x <= 1/x; sqrt_shift <= x/sqrt(2)
    <= x^-1/2; im_rsqrt <= a/(2 x^1.5).  ``decay`` is None for
    glaisher11, whose tail is algebraic.  ``a_min`` is the lower bound on
    the primary parameter (None when it is unbounded), exclusive when
    ``a_open``; ``p_values`` lists the admissible secondary parameters
    (None when any is).

    ``laplace_tail(a, lam, x0)`` is int_{x0}^inf weight(x) e^{-lam x} dx
    in closed form, for lam > 0 and x0 >= 1; the engine integrates the
    eta factor's q-series against it term by term beyond x0.  It is set
    only on weights with |weight(x)| <= 1 for x >= 1, which the engine's
    truncation and rounding bounds rely on, and is None elsewhere.
    """

    id: int
    eta: bool
    decay: Callable[[float, float], tuple[float, float, float]] | None
    a_min: float | None = None
    a_open: bool = False
    p_values: tuple[float, ...] | None = None
    laplace_tail: Callable[[float, float, float], float] | None = None


def _exp_tail(a: float, lam: float, x0: float) -> float:
    s = lam + a
    return exp(-s * x0) / s


def _cos_tail(a: float, lam: float, x0: float) -> float:
    t = a * x0
    return exp(-lam * x0) * (lam * cos(t) - a * sin(t)) / (lam * lam + a * a)


def _sin_tail(a: float, lam: float, x0: float) -> float:
    t = a * x0
    return exp(-lam * x0) * (lam * sin(t) + a * cos(t)) / (lam * lam + a * a)


def _power_law(m: float) -> Callable[[float, float], tuple[float, float, float]]:
    return lambda a, p: (0.0, m, 1.0)


FORMS: dict[str, Form] = {
    "power": Form(FORM_POWER, True, lambda a, p: (0.0, -a, 1.0)),
    "exp": Form(
        FORM_EXP, True, lambda a, p: (a, 0.0, 1.0), a_min=0.0, laplace_tail=_exp_tail
    ),
    "cos": Form(FORM_COS, True, _power_law(0.0), a_min=0.0, laplace_tail=_cos_tail),
    "sin": Form(FORM_SIN, True, _power_law(0.0), a_min=0.0, laplace_tail=_sin_tail),
    "exp_recip": Form(FORM_EXP_RECIP, True, _power_law(-0.5), a_min=0.0),
    # Oscillates in t = 1/x: the kernels take its panels with
    # c = a (1/x_a - 1/x_b)/2 > 3 by the cos Filon rule in t, where the
    # factor beside cos(a t) is x^{3/2} eta^n(ix).
    "cos_recip": Form(FORM_COS_RECIP, True, _power_law(-0.5), a_min=0.0),
    "erf_weight": Form(FORM_ERF_WEIGHT, True, _power_law(-0.5), a_min=0.0),
    "scaled_erfc_recip": Form(
        FORM_SCALED_ERFC_RECIP, True, _power_law(-0.5), a_min=0.0
    ),
    "shifted_recip": Form(
        FORM_SHIFTED_RECIP,
        True,
        lambda a, p: (0.0, -p, 1.0),
        a_min=0.0,
        p_values=(0.5, 1.0),
    ),
    "sqrt_shift": Form(FORM_SQRT_SHIFT, True, _power_law(-0.5)),
    "exp_over_x": Form(FORM_EXP_OVER_X, True, lambda a, p: (a, -1.0, 1.0), a_min=0.0),
    "im_rsqrt": Form(
        FORM_IM_RSQRT, True, lambda a, p: (0.0, -1.5, a), a_min=0.0, a_open=True
    ),
    "glaisher11": Form(FORM_GLAISHER11, False, None),
    "glaisher17": Form(FORM_GLAISHER17, False, lambda a, p: (0.5, -1.0, 2.0)),
    "sech_aux": Form(FORM_SECH_AUX, False, lambda a, p: (1.0, p, 2.0), a_min=0.0),
    "tp_rhs3_u": Form(
        FORM_TP_RHS3_U,
        False,
        lambda a, p: (sqrt(pi), 1.0, 4.0)
        if p == FSEL_EXP
        else (sqrt(pi), 0.0, 4.0 / sqrt(pi)),
        a_min=0.0,
    ),
    "tp_rhs1_u": Form(
        FORM_TP_RHS1_U,
        False,
        lambda a, p: (sqrt(pi / 3.0), 0.0, 4.0 * sqrt(pi))
        if p == FSEL_EXP
        else (sqrt(pi / 3.0), -1.0, 4.0),
        a_min=0.0,
    ),
}
