"""Adaptive quadrature over [0, inf) for weights times eta powers.

Strategy: adaptively bisect [lo, X] (worst panel first) with the
backend's 15-evaluation panel and account for [X, inf) by one of three
tail methods (``QuadResult.tail_method``).  The panel rule is nested
Gauss-Kronrod 7/15, except for the cos and sin weights on a panel with
c = a (b - a)/2 > 3: there a Filon-Clenshaw-Curtis rule samples
eta^n(ix) at 15 Chebyshev-Lobatto nodes and integrates cos/sin(a x)
against its interpolant exactly through Chebyshev moments (QUADPACK's
qawo; the moments by forward recurrence for c > 14, by a boundary-value
solve of the same recurrence below), so the panel count follows eta
rather than the oscillation and does not grow with a.  The cos_recip
weight x^{-1/2} cos(a/x) oscillates in t = 1/x: on a panel [x_a, x_b]
with x_a > 0 its integral is int cos(a t) x^{3/2} eta^n(ix) dt over
[1/x_b, 1/x_a], whose factor beside cos(a t) is smooth, so the same rule
takes it in t wherever c = a (1/x_a - 1/x_b)/2 > 3.  The switches sit
in the kernel twins; this driver sees one panel function.  Tail methods:

* ``series-correction`` -- the exp, cos and sin weights (the forms with
  a ``laplace_tail``).  X = 1, the point where the kernels switch from
  the modular transform to the direct q-series.  Beyond it eta^n(ix) is
  the short exponential sum ``dedekind.series_terms``, so the tail
  integral is a finite sum of closed-form Laplace tails of the weight,
  added to the value.  Its error is the integral of the series'
  truncation bound plus a rounding bound.  Only the direct series is
  used, never the modular transform or a right-hand side.
* ``exp-bound`` -- every other decaying integrand.  X comes from the
  decay model (eta(ix) <= e^{-pi x/12} and eta^3(ix) <= e^{-pi x/4} for
  x >= 1, times the weight's own growth/decay); the tail is dropped and
  its bound enters the error.
* ``algebraic-correction`` -- the Glaisher integrand of EQ11, whose tail
  is 1/X up to an exponentially small remainder.

Integrands with an eta factor (n >= 1) start at a lower limit lo > 0.
Near 0, eta^n(ix) <= x^{-n/2} e^{-n pi/(12 x)} vanishes to all orders,
and the weight is at most amp x^m (``Form.decay``), so the mass below lo
is at most lo times the supremum of their product, which sits at lo
while lo <= n pi/(12 (n/2 - m)).  lo is the largest power of two
2^-j <= 1/8 where both hold and the bound is <= tol/4 (``_choose_lower``;
2^-39 always qualifies); the bound is ``lower_err`` and stays in the
error.  The tolerance splits into panels 1/2, tail 1/4 and clipped mass
1/4.  Whether the weight is finite is checked at x = 1e-12 whatever lo
is, so the parameter domain does not depend on lo.  Integrands without an eta
factor (n = 0) start at 0 or at their own lower limit.

Everything is deterministic: no randomized subdivision, ties broken by
insertion order, final sums accumulated with math.fsum in panel order.

Panels recur across records: every record starts from the breakpoints
of ``_initial_breakpoints`` and splits at midpoints.  For n >= 1 they
are graded geometrically toward the lower limit, lo, 2 lo, 4 lo, ...,
1/4, 1/2, 1, 2, ..., so the bisection does not walk toward 0 one halving
at a time; for n = 0 they are lo, then 0.25, 0.5, 1, 2, ....  Past an
n = 0 limit every endpoint is dyadic, so the records of one process form
the same panels again and again.  The kernel twins therefore keep a
per-process memo of what each rule consumes of eta^n at a panel's 15
nodes (GK15 the values, Filon their Chebyshev sums), keyed by n, the
rule and the exact endpoints, holding 1,024 panels, and a memo of the
Filon moments keyed by the exact c; only n >= 1 panels use
them, so no right-hand side quadrature reads a left-hand side's values.
This module caches the series-correction tail's terms and error (a
function of n and X) and the exp-bound cutoff (a function of the decay
model and the tolerance) the same way.  A result does not depend on
whether a panel hit a memo, and ``evals`` still counts 15 per panel.
"""

from __future__ import annotations

import functools
import heapq
import math
from math import exp, fsum, inf, log, pi, sqrt
from typing import NamedTuple

from . import _backend, dedekind
from . import _forms as F
from .errors import DomainError, NonConvergenceError

__all__ = [
    "KernelSpec",
    "QuadResult",
    "integrate",
    "integrate_glaisher",
    "integrate_rhs_aux",
    "EVAL_BUDGET",
]

EVAL_BUDGET = 100_000
_LO_CLIP = 1e-12
_MIN_TOL = 1e-13
_EPS = 2.220446049250313e-16
# Default split point of the series-correction tail (see the module docstring).
_SERIES_SPLIT = 1.0

# The eta factor's own decay rate: eta(ix) <= e^{-pi x/12}, eta^3(ix) <= e^{-pi x/4}.
_ETA_RATE = {0: 0.0, 1: pi / 12.0, 3: pi / 4.0}


class _KernelFields(NamedTuple):
    form: str
    n: int
    a: float = 0.0
    p: float = 1.0


class KernelSpec(_KernelFields):
    """A weight function times an eta power.

    ``form`` is a key of ``_forms.FORMS``; ``a`` is the primary
    parameter, ``p`` the secondary one (the shifted_recip exponent, the
    sech_aux moment, or the transform-pair F selector).  ``n`` is the
    eta power: 1 or 3 for the identity kernels, 0 for the auxiliary
    integrands that carry no eta factor.  Every construction, ``_make``
    and ``_replace`` included, checks the parameters against the form.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        row = F.FORMS.get(self.form)
        if row is None:
            raise DomainError(f"unknown kernel form {self.form!r}")
        if self.n not in _ETA_RATE:
            raise DomainError(f"eta power must be 0, 1 or 3, got {self.n}")
        a = float(self.a)
        if math.isnan(a) or math.isinf(a):
            raise DomainError(f"kernel parameter must be finite, got {a!r}")
        if not row.eta and self.n != 0:
            raise DomainError(f"form {self.form!r} carries no eta factor (n=0)")
        if row.eta and self.n == 0:
            raise DomainError(f"form {self.form!r} requires an eta factor (n=1 or 3)")
        if row.a_min is not None and (a <= row.a_min if row.a_open else a < row.a_min):
            bound = f"{'>' if row.a_open else '>='} {row.a_min:g}"
            raise DomainError(f"form {self.form!r} requires parameter {bound}")
        if row.p_values is not None and self.p not in row.p_values:
            raise DomainError(
                f"form {self.form!r} requires secondary parameter in {row.p_values}"
            )
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (which _replace calls) bypasses __new__.
        return cls(*iterable)

    @property
    def form_id(self) -> int:
        return F.FORMS[self.form].id


class QuadResult(NamedTuple):
    """Integral estimate with its error budget and tail metadata.

    ``err_est`` is the panel estimates plus ``tail_err`` plus
    ``lower_err``, the bound on the mass clipped below ``lower``.
    ``tail_value`` is the part of ``value`` that the tail method added for
    [cutoff, inf).
    """

    value: float
    err_est: float
    evals: int
    cutoff: float
    # "series-correction": tail_value = int_cutoff^inf from the q-series;
    # "exp-bound": tail dropped, tail_value = 0, tail_err bounds it;
    # "algebraic-correction": tail_value = 1/cutoff (EQ11).
    tail_method: str
    tail_value: float = 0.0
    lower: float = 0.0
    tail_err: float = 0.0
    lower_err: float = 0.0


def _decay_model(k: KernelSpec) -> tuple[float, float, float]:
    """(rate, m, amp) with |integrand(x)| <= amp * x^m * e^{-rate x} for x >= 1."""
    decay = F.FORMS[k.form].decay
    if decay is None:
        raise DomainError(f"form {k.form!r} uses the algebraic tail, not a decay model")
    rate, m, amp = decay(k.a, k.p)
    return rate + _ETA_RATE[k.n], m, amp


def _tail_integral_bound(rate: float, m: float, amp: float, x: float) -> float:
    """Bound on amp * int_x^inf t^m e^{-rate t} dt (requires rate*x > m)."""
    rx = rate * x
    if rx <= max(m, 0.0) + 1.0:
        return math.inf
    e = rx - m * log(x)
    if e > 745.0:
        return 0.0
    b = amp * exp(-e) / rate if e > -709.0 else math.inf
    if m > 0.0:
        b /= 1.0 - m / rx
    # As for the clipped mass: an infinite bound would pass any residual.
    if b == math.inf:
        raise DomainError(
            f"the integrand's tail beyond x={x:g} (decay x^{m:g} e^(-{rate:g} x))"
            " cannot be bounded in double precision"
        )
    return b


# A pure function of its float arguments; a DomainError is not cached.
@functools.lru_cache(maxsize=1024)
def _choose_cutoff(
    rate: float, m: float, amp: float, lo: float, tol_tail: float
) -> tuple[float, float]:
    x = 4.0
    if lo > 0.0 and 1.5 * lo > x:
        x = 1.5 * lo
    while True:
        b = _tail_integral_bound(rate, m, amp, x)
        if b <= tol_tail:
            return x, b
        if x > 1e5:
            # A property of the integrand, not a budget the quadrature ran out of.
            raise DomainError(
                f"no cutoff below x=1e5 bounds the integrand's tail"
                f" (decay x^{m:g} e^(-{rate:g} x)) to {tol_tail:g}"
            )
        x *= 1.5


def _series_tail(kernel: KernelSpec, laplace_tail, x0: float) -> tuple[float, float]:
    """(int_{x0}^inf w(x) eta^n(ix) dx, its error bound), term by term.

    Sums the weight's Laplace tail over the terms of ``_series_terms``.
    """
    terms, err = _series_terms(kernel.n, x0)
    return fsum(c * laplace_tail(kernel.a, lam, x0) for c, lam in terms), err


@functools.lru_cache(maxsize=1024)
def _series_terms(n: int, x0: float) -> tuple[tuple[tuple[float, float], ...], float]:
    """The terms (c, lam) of the direct q-series of eta^n that ``_series_tail``
    sums beyond x0, and the tail's error bound; they do not depend on the weight.

    Takes terms until the integrated remainder is below eps times the mass
    bound, so the error is dominated by rounding.
    """
    # With no terms the remainder bound bounds int_{x0}^inf |eta^n|, and
    # so the integral of |w eta^n|, because |w| <= 1 there.
    bound = dedekind.remainder_integral_bound
    mass = bound(x0, n, 0)
    n_terms = 1
    while (trunc := bound(x0, n, n_terms)) > _EPS * mass:
        n_terms += 1
    # Rounding: 50 eps times the mass, as the panel rule's 50 eps * resabs floor.
    return tuple(dedekind.series_terms(n, n_terms)), trunc + 50.0 * _EPS * mass


def _initial_breakpoints(lo: float, hi: float, first: float = 0.25) -> list[float]:
    pts = [lo]
    p = first
    while p <= lo:
        p *= 2.0
    while p < hi:
        pts.append(p)
        p *= 2.0
    pts.append(hi)
    return pts


def _adaptive(
    fid: int,
    n: int,
    p1: float,
    p2: float,
    lo: float,
    hi: float,
    tol_abs: float,
    max_evals: int,
    first: float = 0.25,
) -> tuple[float, float, int]:
    panel = _backend.panel
    pts = _initial_breakpoints(lo, hi, first)
    heap: list[list[float]] = []
    seq = 0
    evals = 0
    err_total = 0.0
    for a, b in zip(pts, pts[1:]):
        val, err, _ = panel(fid, n, p1, p2, a, b)
        evals += 15
        heapq.heappush(heap, [-err, seq, a, b, val, err])
        seq += 1
        err_total += err
    done: list[list[float]] = []
    # A non-finite panel error ends the loop (NaN compares False) and is
    # caught below; a non-finite value always comes with one.
    while tol_abs < err_total < inf and heap:
        if evals + 30 > max_evals:
            raise NonConvergenceError(
                f"evaluation budget {max_evals} exhausted "
                f"(err_est {err_total:.3e} > tol {tol_abs:.3e})",
                evals,
            )
        item = heapq.heappop(heap)
        _, _, a, b, val, err = item
        mid = 0.5 * (a + b)
        if mid - a < 1e-15 * max(abs(a), 1.0):
            done.append(item)  # cannot split further in double precision
            continue
        v1, e1, _ = panel(fid, n, p1, p2, a, mid)
        v2, e2, _ = panel(fid, n, p1, p2, mid, b)
        evals += 30
        err_total += e1 + e2 - err
        heapq.heappush(heap, [-e1, seq, a, mid, v1, e1])
        seq += 1
        heapq.heappush(heap, [-e2, seq, mid, b, v2, e2])
        seq += 1
    if not math.isfinite(err_total):
        raise DomainError(
            f"the integrand (form id {fid}, n={n}, a={p1:g}) is not finite"
            f" in double precision on [{lo:g}, {hi:g}]"
        )
    panels = sorted(heap + done, key=lambda it: it[2])
    value = fsum(it[4] for it in panels)
    err = fsum(it[5] for it in panels)
    return value, err, evals


def _lower_mass_bound(n: int, m: float, amp: float, lo: float) -> float:
    # sup over (0, lo] of amp x^m * x^{-n/2} e^{-n pi/(12 x)}, times lo; the
    # sup sits at lo while lo <= n pi/(12 (n/2 - m)).  Formed in log space;
    # inf where it exceeds any double.
    e = (1.0 + m - 0.5 * n) * log(lo) - n * pi / (12.0 * lo)
    return amp * exp(e) if e < 709.0 else inf


# Candidate lower limits 2^-j: from 1/8 down to 2^-39, the last power of
# two above _LO_CLIP.  2^-39 always qualifies: there the exponent of the
# bound is about -(n pi/12) 2^39 < -1e11, far below any log(tol/amp) or
# power of lo, and the weight's finiteness at _LO_CLIP keeps n/2 - m small.
_LOWER_J = range(3, 40)


# Keyed by the decay model, not the kernel: records of one form mostly
# share (m, amp) whatever their parameter (a cos or exp sweep hits), but
# not x^-s, whose m = -s moves with every point of a sweep.
@functools.lru_cache(maxsize=1024)
def _choose_lower(n: int, m: float, amp: float, tol_lower: float) -> tuple[float, float]:
    """(lo, its clipped-mass bound): the largest lo = 2^-j <= 1/8 whose
    bound is <= tol_lower and holds (lo <= n pi/(12 (n/2 - m)))."""
    c = n * pi / 12.0
    rise = 0.5 * n - m
    for j in _LOWER_J:
        lo = math.ldexp(1.0, -j)
        if c / lo >= rise:
            mass = _lower_mass_bound(n, m, amp, lo)
            if mass <= tol_lower:
                return lo, mass
    raise DomainError(f"no lower limit above x={_LO_CLIP:g} bounds the clipped mass")


def _check_tol(tol: float, floor: float) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= floor):
        raise DomainError(f"tol must be >= {floor}, got {tol!r}")
    return tol


def integrate(
    kernel: KernelSpec,
    tol: float = 1e-11,
    *,
    cutoff: float | None = None,
    max_evals: int = EVAL_BUDGET,
) -> QuadResult:
    """Integrate f(x) eta^n(ix) dx over [0, inf) to absolute tolerance tol.

    ``cutoff`` overrides the point where quadrature stops (used by the
    cutoff-robustness checks); for the series-correction forms it must
    be >= 1, for the others it must exceed the lower limit
    ``QuadResult.lower``: 0 without an eta factor, a power of two <= 1/8
    with one, so any cutoff > 1/8 is accepted, and the tail beyond it
    must have a finite bound.  Raises NonConvergenceError when the
    evaluation budget is exhausted before the panel sum reaches the
    tolerance; raises DomainError for parameters outside the kernel's
    validity range, a cutoff as above, or a tail no cutoff below 1e5
    bounds.
    """
    if not isinstance(kernel, KernelSpec):
        raise DomainError("kernel must be a KernelSpec")
    if kernel.form_id == F.FORM_GLAISHER11:
        return _integrate_glaisher11(tol, cutoff, max_evals)
    tol = _check_tol(tol, _MIN_TOL)
    rate, m, amp = _decay_model(kernel)
    if rate <= 0.0:
        raise DomainError(f"kernel {kernel.form!r} has no decaying tail model")
    # Before any panel: a parameter whose weight overflows at x = 1e-12 is
    # rejected, whatever the lower limit.
    lo = mass = 0.0
    first = 0.25
    if kernel.n >= 1:
        if not math.isfinite(
            _backend.kernel_weight(kernel.form_id, kernel.a, kernel.p, _LO_CLIP)
        ):
            raise DomainError(
                f"kernel parameter a={kernel.a:g} of form {kernel.form!r} is too large:"
                f" the weight overflows at x={_LO_CLIP:g}"
            )
        lo, mass = _choose_lower(kernel.n, m, amp, 0.25 * tol)
        first = 2.0 * lo
    laplace_tail = F.FORMS[kernel.form].laplace_tail
    if laplace_tail is not None:
        hi = _SERIES_SPLIT if cutoff is None else float(cutoff)
        if not (math.isfinite(hi) and hi >= _SERIES_SPLIT):
            raise DomainError(
                f"cutoff must be >= {_SERIES_SPLIT:g} for form {kernel.form!r},"
                f" got {cutoff!r}"
            )
        method = "series-correction"
        tail_value, tail = _series_tail(kernel, laplace_tail, hi)
    else:
        method, tail_value = "exp-bound", 0.0
        if cutoff is None:
            hi, tail = _choose_cutoff(rate, m, amp, lo, 0.25 * tol)
        else:
            hi = float(cutoff)
            if not (math.isfinite(hi) and hi > lo):
                raise DomainError(
                    f"cutoff must exceed the lower limit {lo:g}, got {cutoff!r}"
                )
            tail = _tail_integral_bound(rate, m, amp, hi)
            if tail == inf:
                raise DomainError(
                    f"the integrand's tail beyond cutoff={hi:g} (decay x^{m:g}"
                    f" e^(-{rate:g} x)) has no finite bound there; choose a larger cutoff"
                )
    value, perr, evals = _adaptive(
        kernel.form_id, kernel.n, kernel.a, kernel.p, lo, hi, 0.5 * tol, max_evals,
        first,
    )
    return QuadResult(
        value=value + tail_value,
        err_est=perr + tail + mass,
        evals=evals,
        cutoff=hi,
        tail_method=method,
        tail_value=tail_value,
        lower=lo,
        tail_err=tail,
        lower_err=mass,
    )


def _integrate_glaisher11(
    tol: float, cutoff: float | None, max_evals: int
) -> QuadResult:
    tol = _check_tol(tol, 1e-12)
    if cutoff is None:
        hi = 30.0
        while 6.0 * exp(-hi) / (hi * hi) > 0.25 * tol:
            hi *= 1.5
    else:
        hi = float(cutoff)
        if not (math.isfinite(hi) and hi >= 1.0):
            raise DomainError(f"glaisher11 cutoff must be >= 1, got {cutoff!r}")
    remainder = 6.0 * exp(-hi) / (hi * hi)
    value, perr, evals = _adaptive(
        F.FORM_GLAISHER11, 0, 0.0, 0.0, 0.0, hi, 0.5 * tol, max_evals
    )
    # Beyond X the integrand is 1/x^2 + O(e^{-x}/x^2): the tail is 1/X up
    # to `remainder`, which stays in the error budget.
    return QuadResult(
        value=value + 1.0 / hi,
        err_est=perr + remainder,
        evals=evals,
        cutoff=hi,
        tail_method="algebraic-correction",
        tail_value=1.0 / hi,
        lower=0.0,
        tail_err=remainder,
    )


def integrate_glaisher(
    which: str,
    tol: float = 1e-11,
    *,
    cutoff: float | None = None,
    max_evals: int = EVAL_BUDGET,
) -> QuadResult:
    """The two cosh+cos denominator integrals: ``eq11`` or ``eq17``.

    eq11: (sinh x - sin x)/(x^2 (cosh x + cos x)), algebraic 1/X tail.
    eq17: sinh(x/2) sin(x/2)/(x (cosh x + cos x)), exponential tail.
    Both integrands extend continuously by 0 at x = 0 (they behave like
    x/6 and x/8 there).
    """
    if which == "eq11":
        return _integrate_glaisher11(tol, cutoff, max_evals)
    if which == "eq17":
        tol = _check_tol(tol, 1e-12)
        return integrate(
            KernelSpec("glaisher17", 0), tol, cutoff=cutoff, max_evals=max_evals
        )
    raise DomainError(f"unknown Glaisher integral {which!r}")


# which -> sech_aux moment (the power of x in the integrand).
_RHS_AUX = {"A2_rhs": 1.0, "A4_rhs": 0.0, "A6_rhs": 1.0}


def integrate_rhs_aux(
    which: str,
    param: float,
    tol: float = 1e-11,
    *,
    max_evals: int = EVAL_BUDGET,
) -> QuadResult:
    """Right-hand sides that are themselves integrals.

    A2_rhs(a): (2/pi) int_0^inf x e^{-a x^2/pi} sech x dx
    A4_rhs(a): (2/pi) int_0^inf   e^{-a x^2/pi} sech x dx
    A6_rhs(y): (2/pi) int_{sqrt(pi y)}^inf x sech x dx
    """
    if which not in _RHS_AUX:
        raise DomainError(f"unknown auxiliary integral {which!r}")
    tol = _check_tol(tol, _MIN_TOL)
    param = float(param)
    if not (math.isfinite(param) and param >= 0.0):
        raise DomainError(f"{which} requires a finite parameter >= 0, got {param!r}")
    moment = _RHS_AUX[which]
    if which == "A6_rhs":
        lo = sqrt(pi * param)
        a = 0.0
    else:
        lo = 0.0
        a = param
    scale = 2.0 / pi
    rate, m, amp = F.FORMS["sech_aux"].decay(a, moment)
    hi, tail = _choose_cutoff(rate, m, amp, lo, 0.25 * tol / scale)
    value, perr, evals = _adaptive(
        F.FORM_SECH_AUX, 0, a, moment, lo, hi, 0.5 * tol / scale, max_evals
    )
    return QuadResult(
        value=scale * value,
        err_est=scale * (perr + tail),
        evals=evals,
        cutoff=hi,
        tail_method="exp-bound",
        tail_value=0.0,
        lower=lo,
        tail_err=scale * tail,
    )
