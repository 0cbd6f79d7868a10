"""Identity registry and verification engine.

Each registry entry binds one left-hand integral (evaluated through the
quadrature engine and the eta series) to its independent right-hand
side (built from closed_forms), together with a parameter grid, a
tolerance and an expected status.  A record passes when

    abs_residual <= max(tol, 10 * lhs_err_est)

i.e. the closed form is treated as exact and all slack is assigned to
the quadrature side.  Entries whose printed right-hand side fails
independent consistency checks are *flagged*: their residuals are
reported but they never count as engine failures.
"""

from __future__ import annotations

import math
import time
from functools import cache
from typing import Callable, NamedTuple

from . import closed_forms, quad
from .errors import DomainError, NonConvergenceError
from .quad import KernelSpec

__all__ = [
    "IdentitySpec",
    "IdentityRecord",
    "VerificationReport",
    "default_registry",
    "registry_by_id",
    "verify_identity",
    "transform_pair_check",
    "run_suite",
]

_CONSTANT_TOL = 1e-10
_PARAM_TOL = 1e-9


class IdentitySpec(NamedTuple):
    """Declarative binding of a left-hand integral to its closed form."""

    id: str
    kernel: Callable[[dict], KernelSpec] | str  # builder, or a Glaisher selector
    rhs: Callable[[dict, float], float]  # (params, tol) -> right-hand side
    param_grid: tuple[dict, ...]
    tol: float
    expected_status: str = "pass"  # "pass" | "flagged"
    lhs_scale: float = 1.0
    notes: str = ""
    anchor: str = ""


class IdentityRecord(NamedTuple):
    """Result of one (identity, grid point) verification."""

    id: str
    params: dict
    lhs_value: float
    lhs_err_est: float
    rhs_value: float
    abs_residual: float
    rel_residual: float
    status: str  # "pass" | "fail" | "flagged"
    evals: int
    ms: float
    note: str = ""
    cutoff: float | None = None  # where the quadrature stopped; None if it failed
    tail_method: str | None = None  # QuadResult.tail_method; None if it failed
    # Where lhs_err_est went, None if the quadrature failed: the lower limit,
    # the bound on the mass clipped below it, and the tail's error.
    lower: float | None = None
    lower_err: float | None = None
    tail_err: float | None = None


class VerificationReport(NamedTuple):
    """All records of a suite run plus summary statistics."""

    records: tuple[IdentityRecord, ...]
    tol_override: float | None = None

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "flagged": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def max_pass_residual(self) -> float:
        passes = [r.abs_residual for r in self.records if r.status == "pass"]
        return max(passes) if passes else 0.0

    @property
    def total_ms(self) -> float:
        return sum(r.ms for r in self.records)


def _const(value: float) -> Callable[[dict, float], float]:
    return lambda params, tol: value


def _grid(name: str, values) -> tuple[dict, ...]:
    return tuple({name: float(v)} for v in values)


def default_registry() -> list[IdentitySpec]:
    """The identity corpus: 25 identities, 71 grid records."""
    pi = math.pi
    cf = closed_forms
    reg = [
        IdentitySpec(
            id="EQ5",
            kernel=lambda p: KernelSpec("exp", 1, a=p["t"]),
            rhs=lambda p, tol: cf.laplace_eta(p["t"]),
            param_grid=_grid("t", [0.1, 1.0, 3.0 * pi, 10.0]),
            tol=_PARAM_TOL,
            anchor="int_0^inf exp(-t x) eta(ix) dx = sqrt(pi/t) sinh(2 sqrt(pi t/3)) / cosh(sqrt(3 pi t))",
        ),
        IdentitySpec(
            id="EQ7",
            kernel=lambda p: KernelSpec("power", 1, a=p["s"]),
            rhs=lambda p, tol: cf.mellin_eta(p["s"]),
            param_grid=_grid("s", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]),
            tol=_PARAM_TOL,
            notes="s = 1/2 and s = 1 use the pole-cancellation limit paths",
            anchor=(
                "int_0^inf x^-s eta(ix) dx = 8 sqrt(3) pi/(16^s (3 pi)^s)"
                " * Gamma(2s-1)/Gamma(s) * [zeta(2s-1,1/12)+zeta(2s-1,11/12)"
                "-zeta(2s-1,5/12)-zeta(2s-1,7/12)]"
            ),
        ),
        IdentitySpec(
            id="EQ8",
            kernel=lambda p: KernelSpec("cos", 1, a=p["y"]),
            rhs=lambda p, tol: cf.fourier_cos_eta(p["y"]),
            param_grid=_grid("y", [0.5, 1.0, 5.0, 20.0]),
            tol=_PARAM_TOL,
            notes=(
                "printed display reuses the sinh argument sqrt(8 pi y/3) in the"
                " denominator and fails numerically; implemented as Re of the"
                " Laplace transform at t = i y, which is what the derivation"
                " states"
            ),
            anchor="int_0^inf cos(x y) eta(ix) dx = Re[ laplace_eta(i y) ]",
        ),
        IdentitySpec(
            id="EQ9",
            kernel=lambda p: KernelSpec("exp", 1, a=0.0),
            rhs=_const(cf.TWO_PI_OVER_SQRT3),
            param_grid=({},),
            tol=_CONSTANT_TOL,
            anchor="int_0^inf eta(ix) dx = 2 pi / sqrt(3)",
        ),
        IdentitySpec(
            id="EQ10",
            kernel=lambda p: KernelSpec("sin", 1, a=p["y"]),
            rhs=lambda p, tol: cf.fourier_sin_eta(p["y"]),
            param_grid=_grid("y", [0.5, 1.0, 5.0, 20.0]),
            tol=_PARAM_TOL,
            notes="same display defect as EQ8; implemented as -Im[laplace_eta(i y)]",
            anchor="int_0^inf sin(x y) eta(ix) dx = -Im[ laplace_eta(i y) ]",
        ),
        IdentitySpec(
            id="EQ11",
            kernel="eq11",
            rhs=_const(pi / 4.0),
            param_grid=({},),
            tol=_CONSTANT_TOL,
            notes="algebraic tail: integrand -> 1/x^2, handled as a 1/X correction",
            anchor="int_0^inf (sinh x - sin x)/(x^2 (cosh x + cos x)) dx = pi/4",
        ),
        IdentitySpec(
            id="EQ13",
            kernel=lambda p: KernelSpec("exp", 3, a=2.0 * math.pi * p["z"]),
            # 2 pi / cosh(pi sqrt(2 z)); the sech argument equals sqrt(pi * 2 pi z)
            # so this is exactly 2 pi times the eta^3 Laplace transform at 2 pi z.
            rhs=lambda p, tol: 2.0 * pi * cf.laplace_eta3(2.0 * pi * p["z"]),
            param_grid=_grid("z", [0.25, 1.0, 4.0]),
            tol=_PARAM_TOL,
            lhs_scale=2.0 * pi,
            notes=(
                "q-integral verified in x-space: int_0^1 q^(z-1) eta^3 dq ="
                " 2 pi int_0^inf exp(-2 pi z x) eta^3(ix) dx"
            ),
            anchor="int_0^1 q^(z-1) eta^3 dq = 2 pi / cosh(pi sqrt(2 z))",
        ),
        IdentitySpec(
            id="EQ14",
            kernel=lambda p: KernelSpec("exp", 3, a=p["y"]),
            rhs=lambda p, tol: cf.laplace_eta3(p["y"]),
            param_grid=_grid("y", [0.25, 1.0, 4.0]),
            tol=_PARAM_TOL,
            anchor="int_0^inf exp(-x y) eta^3(ix) dx = sech(sqrt(pi y))",
        ),
        IdentitySpec(
            id="EQ16",
            kernel=lambda p: KernelSpec("sqrt_shift", 3),
            rhs=_const(math.sqrt(2.0) - 1.0),
            param_grid=({},),
            tol=_CONSTANT_TOL,
            notes=(
                "printed product index starts at n=0, which vanishes"
                " identically; implemented from n=1, i.e. the weight times"
                " eta^3(ix)"
            ),
            anchor=(
                "int_0^inf sqrt((sqrt(x^2+1)-1)/(x^2+1)) exp(-pi x/4)"
                " prod_(n>=1) (1-exp(-2 pi n x))^3 dx = sqrt(2) - 1"
            ),
        ),
        IdentitySpec(
            id="EQ17",
            kernel="eq17",
            rhs=_const(pi / 8.0),
            param_grid=({},),
            tol=_CONSTANT_TOL,
            anchor="int_0^inf sinh(x/2) sin(x/2)/(x (cosh x + cos x)) dx = pi/8",
        ),
        IdentitySpec(
            id="A1",
            kernel=lambda p: KernelSpec("exp", 3, a=p["y"]),
            rhs=lambda p, tol: cf.laplace_eta3(p["y"]),
            param_grid=_grid("y", [0.25, 1.0, 4.0]),
            tol=_PARAM_TOL,
            notes="same transform as EQ14",
            anchor="int_0^inf exp(-x y) eta^3(ix) dx = sech(sqrt(pi y))  [appendix]",
        ),
        IdentitySpec(
            id="A2",
            kernel=lambda p: KernelSpec("shifted_recip", 3, a=p["a"], p=1.0),
            rhs=lambda p, tol: quad.integrate_rhs_aux("A2_rhs", p["a"], tol).value,
            param_grid=_grid("a", [0.5, 1.0, 4.0]),
            tol=_PARAM_TOL,
            notes="rhs-by-quadrature: both sides are integrals (weaker evidence)",
            anchor=(
                "int_0^inf eta^3(ix)/(x+a) dx = (2/pi) int_0^inf"
                " x exp(-a x^2/pi) sech x dx"
            ),
        ),
        IdentitySpec(
            id="A3",
            kernel=lambda p: KernelSpec("power", 3, a=p["nu"]),
            rhs=lambda p, tol: cf.mellin_eta3(p["nu"]),
            param_grid=_grid("nu", [0.5, 1.0, 1.5, 3.0]),
            tol=_PARAM_TOL,
            anchor=(
                "int_0^inf x^-nu eta^3(ix) dx = (4/pi^nu)"
                " Gamma(2 nu)/Gamma(nu) beta(2 nu)"
            ),
        ),
        IdentitySpec(
            id="A4",
            kernel=lambda p: KernelSpec("shifted_recip", 3, a=p["a"], p=0.5),
            rhs=lambda p, tol: quad.integrate_rhs_aux("A4_rhs", p["a"], tol).value,
            param_grid=_grid("a", [0.5, 1.0, 4.0]),
            tol=_PARAM_TOL,
            notes="rhs-by-quadrature: both sides are integrals (weaker evidence)",
            anchor=(
                "int_0^inf eta^3(ix)/sqrt(x+a) dx = (2/pi) int_0^inf"
                " exp(-a x^2/pi) sech x dx"
            ),
        ),
        IdentitySpec(
            id="A5",
            kernel=lambda p: KernelSpec("exp_recip", 3, a=p["a"]),
            rhs=lambda p, tol: cf.laplace_eta3(p["a"]),
            param_grid=_grid("a", [0.25, 1.0, 4.0]),
            tol=_PARAM_TOL,
            anchor="int_0^inf x^-1/2 exp(-a/x) eta^3(ix) dx = sech(sqrt(pi a))",
        ),
        IdentitySpec(
            id="A6",
            kernel=lambda p: KernelSpec("exp_over_x", 3, a=p["y"]),
            rhs=lambda p, tol: quad.integrate_rhs_aux("A6_rhs", p["y"], tol).value,
            param_grid=_grid("y", [0.5, 1.0, 4.0]),
            tol=_PARAM_TOL,
            notes="rhs-by-quadrature: both sides are integrals (weaker evidence)",
            anchor=(
                "int_0^inf exp(-x y) eta^3(ix) dx/x = (2/pi)"
                " int_sqrt(pi y)^inf x sech x dx"
            ),
        ),
        IdentitySpec(
            id="A7",
            kernel=lambda p: KernelSpec("sqrt_shift", 3),
            rhs=_const(math.sqrt(2.0) - 1.0),
            param_grid=({},),
            tol=_CONSTANT_TOL,
            anchor="int_0^inf sqrt((sqrt(x^2+1)-1)/(x^2+1)) eta^3(ix) dx = sqrt(2) - 1",
        ),
        IdentitySpec(
            id="A8",
            kernel=lambda p: KernelSpec("cos_recip", 3, a=p["a"]),
            rhs=lambda p, tol: cf.cos_recip_eta3(p["a"]),
            param_grid=_grid("a", [0.25, 1.0, 4.0]),
            tol=_PARAM_TOL,
            anchor=(
                "int_0^inf x^-1/2 cos(a/x) eta^3(ix) dx = 2 cos(sqrt(pi a/2))"
                " cosh(sqrt(pi a/2)) / (cos(sqrt(2 pi a)) + cosh(sqrt(2 pi a)))"
            ),
        ),
        IdentitySpec(
            id="A9",
            kernel=lambda p: KernelSpec("erf_weight", 3, a=p["b"]),
            rhs=lambda p, tol: cf.erf_weight_eta3(p["b"]),
            param_grid=_grid("b", [0.25, 1.0, 4.0]),
            tol=_PARAM_TOL,
            anchor=(
                "int_0^inf x^-1/2 erf(sqrt(b x)) eta^3(ix) dx ="
                " (4/pi) arctan(tanh(sqrt(pi b)/2))"
            ),
        ),
        IdentitySpec(
            id="A10",
            kernel=lambda p: KernelSpec("scaled_erfc_recip", 3, a=p["a"]),
            rhs=lambda p, tol: cf.scaled_erfc_recip_eta3(p["a"]),
            param_grid=_grid("a", [0.25, 1.0, 4.0]),
            tol=_PARAM_TOL,
            expected_status="flagged",
            notes=(
                "printed rhs fails both asymptotic consistency checks"
                " (a->0: lhs->1 but rhs->1/sqrt(a); a->inf: lhs ~ 1/sqrt(pi a)"
                " but rhs ~ 1/(a sqrt(pi))); empirically the printed form is"
                " 1/sqrt(a) times the integral, exact only at a = 1; reported,"
                " not repaired"
            ),
            anchor=(
                "int_0^inf x^-1/2 exp(a/x) erfc(sqrt(a/x)) eta^3(ix) dx =?"
                " [psi(sqrt(a/pi)/2 + 3/4) - psi(sqrt(a/pi)/2 + 1/4)]/(pi sqrt(a))"
            ),
        ),
        IdentitySpec(
            id="A11",
            kernel=lambda p: KernelSpec("cos", 3, a=p["y"]),
            rhs=lambda p, tol: cf.fourier_cos_eta3(p["y"]),
            param_grid=_grid("y", [0.5, 1.0, 5.0, 20.0]),
            tol=_PARAM_TOL,
            anchor=(
                "int_0^inf cos(x y) eta^3(ix) dx = cosh(v) cos(v) /"
                " (sinh(v)^2 + cos(v)^2), v = sqrt(pi y/2)"
            ),
        ),
        IdentitySpec(
            id="A12",
            kernel=lambda p: KernelSpec("sin", 3, a=p["y"]),
            rhs=lambda p, tol: cf.fourier_sin_eta3(p["y"]),
            param_grid=_grid("y", [0.5, 1.0, 5.0, 20.0]),
            tol=_PARAM_TOL,
            anchor=(
                "int_0^inf sin(x y) eta^3(ix) dx = sinh(v) sin(v) /"
                " (sinh(v)^2 + cos(v)^2), v = sqrt(pi y/2)"
            ),
        ),
        IdentitySpec(
            id="A13",
            kernel=lambda p: KernelSpec("exp", 1, a=0.0),
            rhs=_const(cf.TWO_PI_OVER_SQRT3),
            param_grid=({},),
            tol=_CONSTANT_TOL,
            anchor="int_0^inf eta(ix) dx = 2 pi / sqrt(3)  [appendix]",
        ),
        IdentitySpec(
            id="A14",
            kernel=lambda p: KernelSpec("exp", 3, a=0.0),
            rhs=_const(1.0),
            param_grid=({},),
            tol=_CONSTANT_TOL,
            anchor="int_0^inf eta^3(ix) dx = 1",
        ),
        IdentitySpec(
            id="A15",
            kernel=lambda p: KernelSpec("power", 3, a=-p["n"]),
            rhs=lambda p, tol: cf.moment_eta3(p["n"]),
            param_grid=_grid("n", [0, 1, 2, 3]),
            tol=_PARAM_TOL,
            notes=(
                "printed prefactor 4 n!/pi^(n+1) fails for n >= 1; the"
                " correct prefactor n! 4^(n+1)/pi^(n+1) (equivalently the"
                " Euler-number moments of sech) is implemented"
            ),
            anchor="int_0^inf x^n eta^3(ix) dx = n! 4^(n+1) / pi^(n+1) * beta(2n+1)",
        ),
    ]
    return reg


@cache
def registry_by_id() -> dict[str, IdentitySpec]:
    """``default_registry()`` keyed by id, built once per process; read-only."""
    return {spec.id: spec for spec in default_registry()}


def _pass_status(abs_residual: float, tol: float, lhs_err: float) -> str:
    # An infinite (or NaN) error estimate would pass any residual.
    if not math.isfinite(lhs_err):
        return "fail"
    return "pass" if abs_residual <= max(tol, 10.0 * lhs_err) else "fail"


def verify_identity(
    spec: IdentitySpec, params: dict | None = None, tol: float | None = None
) -> IdentityRecord:
    """Verify one identity at one grid point.

    The parameter names must be those of the identity's grid; otherwise
    DomainError names the valid ones.
    """
    params = dict(params or {})
    names = spec.param_grid[0].keys()
    if params.keys() != names:
        raise DomainError(
            f"{spec.id} takes parameters: {', '.join(names) or 'none'};"
            f" got: {', '.join(params) or 'none'}"
        )
    tol = float(tol) if tol is not None else spec.tol
    quad_tol = max(tol / 10.0, 1e-13)
    t0 = time.perf_counter()
    try:
        if isinstance(spec.kernel, str):
            res = quad.integrate_glaisher(spec.kernel, max(quad_tol, 1e-12))
        else:
            res = quad.integrate(spec.kernel(params), quad_tol)
        lhs = spec.lhs_scale * res.value
        lhs_err = spec.lhs_scale * res.err_est
    except DomainError as exc:
        point = ", ".join(f"{k}={v:g}" for k, v in params.items())
        raise DomainError(f"{spec.id} at {point}: {exc}") from None
    except NonConvergenceError as exc:
        ms = 1e3 * (time.perf_counter() - t0)
        return IdentityRecord(
            id=spec.id,
            params=params,
            lhs_value=math.nan,
            lhs_err_est=math.inf,
            rhs_value=math.nan,
            abs_residual=math.inf,
            rel_residual=math.inf,
            status="fail",
            evals=exc.evals,
            ms=ms,
            note=f"quadrature did not converge: {exc}",
        )
    rhs = closed_forms.closed_form(spec.id, params, tol=quad_tol / 2.0)
    ms = 1e3 * (time.perf_counter() - t0)
    abs_res = abs(lhs - rhs)
    rel_res = abs_res / max(abs(lhs), abs(rhs), 1e-300)
    if spec.expected_status == "flagged":
        status = "flagged"
    else:
        status = _pass_status(abs_res, tol, lhs_err)
    return IdentityRecord(
        id=spec.id,
        params=params,
        lhs_value=lhs,
        lhs_err_est=lhs_err,
        rhs_value=rhs,
        abs_residual=abs_res,
        rel_residual=rel_res,
        status=status,
        evals=res.evals,
        ms=ms,
        note=spec.notes,
        cutoff=res.cutoff,
        tail_method=res.tail_method,
        lower=res.lower,
        lower_err=spec.lhs_scale * res.lower_err,
        tail_err=spec.lhs_scale * res.tail_err,
    )


# Built-in inverse-Laplace pairs: name -> (f(x) kernel builder, F selector id).
_TP_PAIRS = {
    "exp": (lambda n, a: KernelSpec("shifted_recip", n, a=a, p=1.0), 0),
    "exp_sqrt": (lambda n, a: KernelSpec("shifted_recip", n, a=a, p=0.5), 1),
    "sin_sqrt": (lambda n, a: KernelSpec("im_rsqrt", n, a=a), 2),
}


def transform_pair_check(
    f_pair: str, n: int, a: float = 1.0, tol: float = 1e-9
) -> IdentityRecord:
    """Check the transform-pair mechanism for one built-in pair.

    With F the inverse Laplace transform of f, the identity reads

        int f(x) eta^n(ix) dx = int F(t) K_n(t) dt

    where K_1(t) = sqrt(pi/t) sinh(2 sqrt(pi t/3))/cosh(sqrt(3 pi t)) and
    K_3(t) = sech(sqrt(pi t)).  Built-in pairs (a is the pair parameter):

        exp       F(t) = exp(-a t)              f(x) = 1/(x+a)
        exp_sqrt  F(t) = exp(-a t)/sqrt(pi t)   f(x) = 1/sqrt(x+a)
        sin_sqrt  F(t) = sin(a t)/sqrt(pi t)    f(x) = Im (x - i a)^(-1/2)

    The right-hand side is integrated in the substituted variable
    u = sqrt(t), which removes the t^(-1/2) endpoint singularity.  The
    lhs slot of the record holds the f-side integral, the rhs slot the
    F-side one; both are quadratures, so the residual demonstrates the
    mechanism rather than a printed value.
    """
    if f_pair not in _TP_PAIRS:
        raise DomainError(f"unknown transform pair {f_pair!r}")
    if n not in (1, 3):
        raise DomainError(f"transform pairs require n in {{1, 3}}, got {n}")
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"pair parameter must be finite and > 0, got {a!r}")
    tol = float(tol)
    quad_tol = max(tol / 10.0, 1e-13)
    builder, fsel = _TP_PAIRS[f_pair]
    t0 = time.perf_counter()
    lhs_res = quad.integrate(builder(n, a), quad_tol)
    rhs_form = "tp_rhs3_u" if n == 3 else "tp_rhs1_u"
    rhs_res = quad.integrate(KernelSpec(rhs_form, 0, a=a, p=fsel), quad_tol)
    ms = 1e3 * (time.perf_counter() - t0)
    abs_res = abs(lhs_res.value - rhs_res.value)
    rel_res = abs_res / max(abs(lhs_res.value), abs(rhs_res.value), 1e-300)
    err = lhs_res.err_est + rhs_res.err_est
    return IdentityRecord(
        id=f"TP[{f_pair},n={n}]",
        params={"a": a},
        lhs_value=lhs_res.value,
        lhs_err_est=err,
        rhs_value=rhs_res.value,
        abs_residual=abs_res,
        rel_residual=rel_res,
        status=_pass_status(abs_res, tol, err),
        evals=lhs_res.evals + rhs_res.evals,
        ms=ms,
        note="transform-pair mechanism (both sides quadratures)",
        cutoff=lhs_res.cutoff,
        tail_method=lhs_res.tail_method,
        lower=lhs_res.lower,
        lower_err=lhs_res.lower_err,  # the F side starts at 0 and clips nothing
        tail_err=lhs_res.tail_err + rhs_res.tail_err,
    )


def run_suite(
    registry: list[IdentitySpec] | None = None,
    tol_override: float | None = None,
) -> VerificationReport:
    """Run every (identity, grid point) pair in registry order."""
    if registry is None:
        registry = default_registry()
    records = [
        verify_identity(spec, point, tol_override)
        for spec in registry
        for point in spec.param_grid
    ]
    return VerificationReport(records=tuple(records), tol_override=tol_override)
