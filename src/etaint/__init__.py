"""etaint: the Dedekind eta function on the imaginary axis, its integrals,
and a verification harness for their classical closed forms.

The quadrature hot kernels run on a compiled C core when the extension
is available and on a pure-Python twin otherwise; see
``etaint.backend_name()``.
"""

from ._backend import BACKEND as _BACKEND
from .closed_forms import (
    closed_form,
    fourier_cos_eta,
    fourier_sin_eta,
    laplace_eta,
    laplace_eta3,
    mellin_eta,
)
from .dedekind import EtaValue, eta, eta_cubed, eta_product, trunc_terms_needed
from .errors import DomainError, NonConvergenceError, PoleError, ToleranceError
from .quad import KernelSpec, QuadResult, integrate, integrate_glaisher, integrate_rhs_aux
from .verify import (
    IdentityRecord,
    IdentitySpec,
    VerificationReport,
    default_registry,
    run_suite,
    transform_pair_check,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PoleError",
    "ToleranceError",
    "NonConvergenceError",
    "EtaValue",
    "eta",
    "eta_cubed",
    "eta_product",
    "trunc_terms_needed",
    "KernelSpec",
    "QuadResult",
    "integrate",
    "integrate_glaisher",
    "integrate_rhs_aux",
    "closed_form",
    "laplace_eta",
    "laplace_eta3",
    "mellin_eta",
    "fourier_cos_eta",
    "fourier_sin_eta",
    "IdentitySpec",
    "IdentityRecord",
    "VerificationReport",
    "default_registry",
    "verify_identity",
    "transform_pair_check",
    "run_suite",
    "backend_name",
]


def backend_name() -> str:
    """Which kernel backend is active: "compiled" or "python"."""
    return _BACKEND
