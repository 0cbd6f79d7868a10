"""Selects the quadrature kernel backend at import time.

The compiled core (the hand-written C module ``_ckernels``) is
preferred; the pure-Python twin is the fallback.  ETAINT_PURE=1 forces
the fallback (useful for testing and benchmarking the two
implementations against each other).
"""

from __future__ import annotations

import os

# _pykernels is imported only when it is the backend in use (or when
# available_backends() lists it), so the compiled backend never pays for it.
if os.environ.get("ETAINT_PURE") == "1":
    from . import _pykernels as _impl
else:
    try:
        from . import _ckernels as _impl  # type: ignore[no-redef]
    except ImportError:
        from . import _pykernels as _impl  # type: ignore[no-redef]

BACKEND = _impl.BACKEND_NAME

eta_point = _impl.eta_point
eta3_point = _impl.eta3_point
kernel_weight = _impl.kernel_weight
panel = _impl.panel


def available_backends() -> dict[str, object]:
    """Map backend name -> kernel module, for tests and benchmarks."""
    from . import _pykernels

    out: dict[str, object] = {"python": _pykernels}
    try:
        from . import _ckernels  # type: ignore[attr-defined]

        out["compiled"] = _ckernels
    except ImportError:
        pass
    return out
