"""Compiled vs pure-Python kernel twins must agree point for point."""

import math

import pytest

from etaint import _forms as F
from etaint._backend import available_backends

_BACKENDS = available_backends()

needs_compiled = pytest.mark.skipif(
    "compiled" not in _BACKENDS, reason="compiled kernel core not built"
)

CASES = [
    (F.FORM_POWER, 1, 0.75, 0.0),
    (F.FORM_POWER, 3, 3.0, 0.0),
    (F.FORM_POWER, 3, -3.0, 0.0),
    (F.FORM_EXP, 3, 2.0, 0.0),
    (F.FORM_COS, 1, 20.0, 0.0),
    (F.FORM_SIN, 3, 5.0, 0.0),
    (F.FORM_EXP_RECIP, 3, 1.0, 0.0),
    (F.FORM_COS_RECIP, 3, 4.0, 0.0),
    (F.FORM_ERF_WEIGHT, 3, 0.25, 0.0),
    (F.FORM_SCALED_ERFC_RECIP, 3, 4.0, 0.0),
    (F.FORM_SHIFTED_RECIP, 3, 1.0, 0.5),
    (F.FORM_SHIFTED_RECIP, 3, 0.5, 1.0),
    (F.FORM_SQRT_SHIFT, 3, 0.0, 0.0),
    (F.FORM_EXP_OVER_X, 3, 0.5, 0.0),
    (F.FORM_IM_RSQRT, 3, 1.0, 0.0),
    (F.FORM_GLAISHER11, 0, 0.0, 0.0),
    (F.FORM_GLAISHER17, 0, 0.0, 0.0),
    (F.FORM_SECH_AUX, 0, 1.0, 1.0),
    (F.FORM_SECH_AUX, 0, 0.0, 0.0),
    (F.FORM_TP_RHS3_U, 0, 1.0, 0.0),
    (F.FORM_TP_RHS3_U, 0, 1.0, 1.0),
    (F.FORM_TP_RHS3_U, 0, 1.0, 2.0),
    (F.FORM_TP_RHS1_U, 0, 1.0, 0.0),
    (F.FORM_TP_RHS1_U, 0, 1.0, 1.0),
    (F.FORM_TP_RHS1_U, 0, 1.0, 2.0),
]
XS = [1e-12, 1e-6, 0.01, 0.3, 0.49999, 0.5, 1.0, 2.7, 10.0, 37.5, 300.0, 400.0]


@needs_compiled
class TestTwins:
    def test_eta_points_match(self):
        py, cy = _BACKENDS["python"], _BACKENDS["compiled"]
        for x in XS:
            assert py.eta_point(x) == pytest.approx(cy.eta_point(x), rel=5e-16, abs=0.0)
            assert py.eta3_point(x) == pytest.approx(cy.eta3_point(x), rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("form,n,p1,p2", CASES)
    def test_integrands_match(self, form, n, p1, p2):
        py, cy = _BACKENDS["python"], _BACKENDS["compiled"]
        for x in XS:
            a = py.integrand(form, n, p1, p2, x)
            b = cy.integrand(form, n, p1, p2, x)
            assert a == pytest.approx(b, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("form,n,p1,p2", CASES)
    def test_panels_match(self, form, n, p1, p2):
        py, cy = _BACKENDS["python"], _BACKENDS["compiled"]
        for a, b in [(0.0, 0.25), (1e-12, 0.25), (0.5, 1.0), (2.0, 4.0), (8.0, 16.0)]:
            vp = py.panel(form, n, p1, p2, a, b)
            vc = cy.panel(form, n, p1, p2, a, b)
            for u, v in zip(vp, vc):
                assert u == pytest.approx(v, rel=1e-13, abs=1e-300)


def test_every_form_has_a_case_and_a_finite_pure_weight():
    py = _BACKENDS["python"]
    for name, row in F.FORMS.items():
        cases = [case for case in CASES if case[0] == row.id]
        assert cases, f"no twin case for form {name!r}"
        for _, _, p1, p2 in cases:
            for x in XS:
                assert math.isfinite(py.kernel_weight(row.id, p1, p2, x)), (name, x)


@needs_compiled
def test_backend_names():
    assert _BACKENDS["python"].BACKEND_NAME == "python"
    assert _BACKENDS["compiled"].BACKEND_NAME == "compiled"


def test_eta_module_consistent_with_backend():
    # the tolerance-certified path and the machine-precision kernel path
    # are independent implementations of the same series
    from etaint import dedekind

    py = _BACKENDS["python"]
    for x in (0.05, 0.3, 1.0, 2.0, 17.0):
        assert dedekind.eta(x, 1e-15).value == pytest.approx(
            py.eta_point(x), rel=1e-13
        )
        assert dedekind.eta_cubed(x, 1e-15).value == pytest.approx(
            py.eta3_point(x), rel=1e-13
        )
