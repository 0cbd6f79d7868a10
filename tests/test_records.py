"""The result and record classes are immutable named tuples with fixed fields."""

import pytest

from etaint import cli, dedekind, quad, verify
from etaint.quad import KernelSpec


def _record(**overrides):
    fields = dict(
        id="A14", params={}, lhs_value=1.0, lhs_err_est=1e-12, rhs_value=1.0,
        abs_residual=0.0, rel_residual=0.0, status="pass", evals=15, ms=0.1,
    )
    fields.update(overrides)
    return verify.IdentityRecord(**fields)


def _instances():
    return {
        "EtaValue": dedekind.eta(1.0),
        "KernelSpec": KernelSpec("exp", 3, a=1.0),
        "QuadResult": quad.integrate(KernelSpec("exp", 3, a=1.0), 1e-11),
        "IdentitySpec": verify.registry_by_id()["A14"],
        "IdentityRecord": _record(),
        "VerificationReport": verify.VerificationReport(records=(_record(),)),
        "_Options": cli._Options(
            command="run", identities=[], params={}, sweep=None, tol=None,
            fmt="json", output=None,
        ),
    }


@pytest.mark.parametrize("name", list(_instances()))
def test_attribute_assignment_raises(name):
    obj = _instances()[name]
    assert type(obj).__name__ == name
    with pytest.raises(AttributeError):
        setattr(obj, obj._fields[0], None)
    with pytest.raises(AttributeError):
        obj.not_a_field = None


def test_kernel_spec_repr():
    assert repr(KernelSpec("exp", 1)) == "KernelSpec(form='exp', n=1, a=0.0, p=1.0)"


def test_identity_record_keywords_and_defaults():
    assert verify.IdentityRecord._fields == (
        "id", "params", "lhs_value", "lhs_err_est", "rhs_value", "abs_residual",
        "rel_residual", "status", "evals", "ms", "note", "cutoff", "tail_method",
        "lower", "lower_err", "tail_err",
    )
    rec = _record(cutoff=1.0)
    assert (rec.note, rec.cutoff, rec.tail_method) == ("", 1.0, None)
    assert rec.status == "pass" and rec.evals == 15
    assert repr(rec).startswith("IdentityRecord(id='A14', params={}, lhs_value=1.0,")

