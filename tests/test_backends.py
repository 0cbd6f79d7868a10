"""Compiled vs pure-Python kernel twins must agree bit for bit."""

import importlib.util
import math
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from etaint import _forms as F
from etaint._backend import available_backends

from conftest import subprocess_env

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
    # panels of these take the Filon rule in t = 1/x, e.g. [0.5, 1] (c = 8, 500)
    (F.FORM_COS_RECIP, 1, 16.0, 0.0),
    (F.FORM_COS_RECIP, 3, 16.0, 0.0),
    (F.FORM_COS_RECIP, 1, 1e3, 0.0),
    (F.FORM_COS_RECIP, 3, 1e3, 0.0),
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


def _same_twice(py, cy, args):
    """Each twin's panel, called twice: all four results are equal (the
    second call of an eta panel reads the memo)."""
    results = [k.panel(*args) for k in (py, cy) for _ in range(2)]
    return results.count(results[0]) == 4


@needs_compiled
class TestTwins:
    def test_eta_points_match(self):
        py, cy = _BACKENDS["python"], _BACKENDS["compiled"]
        for x in XS:
            assert py.eta_point(x) == cy.eta_point(x)
            assert py.eta3_point(x) == cy.eta3_point(x)

    @pytest.mark.parametrize("form,n,p1,p2", CASES)
    def test_integrands_match(self, form, n, p1, p2):
        py, cy = _BACKENDS["python"], _BACKENDS["compiled"]
        for x in XS:
            assert py.integrand(form, n, p1, p2, x) == cy.integrand(form, n, p1, p2, x), x

    def test_seeded_sweep_matches(self):
        # Off-grid points catch rounding-order slips that the grid misses:
        # regrouping c * (2n+1) * (2n+1) changes about 1 eta value in 4000.
        py, cy = _BACKENDS["python"], _BACKENDS["compiled"]
        rng = random.Random(20240)
        for _ in range(20_000):
            x = 10 ** rng.uniform(-2.0, 2.0)
            assert py.eta_point(x) == cy.eta_point(x), x
            assert py.eta3_point(x) == cy.eta3_point(x), x
        for _ in range(2_000):
            form, n, p1, p2 = rng.choice(CASES)
            x = 10 ** rng.uniform(-6.0, 2.6)
            args = (form, n, p1, p2, x, x * (1.0 + rng.random()))
            assert py.integrand(*args[:5]) == cy.integrand(*args[:5]), args
            assert _same_twice(py, cy, args), args
        # cos/sin panels on both sides of the Filon switch c = p1 (b - a)/2 > 3
        # and of the moments' switch from the boundary-value solve to the
        # forward recurrence at c = 14: GK15, solved and forward Filon panels.
        rules = [0, 0, 0]
        for _ in range(2_000):
            form = rng.choice((F.FORM_COS, F.FORM_SIN))
            n = rng.choice((1, 3))
            p1 = 10 ** rng.uniform(0.0, 6.0)
            a = 10 ** rng.uniform(-12.0, 0.0)
            args = (form, n, p1, 0.0, a, a + 10 ** rng.uniform(-4.0, 0.0))
            c = p1 * 0.5 * (args[5] - a)
            rules[(c > 3.0) + (c > 14.0)] += 1
            assert _same_twice(py, cy, args), args
        assert min(rules) > 150, rules
        # cos_recip panels on both sides of the same switches, at
        # c = p1 (1/a - 1/b)/2 in t = 1/x.
        rules = [0, 0, 0]
        for _ in range(2_000):
            n = rng.choice((1, 3))
            p1 = 10 ** rng.uniform(-2.0, 5.0)
            a = 10 ** rng.uniform(-6.0, 1.5)
            args = (F.FORM_COS_RECIP, n, p1, 0.0, a, a * (1.0 + 10 ** rng.uniform(-3.0, 0.0)))
            c = p1 * 0.5 * (1.0 / a - 1.0 / args[5])
            rules[(c > 3.0) + (c > 14.0)] += 1
            assert _same_twice(py, cy, args), args
        assert min(rules) > 150, rules

    @pytest.mark.parametrize("form,n,p1,p2", CASES)
    def test_panels_match(self, form, n, p1, p2):
        py, cy = _BACKENDS["python"], _BACKENDS["compiled"]
        for a, b in [(0.0, 0.25), (1e-12, 0.25), (0.5, 1.0), (2.0, 4.0), (8.0, 16.0)]:
            assert _same_twice(py, cy, (form, n, p1, p2, a, b)), (a, b)


# The parameters at which the CLI's weights overflow (A8 and A10 at
# a = 1e300, A9 at b = 1e307) and the largest double, at abscissae down to
# 0: the pure weights raise there where C returns inf or NaN.  Panels the
# quadrature can form (near its lower limit and below 1), panels where
# x^{3/2} underflows in eta^3 (from x = 1e-216), and panels where a Filon
# rule's p1 centr or c overflows (cos, sin and cos_recip).
_HUGE = (1e300, 1e307, sys.float_info.max)
_EDGE_XS = [0.0, 5e-324, 1e-300] + XS + [1e300]
_EDGE_PANELS = [(0.0, 0.25), (1e-12, 2e-12), (0.5, 1.0), (1e-300, 2e-300), (5e-324, 1e-323),
                (1e300, 1.5e300), (1e300, sys.float_info.max)]


def _outcome(f, *args):
    """repr of f(*args) (equal for two NaNs, not for 0.0 and -0.0), or the
    type of the exception it raises."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc)


@needs_compiled
@pytest.mark.parametrize("name", sorted(F.FORMS))
def test_twins_match_at_overflowing_parameters(name):
    py, cy = _BACKENDS["python"], _BACKENDS["compiled"]
    row = F.FORMS[name]
    p1s = [p for p in _HUGE + (0.0,) if row.a_min is None or p > row.a_min or
           p == row.a_min and not row.a_open]
    if row.a_min is None:
        p1s += [-p for p in _HUGE]
    cases = [case for case in CASES if case[0] == row.id]
    for p1 in p1s:
        for p2 in sorted({p2 for _, _, _, p2 in cases}):
            for x in _EDGE_XS:
                args = (row.id, p1, p2, x)
                assert _outcome(py.kernel_weight, *args) == _outcome(cy.kernel_weight, *args), args
            for n in sorted({n for _, n, _, _ in cases}):
                for a, b in _EDGE_PANELS:
                    args = (row.id, n, p1, p2, a, b)
                    assert _outcome(py.panel, *args) == _outcome(cy.panel, *args), args


def test_filon_rule_gives_nan_where_its_frequency_overflows():
    # p1 centr = 1.25e600 and c = 2.5e599 overflow: C's cos/sin(inf) is NaN
    py = _BACKENDS["python"]
    value, err, _ = py.panel(F.FORM_COS, 1, 1e300, 0.0, 1e300, 1.5e300)
    assert math.isnan(value) and math.isnan(err)
    # in t = 1/x: c = 1e300 (1e300 - 5e299)/2 overflows
    value, err, _ = py.panel(F.FORM_COS_RECIP, 3, 1e300, 0.0, 1e-300, 2e-300)
    assert math.isnan(value) and math.isnan(err)


def test_weight_table_has_one_function_per_form():
    assert sorted(_BACKENDS["python"]._WEIGHTS) == sorted(row.id for row in F.FORMS.values())


# Distinct eta panels of both rules (Filon: c = p1 (b - a)/2 = 25 forward,
# 5 and 10 solved), then the first ones (evicted) and the last ones (still
# held) again under another weight of the same rule and n: at the same c
# (sin for cos, cos for sin) or at a new one.
_FIRST = [
    (F.FORM_POWER, 1, 0.5), (F.FORM_EXP, 3, 2.0),
    (F.FORM_COS, 1, 5000.0), (F.FORM_SIN, 3, 5000.0),
    (F.FORM_COS, 3, 1000.0), (F.FORM_SIN, 1, 2000.0),
]
_AGAIN = [
    (F.FORM_EXP, 1, 1.5), (F.FORM_POWER, 3, 0.75),
    (F.FORM_SIN, 1, 5000.0), (F.FORM_COS, 3, 7000.0),
    (F.FORM_COS, 3, 1500.0), (F.FORM_COS, 1, 2000.0),
]


def _memo_panels(weights, count):
    # p1 moves with i, so each Filon panel brings a c of its own (up to 12
    # for the solved ones).
    return [
        (form, n, p1 * (1.0 + 1e-4 * i), 0.0, 1e-3 * i, 1e-3 * i + 0.01)
        for i in range(1, count + 1)
        for form, n, p1 in [weights[i % len(weights)]]
    ]


def _fresh(k, queries):
    """k.panel of each query in one fresh interpreter, as repr."""
    probe = (
        f"from etaint import {k.__name__.rsplit('.', 1)[1]} as k\n"
        f"print([k.panel(*args) for args in {queries!r}])"
    )
    return subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env(), capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.strip()


def _filon_c(args):
    form, n, p1, _, a, b = args
    c = p1 * (0.5 * (b - a))
    return c if form in (F.FORM_COS, F.FORM_SIN) and c > 3.0 else None


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_memo_past_capacity_then_requery_matches_a_fresh_process(backend):
    k = _BACKENDS[backend]
    py = _BACKENDS["python"]
    count = py._MEMO_SIZE * 2
    first = _memo_panels(_FIRST, count)
    # Both memos churn: more panels than the panel memo holds, more distinct
    # c than the moments memo holds, small c among them.
    cs = {_filon_c(args) for args in first} - {None}
    assert len(cs) > py._MEMO_SIZE and sum(3.0 < c <= 14.0 for c in cs) > 500
    for args in first:
        k.panel(*args)
        assert len(py._memo) <= py._MEMO_SIZE and len(py._mu_memo) <= py._MEMO_SIZE
    again = _memo_panels(_AGAIN, count)
    again = again[:64] + again[-64:]
    here = [k.panel(*args) for args in again]
    # In reverse order, so that a memo read under the wrong key meets
    # another history there.
    assert repr(here[::-1]) == _fresh(k, again[::-1])


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_one_panel_at_several_frequencies_matches_fresh_processes(backend):
    # The Filon entry of [0.25, 0.5] is memoised at the first c and read at
    # the others: GK15 (c = 1.6), solved (c = 5, 3.125) and forward moments
    # (c = 50, 875), and c = 5 again under sin.
    k = _BACKENDS[backend]
    queries = [
        (form, 3, p1, 0.0, 0.25, 0.5)
        for form, p1 in [(F.FORM_COS, 40.0), (F.FORM_COS, 13.0), (F.FORM_COS, 25.0),
                         (F.FORM_COS, 400.0), (F.FORM_COS, 7000.0), (F.FORM_SIN, 40.0)]
    ]
    here = [k.panel(*args) for args in queries]
    assert [repr(got) for got in here] == [_fresh(k, [args])[1:-1] for args in queries]


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_one_panel_under_every_rule_matches_fresh_processes(backend):
    # [0.25, 0.5] with n = 3 under GK15 (exp; cos_recip at c = 1), Filon
    # (cos, c = 10) and Filon in t = 1/x (cos_recip, c = 10 solved and
    # c = 100 forward; hl = 1 in t): one memo entry per rule, none read
    # under another rule's key.
    k = _BACKENDS[backend]
    queries = [
        (form, 3, p1, 0.0, 0.25, 0.5)
        for form, p1 in [(F.FORM_EXP, 2.0), (F.FORM_COS, 80.0), (F.FORM_COS_RECIP, 10.0),
                         (F.FORM_COS_RECIP, 1.0), (F.FORM_COS_RECIP, 100.0),
                         (F.FORM_SIN, 80.0), (F.FORM_POWER, 0.5)]
    ]
    here = [k.panel(*args) for args in queries]
    assert [repr(got) for got in here] == [_fresh(k, [args])[1:-1] for args in queries]


def test_moments_are_memoised_as_tuples_within_the_cap():
    py = _BACKENDS["python"]
    mu = py._moments(5.5)
    assert isinstance(mu, tuple) and len(mu) == 15
    assert py._moments(5.5) is mu
    for i in range(py._MEMO_SIZE + 100):
        py._moments(3.0 + 1e-3 * (i + 1))
        assert len(py._mu_memo) <= py._MEMO_SIZE


def test_n0_panels_leave_the_memo_untouched():
    py = _BACKENDS["python"]
    py.panel(F.FORM_EXP, 1, 1.0, 0.0, 0.5, 1.0)
    before = dict(py._memo)
    for form, n, p1, p2 in CASES:
        if n == 0:
            for a, b in [(0.0, 0.25), (0.5, 1.0), (2.0, 4.0)]:
                py.panel(form, n, p1, p2, a, b)
    py.panel(F.FORM_COS, 0, 5000.0, 0.0, 0.5, 1.0)  # cos without eta: GK15, no memo
    assert py._memo == before and list(py._memo) == list(before)


def test_every_form_has_a_case_and_a_finite_pure_weight():
    py = _BACKENDS["python"]
    for name, row in F.FORMS.items():
        cases = [case for case in CASES if case[0] == row.id]
        assert cases, f"no twin case for form {name!r}"
        for _, _, p1, p2 in cases:
            for x in XS:
                assert math.isfinite(py.kernel_weight(row.id, p1, p2, x)), (name, x)


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_unknown_form_id_raises(backend):
    k = _BACKENDS[backend]
    calls = [
        lambda: k.kernel_weight(99, 1.0, 0.0, 0.5),
        lambda: k.integrand(99, 1, 1.0, 0.0, 0.5),
        lambda: k.panel(99, 1, 1.0, 0.0, 0.0, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown form id 99"):
            call()


def test_c_source_compiles_warning_free(tmp_path):
    # Runs on a pure-only install too, so a C error cannot hide behind the
    # skipped twin tests: build flags are the interpreter's own, plus -Werror.
    cfg = sysconfig.get_config_var
    cc = shlex.split(cfg("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    source = Path(__file__).resolve().parents[1] / "src" / "etaint" / "_ckernels.c"
    obj = tmp_path / "_ckernels.o"
    target = tmp_path / ("_ckernels" + cfg("EXT_SUFFIX"))
    include = "-I" + sysconfig.get_paths()["include"]
    flags = shlex.split(cfg("CFLAGS")) + shlex.split(cfg("CCSHARED")) + ["-Werror", include]
    for cmd in (
        cc + flags + ["-c", str(source), "-o", str(obj)],
        shlex.split(cfg("LDSHARED")) + [str(obj), "-o", str(target)],
    ):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("_ckernels", target)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.BACKEND_NAME == "compiled"
    # GK15 (c = 0.25), Filon with solved moments (c = 10) and forward ones
    # (c = 25), and Filon in t = 1/x (c = 8 solved, c = 16 forward)
    for args in [(F.FORM_COS, 1, 5.0, 0.0, 0.1, 0.2), (F.FORM_SIN, 3, 80.0, 0.0, 0.25, 0.5),
                 (F.FORM_COS, 1, 5000.0, 0.0, 0.01, 0.02),
                 (F.FORM_COS_RECIP, 1, 8.0, 0.0, 0.25, 0.5),
                 (F.FORM_COS_RECIP, 3, 16.0, 0.0, 0.25, 0.5)]:
        assert mod.panel(*args) == mod.panel(*args) == _BACKENDS["python"].panel(*args)


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
