"""Registry contents, verification records, suite behaviour."""

import math
import random

import pytest

from etaint import quad, verify
from etaint.errors import DomainError, NonConvergenceError

from conftest import fourier_rhs_mp


class TestRegistry:
    def test_size_and_ids(self):
        reg = verify.default_registry()
        assert len(reg) >= 20
        ids = [spec.id for spec in reg]
        assert len(set(ids)) == len(ids)
        assert {"EQ5", "EQ7", "EQ9", "EQ11", "EQ13", "EQ16", "A7", "A10", "A15"} <= set(ids)

    def test_anchors_nonempty_unique(self):
        reg = verify.default_registry()
        anchors = [spec.anchor for spec in reg]
        assert all(anchors)
        assert len(set(anchors)) == len(anchors)

    def test_grid_sizes(self):
        reg = {spec.id: spec for spec in verify.default_registry()}
        assert len(reg["EQ7"].param_grid) == 6
        assert len(reg["A15"].param_grid) == 4
        total = sum(len(spec.param_grid) for spec in reg.values())
        assert total >= 60

    def test_a10_flagged_with_note(self):
        reg = {spec.id: spec for spec in verify.default_registry()}
        assert reg["A10"].expected_status == "flagged"
        assert "asymptotic" in reg["A10"].notes
        # every other identity is expected to pass
        assert all(
            spec.expected_status == "pass"
            for spec in reg.values()
            if spec.id != "A10"
        )

    def test_eq16_typo_note(self):
        reg = {spec.id: spec for spec in verify.default_registry()}
        assert "n=0" in reg["EQ16"].notes

    def test_tolerances(self):
        assert all(spec.tol >= 1e-12 for spec in verify.default_registry())


class TestVerifyIdentity:
    def test_a13(self):
        reg = {spec.id: spec for spec in verify.default_registry()}
        rec = verify.verify_identity(reg["A13"], {})
        assert rec.status == "pass"
        assert rec.rhs_value == pytest.approx(2.0 * math.pi / math.sqrt(3.0), rel=1e-15)
        assert rec.abs_residual <= 1e-10

    def test_eq5_at_one(self):
        reg = {spec.id: spec for spec in verify.default_registry()}
        rec = verify.verify_identity(reg["EQ5"], {"t": 1.0})
        assert rec.status == "pass"
        assert rec.abs_residual <= 1e-9

    def test_a10_flagged_nonzero_residual(self):
        reg = {spec.id: spec for spec in verify.default_registry()}
        for point in reg["A10"].param_grid:
            rec = verify.verify_identity(reg["A10"], point)
            assert rec.status == "flagged"
            assert rec.abs_residual > 0.0

    def test_nonconvergence_becomes_fail(self, monkeypatch):
        def boom(*args, **kwargs):
            raise NonConvergenceError("synthetic budget exhaustion")

        monkeypatch.setattr(verify.quad, "integrate", boom)
        reg = {spec.id: spec for spec in verify.default_registry()}
        rec = verify.verify_identity(reg["A14"], {})
        assert rec.status == "fail"
        assert "synthetic budget exhaustion" in rec.note

    @pytest.mark.parametrize("lhs_err", [math.inf, math.nan])
    def test_non_finite_error_estimate_fails(self, lhs_err):
        # max(tol, 10 * inf) would pass any residual
        assert verify._pass_status(1.0, 1e-9, lhs_err) == "fail"
        assert verify._pass_status(0.0, 1e-9, lhs_err) == "fail"
        assert verify._pass_status(0.0, 1e-9, 1e-12) == "pass"

    def test_missing_parameter_is_a_domain_error(self):
        reg = {spec.id: spec for spec in verify.default_registry()}
        with pytest.raises(DomainError, match="EQ5 takes parameters: t; got: none"):
            verify.verify_identity(reg["EQ5"], {})

    @pytest.mark.parametrize("s", [1e-5, 1e-7, 1e-9])
    def test_eq7_small_s(self, s):
        # w = 2s - 1 keeps few digits of s; Gamma(w + 1) must be Gamma(2s)
        reg = {spec.id: spec for spec in verify.default_registry()}
        rec = verify.verify_identity(reg["EQ7"], {"s": s})
        assert rec.status == "pass"
        assert rec.abs_residual <= 1e-10


class TestFourierLargeY:
    """The Fourier identities at y where the quadrature out to the eta
    decay cutoff used to exhaust the evaluation budget, and at the off-grid
    points where its error estimate used to miss the true error."""

    @pytest.mark.parametrize("y", [200.0, 400.0, 2e3, 2e4, 1e5, 1e6])
    @pytest.mark.parametrize("ident", ["EQ8", "EQ10", "A11", "A12"])
    def test_large_y_passes_within_budget(self, ident, y):
        # Filon panels: the work follows eta, not the oscillation, so the
        # count stays bounded at any y
        rec = verify.verify_identity(verify.registry_by_id()[ident], {"y": y})
        assert rec.status == "pass", rec.note
        assert 0 < rec.evals <= 1_500
        assert rec.tail_method == "series-correction"

    @pytest.mark.parametrize("ident", ["EQ8", "EQ10", "A11", "A12"])
    def test_err_est_bounds_the_true_error(self, ident):
        # against the 30-digit right-hand side, not the 10 x err_est pass rule
        rng = random.Random(11)
        # y below 500: panels with 3 < c <= 14 take the Filon rule with solved moments
        ys = [12.2, 24.97, 50.0, 150.0, 500.0, 2e3, 9999.0, 2e4, 1e5, 1e6]
        ys += [10 ** rng.uniform(1.7, 6.0) for _ in range(6)]
        for y in ys:
            rec = verify.verify_identity(verify.registry_by_id()[ident], {"y": y})
            true_err = abs(rec.lhs_value - fourier_rhs_mp(ident, y))
            assert true_err <= rec.lhs_err_est, (y, true_err, rec.lhs_err_est)

    @pytest.mark.parametrize(
        "ident,y",
        [("A12", 112.9), ("A12", 121.2), ("A11", 224.6), ("A11", 252.267),
         ("A11", 281.8), ("A11", 304.4)],
    )
    def test_off_grid_points_pass(self, ident, y):
        reg = {spec.id: spec for spec in verify.default_registry()}
        rec = verify.verify_identity(reg[ident], {"y": y})
        assert rec.status == "pass", (rec.abs_residual, rec.lhs_err_est)


class TestTransformPairs:
    def test_exp_pair_three_way_with_a2(self):
        rec = verify.transform_pair_check("exp", 3, a=1.0, tol=1e-9)
        aux = quad.integrate_rhs_aux("A2_rhs", 1.0, 1e-11)
        assert rec.status == "pass"
        assert rec.abs_residual <= 1e-9
        assert abs(rec.lhs_value - aux.value) <= 1e-9
        assert abs(rec.rhs_value - aux.value) <= 1e-9

    def test_exp_sqrt_pair_three_way_with_a4(self):
        rec = verify.transform_pair_check("exp_sqrt", 3, a=1.0, tol=1e-9)
        aux = quad.integrate_rhs_aux("A4_rhs", 1.0, 1e-11)
        assert rec.status == "pass"
        assert abs(rec.lhs_value - aux.value) <= 1e-9
        assert abs(rec.rhs_value - aux.value) <= 1e-9

    def test_sin_pair_reproduces_a7(self):
        # the Parseval factor: the A7 integrand is sqrt(2) times the
        # inverse-Laplace kernel of sin(t)/sqrt(pi t), so both sides of
        # the pair equal (sqrt(2)-1)/sqrt(2)
        rec = verify.transform_pair_check("sin_sqrt", 3, a=1.0, tol=1e-9)
        target = (math.sqrt(2.0) - 1.0) / math.sqrt(2.0)
        assert rec.status == "pass"
        assert rec.lhs_value == pytest.approx(target, abs=1e-9)
        assert rec.rhs_value == pytest.approx(target, abs=1e-9)
        assert math.sqrt(2.0) * rec.rhs_value == pytest.approx(
            math.sqrt(2.0) - 1.0, abs=1e-9
        )

    @pytest.mark.parametrize("pair", ["exp", "exp_sqrt", "sin_sqrt"])
    def test_pairs_hold_for_eta_power_one(self, pair):
        rec = verify.transform_pair_check(pair, 1, a=1.0, tol=1e-9)
        assert rec.status == "pass"

    def test_bad_pair(self):
        with pytest.raises(Exception):
            verify.transform_pair_check("cosine", 3)


class TestRunSuite:
    def test_default_suite_outcome(self, suite_report):
        counts = suite_report.counts
        assert counts["fail"] == 0
        assert counts["flagged"] == 3  # the three A10 grid points
        assert counts["pass"] >= 60
        # >= 19 identities pass outright, exactly one is flagged
        passing_ids = {r.id for r in suite_report.records if r.status == "pass"}
        flagged_ids = {r.id for r in suite_report.records if r.status == "flagged"}
        assert len(passing_ids) >= 19
        assert flagged_ids == {"A10"}

    def test_flagged_excluded_from_max_residual(self, suite_report):
        flagged_max = max(
            r.abs_residual for r in suite_report.records if r.status == "flagged"
        )
        assert suite_report.max_pass_residual < 1e-8 < flagged_max

    def test_determinism(self):
        reg = [s for s in verify.default_registry() if s.id in ("A13", "EQ5", "A8")]
        rep1 = verify.run_suite(reg)
        rep2 = verify.run_suite(reg)
        for a, b in zip(rep1.records, rep2.records):
            assert a.lhs_value == b.lhs_value
            assert a.rhs_value == b.rhs_value
            assert a.abs_residual == b.abs_residual
            assert a.evals == b.evals
            assert a.status == b.status

    def test_tolerance_monotonicity(self, suite_report):
        loose = verify.run_suite(tol_override=1e-6)
        tight_pass = {
            (r.id, tuple(sorted(r.params.items())))
            for r in suite_report.records
            if r.status == "pass"
        }
        loose_pass = {
            (r.id, tuple(sorted(r.params.items())))
            for r in loose.records
            if r.status == "pass"
        }
        assert tight_pass <= loose_pass

    def test_empty_registry(self):
        rep = verify.run_suite([])
        assert rep.records == ()
        assert rep.counts == {"pass": 0, "fail": 0, "flagged": 0}
        assert rep.max_pass_residual == 0.0
