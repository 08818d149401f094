"""Two-component diagonal models, constant-curvature pencils, and the
conformally Euclidean checkers."""

import numpy as np
import pytest

from flatpencil import expr
from flatpencil.compat import (
    MetricPair,
    _Worst,
    check_almost_compatible,
    check_compatible,
    check_flat_pencil,
    full_report,
    sample_points,
)
from flatpencil.errors import DegenerateMetric, DomainError
from flatpencil.geometry import CONTRAVARIANT, MetricField, geometry_jet
from flatpencil.twocomp import (
    TwoCompModel,
    assemble_two_metrics,
    check_lequa,
    check_sys,
    constant_curvature_pencil,
    harmonic_flatness,
    liouville_check,
)

F_U1 = expr.parse("u1", 1)

# points kept strictly on the u1 > u2 side of the singular line
_raw = sample_points(2, 10, seed=7, lo=0.3, hi=2.0, min_sep=0.3)
PTS = np.column_stack([np.max(_raw, axis=1) + 0.2, np.min(_raw, axis=1)])


def log_model(c, eps1=-1, eps2=1):
    if c == 0.5:
        b = expr.parse("sqrt(u1-u2)", 2)
    else:
        b = expr.parse(f"(u1-u2)^{int(c)}", 2)
    F = expr.parse(f"({c})*ln(u1-u2)", 2)
    return TwoCompModel(b, b, F, eps1, eps2, F_U1, F_U1)


class TestModelValidation:
    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            TwoCompModel(
                expr.parse("1", 2), expr.parse("1", 2), expr.parse("0", 2),
                2, 1, F_U1, F_U1,
            )

    def test_f_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            TwoCompModel(
                expr.parse("1", 2), expr.parse("1", 2), expr.parse("0", 2),
                1, 1, expr.parse("u1", 2), F_U1,
            )


class TestSys:
    def test_log_potential_solves_system(self):
        for c in (0.5, 1.0, 2.0):
            r = check_sys(log_model(c), PTS)
            assert r.max_residuals["sys"] < 1e-12

    def test_constant_b_constant_F(self):
        m = TwoCompModel(
            expr.parse("2", 2), expr.parse("3", 2), expr.parse("5", 2),
            1, 1, F_U1, F_U1,
        )
        assert check_sys(m, PTS).max_residuals["sys"] == 0.0

    def test_mismatched_b_detected(self):
        m = TwoCompModel(
            expr.parse("u1-u2", 2), expr.parse("1", 2),
            expr.parse("ln(u1-u2)", 2), -1, 1, F_U1, F_U1,
        )
        assert check_sys(m, PTS).max_residuals["sys"] > 1e-2


class TestLequa:
    def test_log_potential_with_coordinate_f(self):
        r = check_lequa(log_model(0.5), PTS)
        assert r.max_residuals["lequa"] < 1e-12

    def test_known_value_for_product_potential(self):
        # F = u1*u2, f = (u1, u2): 2(u1-u2) + u1 - u2 = 3(u1-u2)
        m = TwoCompModel(
            expr.parse("1", 2), expr.parse("1", 2), expr.parse("u1*u2", 2),
            1, 1, F_U1, F_U1,
        )
        r = check_lequa(m, [[2.0, 1.0]])
        assert r.max_residuals["lequa"] == pytest.approx(3.0)

    def test_shifted_log_fails_with_unshifted_f(self):
        b = expr.parse("sqrt(u1-u2+3)", 2)
        F = expr.parse("0.5*ln(u1-u2+3)", 2)
        m = TwoCompModel(b, b, F, -1, 1, F_U1, F_U1)
        assert check_sys(m, PTS).max_residuals["sys"] < 1e-12
        assert check_lequa(m, PTS).max_residuals["lequa"] > 1e-3


class TestVerdicts:
    def mismatched(self):
        return TwoCompModel(
            expr.parse("sqrt(u1-u2)*u1", 2), expr.parse("u2+1", 2),
            expr.parse("u1*u2^2", 2), -1, 1, F_U1, expr.parse("u1^2", 1),
        )

    def test_mismatched_model_fails(self):
        m = self.mismatched()
        assert check_sys(m, PTS).max_residuals["sys"] > 1.0
        assert check_lequa(m, PTS).max_residuals["lequa"] > 1.0
        assert not check_sys(m, PTS).passed
        assert not check_lequa(m, PTS).passed
        # the tolerance is the caller's
        assert check_sys(m, PTS, tol=1e3).passed
        assert check_lequa(m, PTS, tol=1e3).passed

    def test_log_model_passes(self):
        m = log_model(0.5)
        assert check_sys(m, PTS).passed and check_lequa(m, PTS).passed

    def test_nan_residual_fails(self, monkeypatch):
        m = log_model(0.5)
        real = expr.ScalarField.eval_jet

        def nan_grad(self, point, order=3):
            jet = real(self, point, order)
            if self is m.F:
                jet.grad = np.full_like(jet.grad, np.nan)
            elif isinstance(self.ast, expr.Stack):  # check_sys: b1, b2, F
                jet.grad = jet.grad.copy()
                jet.grad[self.ast.fields.index(m.F)] = np.nan
            return jet

        monkeypatch.setattr(expr.ScalarField, "eval_jet", nan_grad)
        for r, name in ((check_sys(m, PTS), "sys"),
                        (check_lequa(m, PTS), "lequa")):
            assert np.isnan(r.max_residuals[name])
            assert not r.passed


class TestBatchedEvaluation:
    def test_each_field_evaluated_once(self, count_calls, monkeypatch):
        calls = count_calls(expr.ScalarField, "eval_jet")
        m = log_model(0.5)
        assert m.b1 is m.b2
        nodes = []
        real = expr._eval_node

        def counting(node, ev):
            nodes.append(node)
            return real(node, ev)

        monkeypatch.setattr(expr, "_eval_node", counting)
        sys_check = check_sys(m, PTS)
        check_lequa(m, PTS)
        assert len(PTS) == 10
        # one stacked call of b1, b2, F for sys; one of F, f1, f2 for lequa
        assert len(calls) == 2
        assert calls[0].ast.fields == (m.b1, m.b2, m.F)
        assert calls[1].ast.fields[0] is m.F and len(calls[1].ast.fields) == 3
        # b1 = b2 is one field: the subtree under its sqrt is evaluated once
        assert sum(n is m.b1.ast.arg for n in nodes) == 1
        assert sys_check.max_residuals["sys"] < 1e-12


class TestLequaOneCall:
    """check_lequa evaluates F, f^1(u^1) and f^2(u^2) in one call, bit equal
    to one call per field when all three are real-closed or none is."""

    @staticmethod
    def per_field(m, pts):
        """The lequa residual per point, each field evaluated on its own."""
        jF = m.F.eval_jet(pts, 2)
        f1 = m.f1.eval_jet(pts[:, :1], 1)
        f2 = m.f2.eval_jet(pts[:, 1:], 1)
        return np.abs(2 * jF.hess[:, 0, 1] * (f1.value - f2.value)
                      + jF.grad[:, 1] * f1.grad[:, 0]
                      - jF.grad[:, 0] * f2.grad[:, 0])

    @pytest.mark.parametrize("texts", [
        ("u1*u2^2+exp(u1-u2)", "u1^2+1", "3*u1/(1+u1)"),
        ("ln(1+u1*u2)", "sqrt(u1+1)", "ln(u1+2)"),
    ])
    def test_one_call_bit_equal(self, texts, count_calls):
        F, f1, f2 = texts
        b = expr.parse("1+u1*u2", 2)
        m = TwoCompModel(b, b, expr.parse(F, 2), -1, 1, expr.parse(f1, 1),
                         expr.parse(f2, 1))
        want = self.per_field(m, PTS)
        calls = count_calls(expr.ScalarField, "eval_jet")
        r = check_lequa(m, PTS, tol=1e3)
        assert len(calls) == 1
        assert r.max_residuals["lequa"].hex() == float(np.max(want)).hex()
        assert np.array_equal(r.witnesses["lequa"], PTS[np.argmax(want)])
        assert r.max_residuals["lequa"] > 1e-3


class TestAssembly:
    def test_metric_entries(self):
        m = log_model(1.0)
        g1, g2 = assemble_two_metrics(m)
        p = [2.0, 0.5]
        d = 1.5
        assert g2.values(p) == pytest.approx(
            np.diag([-1.0 / d**2, 1.0 / d**2])
        )
        assert g1.values(p) == pytest.approx(
            np.diag([-2.0 / d**2, 0.5 / d**2])
        )

    def test_residual_verdict_matches_pair_checker(self):
        # vanishing sys + lequa residuals <=> assembled pair is a flat pencil
        for c, expect in ((0.5, True), (1.0, True)):
            m = log_model(c)
            residual_ok = (
                check_sys(m, PTS).max_residuals["sys"] < 1e-9
                and check_lequa(m, PTS).max_residuals["lequa"] < 1e-9
            )
            g1, g2 = assemble_two_metrics(m)
            flat = check_flat_pencil(MetricPair(g1, g2, PTS)).passed
            assert residual_ok == flat == expect

    def test_failing_potential_fails_both_routes(self):
        b = expr.parse("sqrt(u1-u2+3)", 2)
        F = expr.parse("0.5*ln(u1-u2+3)", 2)
        m = TwoCompModel(b, b, F, -1, 1, F_U1, F_U1)
        g1, g2 = assemble_two_metrics(m)
        assert check_lequa(m, PTS).max_residuals["lequa"] > 1e-3
        assert not check_flat_pencil(MetricPair(g1, g2, PTS)).passed


def pencil_by_point(K, metrics, pts):
    """Reference: the residuals of constant_curvature_pencil as loops over
    the points."""
    eye = np.eye(2)
    pattern = K * (
        np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )
    w = _Worst()
    for n in range(3):
        for p in pts:
            j = geometry_jet(metrics[n], p)
            scale = 1.0 + max(np.max(np.abs(j.g_up)),
                              np.max(np.abs(j.gamma_contra)))
            w.update(f"flatness_G{n}", np.max(np.abs(j.riemann_upup)) / scale,
                     p)
    for p in pts:
        R = geometry_jet(metrics[3], p).riemann_upup
        w.update("curvature_G3", np.max(np.abs(R - pattern)) / (1.0 + abs(K)),
                 p)
    return w


def harmonic_by_point(a, pts):
    """Reference: harmonic_flatness with its curvature half as a loop over
    the points."""
    g = MetricField.diagonal([expr.exp(a), expr.exp(a)], CONTRAVARIANT)
    hess = a.eval_jet(pts, 2).hess
    lap = np.max(np.abs(hess[:, 0, 0] + hess[:, 1, 1]))
    curv = np.max([np.max(np.abs(geometry_jet(g, p).riemann_upup))
                   for p in pts])
    return float(lap), float(curv)


class TestConstantCurvaturePencil:
    @pytest.mark.parametrize("K", [1.0, -1.0, 0.3])
    def test_batch_equals_point_loop(self, K):
        metrics, r = constant_curvature_pencil(K, PTS)
        ref = pencil_by_point(K, metrics, PTS)
        assert r.max_residuals == ref.res
        for key, wit in ref.wit.items():
            assert np.array_equal(r.witnesses[key], wit), key

    @pytest.mark.parametrize("K", [1.0, 2.0, -1.0])
    def test_three_flat_one_curved(self, K):
        metrics, r = constant_curvature_pencil(K, PTS)
        assert len(metrics) == 4
        assert r.passed
        for key, val in r.max_residuals.items():
            assert val < 1e-8, key

    def test_wrong_curvature_detected(self):
        # reuse the K=1 family but check G3 against K=2
        from flatpencil.compat import check_constant_curvature

        metrics, _ = constant_curvature_pencil(1.0, PTS)
        bad = check_constant_curvature(metrics[3], 2.0, PTS)
        assert not bad.passed

    def test_singular_line_rejected(self):
        with pytest.raises(DomainError):
            constant_curvature_pencil(1.0, [[1.0, 1.0]])

    def test_zero_K_rejected(self):
        with pytest.raises(ValueError):
            constant_curvature_pencil(0.0, PTS)


class TestConformalCheckers:
    @pytest.mark.parametrize("text", ["u1^2 - u2^2", "u1^2 + u2^2",
                                      "2*ln(1 + (u1^2+u2^2)/4)"])
    def test_batch_equals_point_loop(self, text):
        a = expr.parse(text, 2)
        assert harmonic_flatness(a, PTS) == harmonic_by_point(a, PTS)

    def test_degenerate_point_as_in_point_loop(self):
        # det = exp(-1600*u1) underflows to zero: the metric is degenerate
        a = expr.parse("-800*u1", 2)
        pts = np.array([[0.5, 0.5], [1.0, 1.0], [2.0, 0.1]])
        with pytest.raises(DegenerateMetric) as batch:
            harmonic_flatness(a, pts)
        with pytest.raises(DegenerateMetric) as loop:
            harmonic_by_point(a, pts)
        assert np.array_equal(batch.value.point, loop.value.point)
        assert batch.value.absdet == loop.value.absdet

    def test_harmonic_a_gives_flat_metric(self):
        a = expr.parse("u1^2 - u2^2", 2)
        lap, curv = harmonic_flatness(a, PTS)
        assert lap < 1e-12
        assert curv < 1e-10

    def test_nonharmonic_a_gives_curvature(self):
        a = expr.parse("u1^2 + u2^2", 2)
        lap, curv = harmonic_flatness(a, PTS)
        assert lap > 1.0
        assert curv > 1e-3

    def test_stereographic_sphere_solves_liouville(self):
        # a = 2 ln(1 + r^2/4) makes exp(a) delta the unit sphere metric
        a = expr.parse("2*ln(1 + (u1^2+u2^2)/4)", 2)
        assert liouville_check(a, 1.0, PTS) < 1e-12
        _, curv = harmonic_flatness(a, PTS)
        assert curv > 1e-3  # constant curvature one, not flat

    def test_wrong_K_has_residual(self):
        a = expr.parse("2*ln(1 + (u1^2+u2^2)/4)", 2)
        assert liouville_check(a, 2.0, PTS) > 0.1


class TestConformalPairProperties:
    def test_nonconstant_harmonic_conformal_pair_only_almost(self):
        # exp(a) delta with harmonic nonconstant a pairs with the identity
        # as almost compatible but not compatible
        a = expr.parse("u1*u2", 2)
        g1 = MetricField.diagonal([expr.exp(a), expr.exp(a)], CONTRAVARIANT)
        g2 = MetricField.from_constant(np.eye(2))
        rep = full_report(MetricPair(g1, g2, PTS))
        assert rep.almost_compatible
        assert not rep.compatible

    def test_constant_conformal_factor_gives_flat_pencil(self):
        g1 = MetricField.from_constant(3.0 * np.eye(2))
        g2 = MetricField.from_constant(np.eye(2))
        assert check_flat_pencil(MetricPair(g1, g2, PTS)).passed

    def test_scalar_profile_times_identity_at_n3(self):
        # b(u) delta vs delta in three components: almost compatible iff the
        # profile is conformal-flat; generic profile stays almost compatible
        b = expr.parse("exp(u1+u2+u3)", 3)
        g1 = MetricField.diagonal([b, b, b], CONTRAVARIANT)
        g2 = MetricField.from_constant(np.eye(3))
        pts3 = sample_points(3, 6, seed=3, lo=0.1, hi=0.8)
        r = check_almost_compatible(MetricPair(g1, g2, pts3))
        assert r.passed
        assert not check_compatible(MetricPair(g1, g2, pts3)).passed
