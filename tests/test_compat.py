"""Pair verdicts: almost compatible / compatible / flat pencil, and the
flat-coordinate constructions."""

import numpy as np
import pytest

from flatpencil import compat, expr, geometry
from flatpencil.compat import (
    _Worst,
    MetricPair,
    associativity_residual,
    check_almost_compatible,
    check_compatible,
    check_constant_curvature,
    check_flat_pencil,
    dubrovin_construct_and_check,
    full_report,
    grid_points,
    mokhov_bracket_metric,
    sample_points,
)
from flatpencil.errors import DegenerateMetric
from flatpencil.geometry import (
    CONTRAVARIANT,
    GeometryJet,
    MetricField,
    degenerate,
    geometry_jet,
    linear_combination,
    member_jet,
)

PTS = sample_points(2, 8, seed=11, lo=0.3, hi=1.8)
EYE2 = MetricField.from_constant(np.eye(2))


def conformal_pair():
    e = expr.parse("exp(u1*u2)", 2)
    return MetricField.diagonal([e, e]), EYE2


class TestAlmostCompatible:
    def test_conformal_counterexample_is_almost_compatible(self):
        g1, g2 = conformal_pair()
        r = check_almost_compatible(MetricPair(g1, g2, PTS))
        assert r.passed
        assert r.max_residuals["nijenhuis"] < 1e-12
        assert r.max_residuals["M"] < 1e-12

    def test_diagonal_pair_is_almost_compatible(self):
        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        r = check_almost_compatible(MetricPair(g1, EYE2, PTS))
        assert r.passed

    def test_generic_nondiagonal_pair_fails_both_routes(self):
        # the two residual routes (M directly, and lowered Nijenhuis) agree
        g1 = MetricField.from_upper(
            {(0, 0): expr.parse("2+u1", 2), (0, 1): expr.parse("u1*u2", 2),
             (1, 1): expr.parse("3+u2", 2)},
            CONTRAVARIANT,
        )
        g2 = MetricField.from_upper(
            {(0, 0): expr.parse("2", 2), (0, 1): expr.parse("u2", 2),
             (1, 1): expr.parse("4+u1", 2)},
            CONTRAVARIANT,
        )
        r = check_almost_compatible(MetricPair(g1, g2, PTS))
        assert not r.passed
        assert r.max_residuals["nijenhuis"] > 1e-4
        assert r.max_residuals["M"] > 1e-4

    def test_degenerate_metric_reported(self):
        g1 = MetricField.diagonal([expr.parse("u1-1", 2), expr.parse("1", 2)])
        with pytest.raises(DegenerateMetric):
            check_almost_compatible(MetricPair(g1, EYE2, [[1.0, 0.5]]))


class TestCompatible:
    def test_constant_conformal_pair(self):
        g1 = MetricField.from_constant(3.0 * np.eye(2))
        r = check_compatible(MetricPair(g1, EYE2, PTS))
        assert r.passed

    def test_conformal_counterexample_fails_curvature_linearity(self):
        g1, g2 = conformal_pair()
        r = check_compatible(MetricPair(g1, g2, PTS))
        assert not r.passed
        assert r.max_residuals["gamma_linearity"] < 1e-12
        assert r.max_residuals["curvature_linearity"] > 1e-2

    def test_diagonal_pair_compatible(self):
        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        r = check_compatible(MetricPair(g1, EYE2, PTS))
        assert r.passed
        # compatibility implies almost compatibility in the same report
        assert r.max_residuals["nijenhuis"] < 1e-8

    def test_gamma_linearity_sample_independent(self):
        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        r_a = check_compatible(
            MetricPair(g1, EYE2, PTS, lambda_samples=[(1.0, 1.0)])
        )
        r_b = check_compatible(
            MetricPair(g1, EYE2, PTS, lambda_samples=[(2.0, 3.0)])
        )
        assert r_a.passed and r_b.passed

    def test_empty_lambda_samples_rejected(self):
        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        with pytest.raises(ValueError, match="lambda_samples"):
            MetricPair(g1, EYE2, PTS, lambda_samples=[])
        pair = MetricPair(g1, EYE2, PTS, lambda_samples=((1.0, 1.0),))
        assert pair.lambda_samples == [(1.0, 1.0)]


class TestFlatPencil:
    def test_diagonal_pair_is_flat_pencil(self):
        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        r = check_flat_pencil(MetricPair(g1, EYE2, PTS))
        assert r.passed

    def test_conformal_counterexample_is_not(self):
        g1, g2 = conformal_pair()
        assert not check_flat_pencil(MetricPair(g1, g2, PTS)).passed

    def test_full_report_nesting(self):
        g1, g2 = conformal_pair()
        rep = full_report(MetricPair(g1, g2, PTS))
        assert rep.almost_compatible
        assert not rep.compatible
        assert not rep.flat_pencil
        # equal eigenvalues everywhere: singular pair
        assert not rep.nonsingular

    def test_full_report_on_small_scale_constant_pair(self):
        # both metrics are nondegenerate at any scale: no DegenerateMetric
        g1 = MetricField.from_constant(np.diag([1e-6, 3e-6]))
        g2 = MetricField.from_constant(2e-6 * np.eye(2))
        rep = full_report(MetricPair(g1, g2, PTS))
        assert rep.almost_compatible and rep.compatible
        assert rep.flat_pencil and rep.nonsingular


class TestSinglePass:
    def test_full_report_one_jet_per_metric_and_member(self, monkeypatch,
                                                       count_calls):
        # members come from the entry jets of g1 and g2: each entry of the
        # two metrics is evaluated once per point, and no member expression
        # is built
        calls = count_calls(expr.ScalarField, "eval_jet")
        combined = []
        monkeypatch.setattr(geometry, "linear_combination",
                            lambda *args: combined.append(args))
        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        pair = MetricPair(g1, EYE2, PTS)
        full_report(pair)
        entries = [g.entries[i][j] for g in (g1, EYE2)
                   for i in range(2) for j in range(i, 2)]
        assert len({id(e) for e in entries}) == 6
        # EYE2's literal entries are written directly, never evaluated
        evaluated = [e for e in entries if not isinstance(e.ast, expr.Const)]
        assert len(evaluated) == 2
        assert len(calls) == 2 * len(PTS)
        assert all(calls.count(e) == len(PTS) for e in evaluated)
        assert combined == [] and "linear_combination" not in vars(compat)

    def test_members_evaluated_only_from_compatible_on(self):
        # g1 + g2 = 0 is the degenerate member lambda = (1, 1)
        g2 = MetricField.from_constant(-np.eye(2))
        pair = MetricPair(EYE2, g2, PTS)
        assert check_almost_compatible(pair).passed
        with pytest.raises(DegenerateMetric,
                           match=r"pencil member lambda=\(1\.0, 1\.0\)"):
            check_compatible(pair)


def nondiagonal_3d_pair():
    texts1 = {(0, 0): "2+u1*u2", (0, 1): "0.3*sin(u3)", (0, 2): "u1^2/5",
              (1, 1): "3+exp(u2/4)", (1, 2): "0.2*u1*u3", (2, 2): "4+u3^2"}
    texts2 = {(0, 0): "1+u2", (0, 1): "0.1*u1*u2", (0, 2): "0.2",
              (1, 1): "2+cos(u1)", (1, 2): "u3/7", (2, 2): "3+ln(1+u1)"}
    return [MetricField.from_upper({ij: expr.parse(t, 3)
                                    for ij, t in texts.items()},
                                   CONTRAVARIANT)
            for texts in (texts1, texts2)]


def jets_equal(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in GeometryJet.__dataclass_fields__)


class TestMembersByLinearity:
    def test_member_jet_equals_expression_route_bit_for_bit(self):
        g1, g2 = nondiagonal_3d_pair()
        lambdas = [(1.0, 1.0), (2.0, -3.0), (0.4 - 1.3j, 0.7 + 0.2j)]
        for p in sample_points(3, 4, seed=5, lo=0.3, hi=1.5):
            E1 = g1.entry_jets(p, 2)
            E2 = g2.entry_jets(p, 2)
            for l1, l2 in lambdas:
                ref = geometry_jet(linear_combination(l1, g1, l2, g2), p)
                assert jets_equal(member_jet(l1, E1, l2, E2, p), ref)

    def test_mokhov_fallback_with_nonzero_b_matches_expression_route(self):
        # g2 = [[2 u1^2, 2 u2 (1 + u1)], [2 u2 (1 + u1), 0]] is degenerate at
        # the origin (first point), so only connection-level linearity
        # against b is checked; the member eta - 0.5 g2 is degenerate where
        # u2 (1 + u1) = 1 (last point) and is skipped there
        eta = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = [expr.parse("u1^2*u2", 2), expr.parse("u2^2", 2)]
        pts = np.vstack([[[0.0, 0.0]], PTS, [[1.0, 0.5]]])
        g2, b_at, r = mokhov_bracket_metric(eta, h, pts)
        assert set(r.max_residuals) == {"gamma_linearity"}
        g1 = MetricField.from_constant(np.linalg.inv(eta))
        ref = _Worst()
        skipped = []
        for p, b in zip(pts, b_at(pts)):
            assert np.max(np.abs(b)) >= 2.0  # d_2 d_2 h^2 = 2
            for l1, l2 in [(1.0, 0.5), (1.0, -0.5), (2.0, 0.25)]:
                try:
                    jc = geometry_jet(linear_combination(l1, g1, l2, g2), p)
                except DegenerateMetric:
                    skipped.append((p[0], l2))
                    continue
                scale = 1.0 + max(np.max(np.abs(b)),
                                  np.max(np.abs(jc.gamma_contra)))
                ref.update("gamma_linearity",
                           np.max(np.abs(jc.gamma_contra + l2 * b)) / scale,
                           p)
        assert skipped == [(1.0, -0.5)]
        assert r.max_residuals == ref.res
        assert np.array_equal(r.witnesses["gamma_linearity"],
                              ref.wit["gamma_linearity"])


def constant_curvature_by_point(g, K, points):
    """Reference: check_constant_curvature as a loop over the points."""
    eye = np.eye(g.dim)
    pattern = K * (
        np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )
    w = _Worst()
    for p in np.atleast_2d(np.asarray(points)):
        R = geometry_jet(g, p).riemann_upup
        w.update("constant_curvature",
                 np.max(np.abs(R - pattern)) / (1.0 + abs(K)), p)
    return w


SPHERE = MetricField.diagonal(
    [expr.parse("1", 2), expr.parse("1/sin(u1)^2", 2)])


class TestConstantCurvature:
    @pytest.mark.parametrize("g, K, pts", [
        (SPHERE, 1.0, PTS),
        (SPHERE, 2.0, PTS),
        (SPHERE, 1.0, PTS[3]),
        (MetricField.diagonal([expr.parse("exp(u1*u2)", 2),
                               expr.parse("1+u2^2", 2)]), 0.5, PTS),
    ])
    def test_batch_equals_point_loop(self, g, K, pts):
        r = check_constant_curvature(g, K, pts)
        ref = constant_curvature_by_point(g, K, pts)
        assert r.max_residuals == ref.res
        assert np.array_equal(r.witnesses["constant_curvature"],
                              ref.wit["constant_curvature"])

    def test_degenerate_point_as_in_point_loop(self):
        g = MetricField.diagonal([expr.parse("u1-1", 2), expr.parse("1", 2)])
        pts = PTS.copy()
        pts[[2, 5], 0] = 1.0
        with pytest.raises(DegenerateMetric) as batch:
            check_constant_curvature(g, 1.0, pts)
        with pytest.raises(DegenerateMetric) as loop:
            constant_curvature_by_point(g, 1.0, pts)
        assert np.array_equal(batch.value.point, loop.value.point)
        assert np.array_equal(batch.value.point, pts[2])
        assert batch.value.absdet == loop.value.absdet

    def test_flat_metric(self):
        r = check_constant_curvature(EYE2, 0.0, PTS)
        assert r.passed

    def test_sphere(self):
        g = MetricField.diagonal(
            [expr.parse("1", 2), expr.parse("1/sin(u1)^2", 2)]
        )
        r = check_constant_curvature(g, 1.0, [[0.8, 0.3], [1.2, 1.0]])
        assert r.max_residuals["constant_curvature"] < 1e-8

    def test_wrong_k_detected(self):
        g = MetricField.diagonal(
            [expr.parse("1", 2), expr.parse("1/sin(u1)^2", 2)]
        )
        r = check_constant_curvature(g, 2.0, [[0.8, 0.3]])
        assert not r.passed


class TestDubrovinConstruction:
    def test_linear_field_gives_flat_pencil(self):
        eta = np.eye(2)
        f = [expr.parse("2*u1+u2", 2), expr.parse("u1-u2", 2)]
        _, r = dubrovin_construct_and_check(eta, f, 3.0, PTS)
        assert r.passed
        assert r.max_residuals["quadratic"] == 0.0
        assert r.max_residuals["mixed"] == 0.0

    def test_potential_ansatz_gives_flat_pencil(self):
        eta = np.eye(2)
        phi = expr.parse("(u1^3 + 3*u1*u2^2)/6", 2)
        f = [phi.partial(0), phi.partial(1)]
        _, r = dubrovin_construct_and_check(eta, f, 4.0, PTS)
        assert r.passed

    def test_random_field_violating_quadratic_condition_fails(self):
        eta = np.eye(2)
        f = [expr.parse("u1^2*u2", 2), expr.parse("u2^3", 2)]
        _, r = dubrovin_construct_and_check(eta, f, 6.0, PTS)
        assert r.max_residuals["quadratic"] > 1e-2
        assert not r.passed


class TestBracketMetric:
    def test_identity_h(self):
        eta = np.eye(2)
        h = [expr.parse("u1", 2), expr.parse("u2", 2)]
        g2, b_at, r = mokhov_bracket_metric(eta, h, PTS)
        assert g2.values(PTS[0]) == pytest.approx(2 * np.eye(2))
        assert r.passed

    def test_gradient_ansatz_compatible(self):
        eta = np.eye(2)
        h = [expr.parse("(u1^2+u2^2)/2", 2), expr.parse("u1*u2", 2)]
        _, _, r = mokhov_bracket_metric(eta, h, PTS)
        assert r.passed

    def test_degenerate_g2_falls_back_to_connection_check(self):
        eta = np.eye(2)
        h = [expr.parse("u1", 2), expr.parse("0", 2)]  # g2 = diag(2, 0)
        _, b_at, r = mokhov_bracket_metric(eta, h, PTS)
        assert "gamma_linearity" in r.max_residuals
        assert r.passed  # b = 0 and all combos constant

    def test_scaled_near_degenerate_g2_falls_back(self):
        # g2 = 1000 * [[1, 1], [1, 1 + 2.5e-11]]: |det| = 5e-5 is tiny for
        # entries near 1e3, so g2 is degenerate by the rule of
        # geometry.degenerate, and the check takes the connection-level
        # fallback instead of raising DegenerateMetric from the full check
        eta = np.eye(2)
        h = [expr.parse("500*u1+500*u2", 2),
             expr.parse("500*u1+500.000000025*u2", 2)]
        pts = sample_points(2, 4, seed=1)
        g2, _, r = mokhov_bracket_metric(eta, h, pts)
        V = g2.values(pts)
        assert np.abs(np.linalg.det(V)).min() > 1e-10
        assert degenerate(V)[0].all()
        assert set(r.max_residuals) == {"gamma_linearity"}
        assert r.passed  # h is linear: b = 0 and every member is constant

    def test_degenerate_sampled_member_falls_back(self):
        # g2 = -eta is nondegenerate, but the sampled member eta + g2 is 0
        h = [expr.parse("-u1/2", 2), expr.parse("-u2/2", 2)]
        _, _, r = mokhov_bracket_metric(np.eye(2), h,
                                        sample_points(2, 4, seed=1))
        assert r.max_residuals == {"gamma_linearity": 0.0}
        assert r.passed

    def test_degenerate_at_every_member_names_the_point(self):
        # g2 = diag(-2, 2, -8 u3) is degenerate where u3 = 0; the members
        # eta + g2/2 and eta - g2/2 are degenerate everywhere and
        # 2 eta + g2/4 where u3 = 1, so no member is left at the second point
        eta = np.eye(3)
        h = [expr.parse("-u1", 3), expr.parse("u2", 3),
             expr.parse("-2*u3^2", 3)]
        pts = np.array([[0.5, 0.7, 0.0], [0.6, 0.9, 1.0]])
        with pytest.raises(DegenerateMetric, match="all pencil samples") as e:
            mokhov_bracket_metric(eta, h, pts)
        assert np.array_equal(e.value.point, pts[1])

    def test_random_h_matches_direct_check(self):
        eta = np.eye(2)
        h = [expr.parse("u1^2+u2", 2), expr.parse("u1+u2^3", 2)]
        g2, _, r = mokhov_bracket_metric(eta, h, PTS)
        direct = check_compatible(
            MetricPair(MetricField.from_constant(np.eye(2)), g2, PTS)
        )
        assert r.passed == direct.passed


class TestAssociativity:
    def test_quadratic_potential(self):
        eta = np.eye(2)
        assert associativity_residual(eta, expr.parse("u1^2+u1*u2", 2), PTS) == 0.0

    def test_cubic_solution(self):
        eta = np.eye(2)
        phi = expr.parse("(u1^3 + 3*u1*u2^2)/6", 2)
        assert associativity_residual(eta, phi, PTS) < 1e-14

    def test_generic_cubic_fails_and_predicts_pencil(self):
        eta = np.eye(2)
        phi = expr.parse("u1^3 + u2^4 + u1*u2", 2)
        assert associativity_residual(eta, phi, PTS) > 1e-3


class TestWorstResidual:
    def test_nonfinite_residual_wins_and_stays(self):
        for bad in (float("nan"), float("inf")):
            w = _Worst()
            w.update("r", 1e-12, [0.0])
            w.update("r", bad, [1.0])
            w.update("r", 0.5, [2.0])
            w.update("r", float("nan"), [3.0])
            assert not w.res["r"] < 1e-8
            assert not np.isfinite(w.res["r"])
            assert w.wit["r"].tolist() == [1.0]

    def test_batch_nonfinite_row_wins_and_stays(self):
        pts = np.arange(10.0).reshape(5, 2)
        w = _Worst()
        w.update("r", [0.1, 3.0, np.nan, np.inf, 0.2], pts)
        assert np.isnan(w.res["r"]) and w.wit["r"].tolist() == [4.0, 5.0]
        w.update("r", [5.0, np.inf], pts[:2])
        w.update("r", 7.0, [9.0, 9.0])
        assert np.isnan(w.res["r"]) and w.wit["r"].tolist() == [4.0, 5.0]

    def test_batch_ties_keep_first_row(self):
        pts = np.arange(8.0).reshape(4, 2)
        w = _Worst()
        w.update("r", [0.5, 2.0, 1.0, 2.0], pts)
        assert w.res["r"] == 2.0 and w.wit["r"].tolist() == [2.0, 3.0]
        w.update("r", [2.0, 1.0], pts[2:])
        assert w.wit["r"].tolist() == [2.0, 3.0]
        w.update("r", [1.0, 2.5], pts[2:])
        assert w.res["r"] == 2.5 and w.wit["r"].tolist() == [6.0, 7.0]


class TestSampling:
    def test_grid_points_shape(self):
        pts = grid_points(2, 5, 0.2, 2.0)
        assert pts.shape == (25, 2)

    def test_min_separation(self):
        pts = sample_points(2, 30, seed=3, min_sep=0.2)
        assert np.all(np.abs(pts[:, 0] - pts[:, 1]) >= 0.2)

    def test_seed_determinism(self):
        a = sample_points(3, 5, seed=9)
        b = sample_points(3, 5, seed=9)
        assert np.array_equal(a, b)
