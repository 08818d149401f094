"""Pair verdicts: almost compatible / compatible / flat pencil, and the
flat-coordinate constructions."""

import numpy as np
import pytest

from flatpencil import cli, compat, expr, geometry
from flatpencil.compat import (
    _Worst,
    CheckResult,
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
    PencilMembers,
    affinor_from_jets,
    degenerate,
    geometry_jet,
    linear_combination,
    nijenhuis,
    roots_and_gap,
    tensor_M_from_jets,
)
from flatpencil.lame import LameData, assemble_pair
from flatpencil.twocomp import (
    TwoCompModel,
    assemble_two_metrics,
    constant_curvature_pencil,
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
        # members come from the entry jets of g1 and g2: the entries of the
        # two metrics are evaluated together, in one call per point, and no
        # member expression is built
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
        assert len(calls) == len(PTS)
        assert all(c.ast.fields == tuple(evaluated) for c in calls)
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


def parent_mokhov_fallback(eta, g2, b_at, pts):
    """The parent's connection-level fallback of mokhov_bracket_metric, one
    geometry_jet per member built as an expression; returns the residuals
    and the (u1, l2) of each member skipped as degenerate."""
    g1 = MetricField.from_constant(np.linalg.inv(eta))
    ref = _Worst()
    skipped = []
    for p, b in zip(pts, b_at(pts)):
        for l1, l2 in [(1.0, 0.5), (1.0, -0.5), (2.0, 0.25)]:
            try:
                jc = geometry_jet(linear_combination(l1, g1, l2, g2), p)
            except DegenerateMetric:
                skipped.append((p[0], l2))
                continue
            scale = 1.0 + max(np.max(np.abs(b)),
                              np.max(np.abs(jc.gamma_contra)))
            ref.update("gamma_linearity",
                       np.max(np.abs(jc.gamma_contra + l2 * b)) / scale, p)
    return ref, skipped


class TestMembersByLinearity:
    def test_member_jet_equals_expression_route_bit_for_bit(self):
        g1, g2 = nondiagonal_3d_pair()
        # one geometry_jet of the stacked members, at one point or a batch,
        # against one per member with each member built as an expression
        lambdas = [(1.0, 1.0), (2.0, -3.0), (0.4 - 1.3j, 0.7 + 0.2j)]
        pts = sample_points(3, 4, seed=5, lo=0.3, hi=1.5)
        members = PencilMembers(g1, g2, lambdas, ends=True)
        metrics = [g1, g2] + [linear_combination(l1, g1, l2, g2)
                              for l1, l2 in lambdas]
        for p in list(pts) + [pts]:
            jets = geometry_jet(members, p)
            assert jets.g_up.shape[0] == len(metrics)
            for k, g in enumerate(metrics):
                assert jets_equal(jets[k], geometry_jet(g, p))

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
        assert all(np.max(np.abs(b)) >= 2.0  # d_2 d_2 h^2 = 2
                   for b in b_at(pts))
        ref, skipped = parent_mokhov_fallback(eta, g2, b_at, pts)
        assert skipped == [(1.0, -0.5)]
        assert r.max_residuals == ref.res
        assert np.array_equal(r.witnesses["gamma_linearity"],
                              ref.wit["gamma_linearity"])


def parent_flatness(j):
    """The parent's _flatness_residual, per point."""
    lead = j.point.ndim - 1
    scale = 1.0 + np.maximum(compat._abs_max(j.g_up, lead),
                             compat._abs_max(j.gamma_contra, lead))
    return compat._abs_max(j.riemann_upup, lead) / scale


def per_member_reference(pair, depth):
    """The sweep of _pass with one geometry_jet per metric and per member,
    each member built as an expression, and the parent's scales, from
    Python's max."""
    g1, g2 = pair.g1, pair.g2
    lambdas = pair.lambda_samples if depth >= 1 else []
    w = _Worst()
    nonsingular = True
    for p in pair.sample_points:
        j1, j2 = geometry_jet(g1, p), geometry_jet(g2, p)
        scale = 1.0 + max(
            np.max(np.abs(j1.g_up)), np.max(np.abs(j2.g_up)),
            np.max(np.abs(j1.gamma_contra)), np.max(np.abs(j2.gamma_contra)),
        )
        aff = affinor_from_jets(j1, j2)
        w.update("nijenhuis", np.max(np.abs(nijenhuis(aff))) / scale, p)
        w.update("M", np.max(np.abs(tensor_M_from_jets(j1, j2))) / scale, p)
        jets = [((1.0, 0.0), j1), ((0.0, 1.0), j2)]
        for l1, l2 in lambdas:
            jc = geometry_jet(linear_combination(l1, g1, l2, g2), p)
            jets.append(((l1, l2), jc))
            target_g = l1 * j1.gamma_contra + l2 * j2.gamma_contra
            target_r = l1 * j1.riemann_upup + l2 * j2.riemann_upup
            sg = 1.0 + max(np.max(np.abs(jc.gamma_contra)),
                           np.max(np.abs(target_g)))
            sr = 1.0 + max(np.max(np.abs(jc.riemann_upup)),
                           np.max(np.abs(target_r)))
            w.update("gamma_linearity",
                     np.max(np.abs(jc.gamma_contra - target_g)) / sg, p)
            w.update("curvature_linearity",
                     np.max(np.abs(jc.riemann_upup - target_r)) / sr, p)
        if depth >= 2:
            for (l1, l2), j in jets:
                w.update(f"flatness({l1},{l2})", parent_flatness(j), p)
        if depth >= 3:
            nonsingular = nonsingular and roots_and_gap(aff.v)[1] > 1e-6
    return w, nonsingular


def lame_3d_pair():
    one, two = expr.parse("1", 1), expr.parse("2", 1)
    H = [expr.parse(t, 3) for t in ("1", "u1", "u1*sin(u2)")]
    return assemble_pair(LameData(H, [one, one, two]))


def two_component_pair():
    f1 = expr.parse("u1", 1)
    b = expr.parse("sqrt(u1-u2+3)", 2)
    return assemble_two_metrics(TwoCompModel(
        b, b, expr.parse("0.5*ln(u1-u2+3)", 2), -1, 1, f1, f1))


def same_bits(res, ref):
    return (list(res) == list(ref)
            and all(float(res[k]).hex() == float(ref[k]).hex() for k in ref))


class TestStackedMembers:
    @pytest.mark.parametrize("make", [nondiagonal_3d_pair, lame_3d_pair,
                                      two_component_pair])
    @pytest.mark.parametrize("lambdas", [
        [(1.0, 1.0), (2.0, -3.0), (1.0, 0.5)],
        [(0.4 - 1.3j, 0.7 + 0.2j), (1.0, 0.5j), (2.0, 3.0)],
    ])
    def test_all_stages_equal_per_member_reference(self, make, lambdas):
        g1, g2 = make()
        pts = sample_points(g1.dim, 5, seed=8, lo=0.4, hi=1.2)
        pair = MetricPair(g1, g2, pts, lambdas)
        refs = [per_member_reference(pair, depth) for depth in range(4)]
        results = [check_almost_compatible(pair), check_compatible(pair),
                   check_flat_pencil(pair), full_report(pair)]
        for (ref, nonsingular), got in zip(refs, results):
            assert same_bits(got.max_residuals, ref.res)
            assert list(got.witnesses) == list(ref.wit)
            for k, wit in ref.wit.items():
                assert got.witnesses[k].dtype == wit.dtype
                assert np.array_equal(got.witnesses[k], wit)
        res = refs[3][0].res
        almost = all(res[k] < pair.tol for k in ("nijenhuis", "M"))
        linear = all(res[k] < pair.tol
                     for k in ("gamma_linearity", "curvature_linearity"))
        flat = all(v < pair.tol for k, v in res.items()
                   if k.startswith("flatness"))
        assert [r.passed for r in results[:3]] == [
            almost, almost and linear, almost and linear and flat]
        rep = results[3]
        assert (rep.almost_compatible, rep.compatible, rep.flat_pencil,
                rep.nonsingular) == (almost, almost and linear,
                                     almost and linear and flat, refs[3][1])

    def test_members_need_two_contravariant_metrics(self):
        g1, g2 = nondiagonal_3d_pair()
        # a covariant metric is refused where it is built
        with pytest.raises(ValueError, match="contravariant"):
            MetricField(3, "covariant", g2.entries)
        for a, b in ((g1, EYE2), (EYE2, g1)):
            with pytest.raises(ValueError, match="one dimension"):
                PencilMembers(a, b, [(1.0, 1.0)])

    def test_one_geometry_call_per_point(self, monkeypatch):
        calls = []
        real = compat.geometry_jet

        def counting(g, point):
            calls.append(g)
            return real(g, point)

        monkeypatch.setattr(compat, "geometry_jet", counting)
        g1, g2 = nondiagonal_3d_pair()
        pts = sample_points(3, 4, seed=5, lo=0.3, hi=1.5)
        pair = MetricPair(g1, g2, pts)
        for check in (check_almost_compatible, check_compatible,
                      check_flat_pencil, full_report):
            calls.clear()
            check(pair)
            assert len(calls) == len(pts)

    def test_witnesses_are_rows_of_the_sample_points(self):
        g1, g2 = nondiagonal_3d_pair()
        pair = MetricPair(g1, g2, sample_points(3, 6, seed=4, lo=0.3, hi=1.5))
        wit = full_report(pair).witnesses
        assert len(wit) == 10
        for a in wit.values():
            assert np.shares_memory(a, pair.sample_points)
            assert any(np.array_equal(a, p) for p in pair.sample_points)
            # one object per point, shared by every name it witnesses
            assert all(b is a for b in wit.values() if np.array_equal(a, b))

    def test_nan_in_a_scale_fails_closed(self, monkeypatch):
        # a NaN in g2's Christoffel symbols reaches the Nijenhuis residual
        # only through its scale, which Python's max would have dropped
        real = compat.geometry_jet

        def planted(g, point):
            jets = real(g, point)
            jets.gamma_contra[1, 0, 0, 0] = np.nan
            return jets

        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        pair = MetricPair(g1, EYE2, PTS)
        assert check_almost_compatible(pair).passed
        monkeypatch.setattr(compat, "geometry_jet", planted)
        r = check_almost_compatible(pair)
        assert np.isnan(r.max_residuals["nijenhuis"]) and not r.passed
        assert np.array_equal(r.witnesses["nijenhuis"], PTS[0])


class TestMemberDegeneracy:
    # g1 = diag(u1, 2) against g2 = eye: the member l1*g1 + l2*g2 is
    # degenerate where l1*u1 + l2 = 0, and everywhere when 2*l1 + l2 = 0
    G1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("2", 2)])
    PTS = np.array([[0.5, 0.5], [0.8, 0.3], [1.0, 0.4], [1.0, 0.9]])

    @pytest.mark.parametrize("check", [check_almost_compatible,
                                       check_compatible, check_flat_pencil,
                                       full_report])
    def test_degenerate_g1_names_its_point_without_lambda(self, check):
        g1 = MetricField.diagonal([expr.parse("u1-0.8", 2),
                                   expr.parse("1", 2)])
        with pytest.raises(DegenerateMetric) as e:
            check(MetricPair(g1, EYE2, self.PTS, [(1.0, 2.0), (2.0, 3.0)]))
        assert np.array_equal(e.value.point, self.PTS[1])
        assert "pencil member" not in str(e.value)

    @pytest.mark.parametrize("check", [check_compatible, check_flat_pencil,
                                       full_report])
    def test_lambda_on_an_eigenvalue_names_it_and_its_first_point(self,
                                                                  check):
        pair = MetricPair(self.G1, EYE2, self.PTS,
                          [(1.0, 1.0), (1.0, -1.0), (2.0, 3.0)])
        assert check_almost_compatible(pair).passed
        with pytest.raises(DegenerateMetric,
                           match=r"pencil member lambda=\(1\.0, -1\.0\)"
                           ) as e:
            check(pair)
        assert np.array_equal(e.value.point, self.PTS[2])

    @pytest.mark.parametrize("lambdas, named", [
        ([(1.0, 1.0), (1.0, -2.0), (1.0, -1.0)], r"\(1\.0, -2\.0\)"),
        ([(1.0, -1.0), (1.0, -2.0), (1.0, 1.0)], r"\(1\.0, -1\.0\)"),
    ])
    def test_first_degenerate_member_in_sample_order_is_named(self, lambdas,
                                                              named):
        # at the point u1 = 1 both (1, -1) and (1, -2) are degenerate
        pair = MetricPair(self.G1, EYE2, self.PTS[2:], lambdas)
        with pytest.raises(DegenerateMetric, match="lambda=" + named) as e:
            check_compatible(pair)
        assert np.array_equal(e.value.point, self.PTS[2])


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

    def test_fallback_evaluates_g2_once_per_point(self, count_calls):
        # g2 is degenerate at the origin, the first point, so the full check
        # raises there after one order-2 evaluation of g2's 3 entries (one
        # call for all three); the fallback then evaluates them once at
        # order 0 over all points (the degeneracy masks), h's Hessians in
        # one call (b), and g2's entries at order 2 once per point for the
        # kept members' geometry
        calls = count_calls(expr.ScalarField, "eval_jet")
        eta = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = [expr.parse("u1^2*u2", 2), expr.parse("u2^2", 2)]
        pts = np.vstack([[[0.0, 0.0]], PTS, [[1.0, 0.5]]])
        mokhov_bracket_metric(eta, h, pts)
        assert len(calls) == 1 + 1 + 1 + len(pts)

    def test_random_h_matches_direct_check(self):
        eta = np.eye(2)
        h = [expr.parse("u1^2+u2", 2), expr.parse("u1+u2^3", 2)]
        g2, _, r = mokhov_bracket_metric(eta, h, PTS)
        direct = check_compatible(
            MetricPair(MetricField.from_constant(np.eye(2)), g2, PTS)
        )
        assert r.passed == direct.passed


class TestBracketHessiansOneCall:
    """_bracket_hessians evaluates every component of X in one call, bit
    equal to one call per component when all are real-closed or none is."""

    @pytest.mark.parametrize("texts", [("u1^2*u2", "exp(u1-u2)+u2^3"),
                                       ("sqrt(1+u1*u2)", "ln(2+u1)*u2")])
    @pytest.mark.parametrize("pts", [PTS[0], PTS])
    def test_one_call_bit_equal(self, texts, pts, count_calls):
        X = [expr.parse(t, 2) for t in texts]
        eta_up = compat._eta_up(np.array([[0.0, 1.0], [1.0, 0.0]]))
        H_ref = np.stack([x.eval_jet(pts, 2).hess for x in X], axis=-3)
        D_ref = np.einsum("is,...jks->...ijk", eta_up, H_ref)
        calls = count_calls(expr.ScalarField, "eval_jet")
        H, D = compat._bracket_hessians(eta_up, X, pts)
        assert len(calls) == 1
        assert H.tobytes() == H_ref.tobytes()
        assert D.tobytes() == D_ref.tobytes()


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


def parent_constant_curvature(g, K, pts):
    """The parent's check_constant_curvature residual, per point."""
    eye = np.eye(g.dim)
    pattern = K * (
        np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )
    R = geometry_jet(g, pts).riemann_upup
    return compat._abs_max(R - pattern) / (1.0 + abs(K))


def parent_dubrovin(eta, f, c, pts):
    """The parent's quadratic and mixed residuals of
    dubrovin_construct_and_check."""
    eta_up = compat._eta_up(eta)
    H, D = compat._bracket_hessians(eta_up, f, pts)
    quad = (np.einsum("...ijs,...skl->...ijkl", D, D)
            - np.einsum("...iks,...sjl->...ijkl", D, D))
    G1 = compat._bracket_metric(eta_up, f, c).values(pts)
    mixed = (np.einsum("...is,jp,...ksp->...ijk", G1, eta_up, H)
             - np.einsum("is,...jp,...ksp->...ijk", eta_up, G1, H))
    scale = 1.0 + np.maximum(compat._abs_max(D) ** 2, compat._abs_max(G1))
    w = _Worst()
    w.update("quadratic", compat._abs_max(quad) / scale, pts)
    w.update("mixed", compat._abs_max(mixed) / scale, pts)
    return w


def parent_associativity(eta, Phi, pts):
    """The parent's associativity_residual."""
    jet = Phi.eval_jet(pts, 3)
    lhs = np.einsum("sp,...pi,...sjk->...ijk", compat._eta_up(eta), jet.hess,
                    jet.third)
    res = lhs - np.einsum("...ijk->...kji", lhs)
    scale = 1.0 + compat._abs_max(jet.hess) * compat._abs_max(jet.third)
    return float(np.max(compat._abs_max(res) / scale))


PHI_CUBIC = expr.parse("(u1^3 + 3*u1*u2^2)/6", 2)
LAMBDAS = [(0.4 - 1.3j, 0.7 + 0.2j), (1.0, 0.5j), (2.0, 3.0)]
DUBROVIN_FIELDS = [
    ([expr.parse("2*u1+u2", 2), expr.parse("u1-u2", 2)], 3.0),
    ([PHI_CUBIC.partial(0), PHI_CUBIC.partial(1)], 4.0),
    ([expr.parse("u1^2*u2", 2), expr.parse("u2^3", 2)], 6.0),
]


class TestOneScaleRule:
    """compat._relative is the one residual scale: every site gives the bits
    of the parent's hand-written formula (the references above and
    per_member_reference, parent_flatness, parent_mokhov_fallback)."""

    @pytest.mark.parametrize("make", [lame_3d_pair, nondiagonal_3d_pair])
    def test_pair_sites(self, make):
        g1, g2 = make()
        pair = MetricPair(g1, g2, sample_points(3, 6, seed=3, lo=0.4, hi=1.2),
                          LAMBDAS)
        res = full_report(pair).max_residuals
        assert len(res) == 9
        assert same_bits(res, per_member_reference(pair, 3)[0].res)

    @pytest.mark.parametrize("K", [1.0, -0.5])
    def test_curvature_sites(self, K):
        pts = sample_points(2, 6, seed=2, min_sep=0.2)
        metrics, r = constant_curvature_pencil(K, pts)
        ref = _Worst()
        for n in range(3):
            ref.update(f"flatness_G{n}",
                       parent_flatness(geometry_jet(metrics[n], pts)), pts)
        ref.update("curvature_G3",
                   parent_constant_curvature(metrics[3], K, pts), pts)
        assert same_bits(r.max_residuals, ref.res)
        wrong = check_constant_curvature(SPHERE, 2 * K, PTS).max_residuals
        assert same_bits(wrong, {"constant_curvature": np.max(
            parent_constant_curvature(SPHERE, 2 * K, PTS))})
        assert wrong["constant_curvature"] > 0.1

    @pytest.mark.parametrize("f, c", DUBROVIN_FIELDS)
    def test_dubrovin_sites(self, f, c):
        eta = np.eye(2)
        g1, r = dubrovin_construct_and_check(eta, f, c, PTS)
        ref = parent_dubrovin(eta, f, c, PTS).res
        pair = MetricPair(g1, MetricField.from_constant(np.linalg.inv(eta)),
                          PTS)
        ref.update(per_member_reference(pair, 2)[0].res)
        assert same_bits(r.max_residuals, ref)

    def test_mokhov_sites_on_both_routes(self):
        # full route: g2 and its sampled members are nondegenerate
        h = [expr.parse("u1^2+u2", 2), expr.parse("u1+u2^3", 2)]
        g2, _, r = mokhov_bracket_metric(np.eye(2), h, PTS)
        ref = per_member_reference(MetricPair(EYE2, g2, PTS), 1)[0].res
        assert len(ref) == 4 and same_bits(r.max_residuals, ref)
        # fallback: g2 is degenerate at the origin
        eta = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = [expr.parse("u1^2*u2", 2), expr.parse("u2^2", 2)]
        pts = np.vstack([[[0.0, 0.0]], PTS, [[1.0, 0.5]]])
        g2, b_at, r = mokhov_bracket_metric(eta, h, pts)
        ref = parent_mokhov_fallback(eta, g2, b_at, pts)[0].res
        assert same_bits(r.max_residuals, ref)
        assert r.max_residuals["gamma_linearity"] > 0.1

    @pytest.mark.parametrize("phi", [PHI_CUBIC,
                                     expr.parse("u1^3 + u2^4 + u1*u2", 2)])
    def test_associativity_site(self, phi):
        got = associativity_residual(np.eye(2), phi, PTS)
        assert got.hex() == parent_associativity(np.eye(2), phi, PTS).hex()

    def test_nan_rule_fails_every_verdict(self, monkeypatch):
        # with the one rule answering NaN, a site that computed its own
        # scale would still pass
        pair = MetricPair(*lame_3d_pair(),
                          sample_points(3, 4, seed=3, lo=0.4, hi=1.2), LAMBDAS)
        pts = sample_points(2, 4, seed=2, min_sep=0.2)
        f, c = DUBROVIN_FIELDS[0]

        def report():
            # almost_compatible false makes the nested verdicts false
            r = full_report(pair)
            assert r.flat_pencil == r.almost_compatible
            return CheckResult(r.almost_compatible, r.max_residuals, {})

        checks = [
            report,
            lambda: check_almost_compatible(pair),
            lambda: check_compatible(pair),
            lambda: check_flat_pencil(pair),
            lambda: check_constant_curvature(SPHERE, 1.0, PTS),
            lambda: constant_curvature_pencil(1.0, pts)[1],
            lambda: dubrovin_construct_and_check(np.eye(2), f, c, PTS)[1],
            lambda: mokhov_bracket_metric(
                np.eye(2), [expr.parse("u1", 2), expr.parse("u2", 2)],
                PTS)[2],
            lambda: mokhov_bracket_metric(
                np.eye(2), [expr.parse("u1", 2), expr.parse("0", 2)],
                PTS)[2],
        ]

        def outcomes():
            identities = cli.run_identities(4, 1)
            return ([(r.passed, list(r.max_residuals.values()))
                     for r in (check() for check in checks)]
                    + [(associativity_residual(np.eye(2), PHI_CUBIC, PTS)
                        < 1e-8, [])]
                    + [(identities["all_below_1e-8"],
                        list(identities["max_relative_residuals"].values()))])

        assert all(passed for passed, _ in outcomes())

        def nan_rule(res, *refs, lead=1):
            return np.full(np.shape(compat._abs_max(res, lead)), np.nan)

        monkeypatch.setattr(compat, "_relative", nan_rule)
        monkeypatch.setattr(cli, "_relative", nan_rule)
        for passed, residuals in outcomes():
            assert not passed
            assert all(np.isnan(v) for v in residuals)
        assert np.isnan(associativity_residual(np.eye(2), PHI_CUBIC, PTS))


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


def _diagonal(*texts):
    return MetricField.diagonal([expr.parse(t, len(texts)) for t in texts])


# (call, message) of each fail-closed check on malformed input
FAIL_CLOSED = {
    "pair-dimensions": (lambda: MetricPair(
        _diagonal("u1", "u2"), _diagonal("1", "1", "1"), [[0.5, 0.6]]),
        "share a dimension"),
    "eta-not-symmetric": (lambda: compat._eta_up([[1.0, 2.0], [0.0, 1.0]]),
                          "eta must be symmetric"),
    # no two coordinates in [0.2, 2] are 10 apart
    "sample-points-exhausted": (lambda: sample_points(2, 5, min_sep=10.0),
                                "could not draw"),
}


@pytest.mark.parametrize("case", list(FAIL_CLOSED))
def test_fail_closed_input_checks(case):
    call, message = FAIL_CLOSED[case]
    with pytest.raises(ValueError, match=message):
        call()
