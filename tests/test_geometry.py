"""Christoffel symbols, curvature, affinor, Nijenhuis/M tensors, eigenvalues."""

from dataclasses import fields

import numpy as np
import pytest

from flatpencil import expr
from flatpencil.compat import dubrovin_construct_and_check, mokhov_bracket_metric
from flatpencil.errors import ArityError, DegenerateMetric, DomainError
from flatpencil.geometry import (
    CONTRAVARIANT,
    GeometryJet,
    MetricField,
    PencilMembers,
    affinor_at,
    affinor_from_jets,
    degenerate,
    geometry_jet,
    linear_combination,
    nijenhuis,
    pencil_eigenvalues,
    roots_and_gap,
    tensor_M,
    tensor_M_from_jets,
)


def polar():
    """Polar coordinates of the Euclidean plane, g^{ij} = diag(1, u1^-2)."""
    return MetricField.diagonal(
        [expr.parse("1", 2), expr.parse("u1^-2", 2)], CONTRAVARIANT
    )


def nondiagonal_3d(shift=0.0):
    """A 3-D contravariant metric with every entry non-constant."""
    e = lambda text: expr.parse(text, 3)
    return MetricField.from_upper(
        {(0, 0): e(f"{2 + shift}+u1*u3"), (0, 1): e("u2/5"),
         (0, 2): e("sin(u2)/9"), (1, 1): e("3+exp(u1/3)"),
         (1, 2): e(f"u1*u2/{7 + shift}"), (2, 2): e("4+u3^2")},
        CONTRAVARIANT,
    )


def points(dim, count=4, seed=3):
    return np.random.default_rng(seed).uniform(0.3, 1.5, size=(count, dim))


class TestMetricField:
    def test_shared_symmetric_entries_required(self):
        # equal entries, but not one shared field
        f = expr.parse("u1", 2)
        g = expr.parse("(u1)", 2)
        rows = [[f, f], [g, f]]
        with pytest.raises(ValueError):
            MetricField(2, CONTRAVARIANT, rows)

    def test_covariant_metric_rejected(self):
        f = expr.parse("1+u1^2", 2)
        with pytest.raises(ValueError, match="contravariant"):
            MetricField(2, "covariant", [[f, f], [f, f]])
        with pytest.raises(ValueError, match="contravariant"):
            MetricField.diagonal([f, f], "covariant")

    def test_values_symmetric(self):
        g = MetricField.from_upper(
            {(0, 0): expr.parse("u1", 2), (0, 1): expr.parse("u2", 2),
             (1, 1): expr.parse("3", 2)},
            CONTRAVARIANT,
        )
        v = g.values([2.0, 5.0])
        assert v[0, 1] == v[1, 0] == pytest.approx(5.0)

    def test_values_on_point_batch(self):
        g = MetricField.from_upper(
            {(0, 0): expr.parse("u1*u2", 2), (0, 1): expr.parse("exp(u2)", 2),
             (1, 1): expr.parse("3", 2)},
            CONTRAVARIANT,
        )
        pts = np.random.default_rng(1).uniform(0.2, 2.0, size=(5, 2))
        batch = g.values(pts)
        assert batch.shape == (5, 2, 2)
        assert np.array_equal(batch, np.stack([g.values(p) for p in pts]))

    def test_constant_metric_must_be_symmetric(self):
        with pytest.raises(ValueError):
            MetricField.from_constant([[1.0, 2.0], [3.0, 1.0]])

    def test_constant_metric_must_be_finite(self):
        # NaN != NaN, so the symmetry check alone would misreport it
        with pytest.raises(ValueError, match="must be finite"):
            MetricField.from_constant([[np.nan, 0.0], [0.0, 1.0]])

    def test_degenerate_raises(self):
        g = MetricField.diagonal([expr.parse("u1", 2), expr.parse("1", 2)])
        with pytest.raises(DegenerateMetric):
            geometry_jet(g, [0.0, 1.0])


class TestChristoffelAndCurvature:
    def test_polar_christoffels(self):
        j = geometry_jet(polar(), [2.0, 0.7])
        assert j.gamma_mixed[0, 1, 1] == pytest.approx(-2.0)
        assert j.gamma_mixed[1, 0, 1] == pytest.approx(0.5)
        assert j.gamma_mixed[1, 1, 0] == pytest.approx(0.5)

    def test_polar_flat(self):
        for pt in ([1.0, 0.3], [2.5, 1.2]):
            j = geometry_jet(polar(), pt)
            assert np.max(np.abs(j.riemann_upup)) < 1e-13

    def test_sphere_unit_curvature_pattern(self):
        g = MetricField.diagonal(
            [expr.parse("1", 2), expr.parse("sin(u1)^-2", 2)], CONTRAVARIANT
        )
        eye = np.eye(2)
        pattern = np.einsum("il,jk->ijkl", eye, eye) - np.einsum(
            "ik,jl->ijkl", eye, eye
        )
        for pt in ([np.pi / 4, 0.3], [1.1, 2.0]):
            j = geometry_jet(g, pt)
            assert np.max(np.abs(j.riemann_upup - pattern)) < 1e-12

    def test_curvature_against_finite_difference_christoffels(self):
        # independent oracle: differentiate Gamma^i_{jl} numerically; the
        # metric is g_{ij} = diag(exp(u1*u2), 1+u2^2)
        g = MetricField.diagonal(
            [expr.parse("exp(-u1*u2)", 2), expr.parse("(1+u2^2)^-1", 2)],
            CONTRAVARIANT,
        )
        p = np.array([0.6, 0.9])
        j = geometry_jet(g, p)
        h = 1e-5
        dgamma = np.zeros((2, 2, 2, 2), dtype=complex)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            gp = geometry_jet(g, p + e).gamma_mixed
            gm = geometry_jet(g, p - e).gamma_mixed
            dgamma[k] = (gp - gm) / (2 * h)
        gm0 = j.gamma_mixed
        riem = (
            np.einsum("kijl->ijkl", dgamma)
            - np.einsum("lijk->ijkl", dgamma)
            + np.einsum("ipk,pjl->ijkl", gm0, gm0)
            - np.einsum("ipl,pjk->ijkl", gm0, gm0)
        )
        # R^{ij}_{kl} = g^{is} R^j_{skl}
        upup = np.einsum("is,jskl->ijkl", j.g_up, riem)
        assert np.max(np.abs(upup - j.riemann_upup)) < 1e-6

    def test_contravariant_input_round_trip(self):
        # g^{ij} = diag(1, u1^-2) has the lower entries diag(1, u1^2)
        p = [2.0, 0.7]
        j = geometry_jet(polar(), p)
        lower = expr.parse("u1^2", 2).eval_jet(p, 1)
        assert j.g_down == pytest.approx(np.diag([1.0, lower.value]))
        for k in range(2):
            assert j.dg_down[k] == pytest.approx(
                np.diag([0.0, lower.grad[k]]), abs=1e-15)


def parent_geometry(V, d, d2):
    """The covariant route, kept as an independent reference: differentiate
    the inverse of the contravariant entries twice, take Gamma^i_{jk} from
    the covariant partials and raise the indices of Gamma and R."""
    up, dup = V, d
    down = np.linalg.inv(V)
    Wk, dk = down[..., None, :, :], d[..., :, None, :, :]
    ddown = -Wk @ d @ Wk
    Wkl, dWl = Wk[..., None, :, :], ddown[..., None, :, :, :]
    d2down = -(dWl @ dk @ Wkl + Wkl @ d2 @ Wkl + Wkl @ dk @ dWl)
    bracket = (np.einsum("...jsk->...sjk", ddown)
               + np.einsum("...kjs->...sjk", ddown) - ddown)
    gamma_mixed = 0.5 * np.einsum("...is,...sjk->...ijk", up, bracket)
    dbracket = (np.einsum("...mjsk->...msjk", d2down)
                + np.einsum("...mkjs->...msjk", d2down) - d2down)
    dgamma = 0.5 * (np.einsum("...mis,...sjk->...mijk", dup, bracket)
                    + np.einsum("...is,...msjk->...mijk", up, dbracket))
    riemann_mixed = (
        np.einsum("...kijl->...ijkl", dgamma)
        - np.einsum("...lijk->...ijkl", dgamma)
        + np.einsum("...ipk,...pjl->...ijkl", gamma_mixed, gamma_mixed)
        - np.einsum("...ipl,...pjk->...ijkl", gamma_mixed, gamma_mixed))
    return {
        "g_down": down, "dg_down": ddown, "gamma_mixed": gamma_mixed,
        "gamma_contra": np.einsum("...is,...jsk->...ijk", up, gamma_mixed),
        "riemann_upup": np.einsum("...is,...jskl->...ijkl", up,
                                  riemann_mixed)}


def exp_2d(shift=0.0):
    """A 2-D contravariant metric with exponential, non-diagonal entries."""
    e = lambda text: expr.parse(text, 2)
    return MetricField.from_upper(
        {(0, 0): e(f"{2 + shift}+exp(u1*u2)"), (0, 1): e("exp(-u1)/4"),
         (1, 1): e(f"exp(u2/{2 + shift})+u1^2")}, CONTRAVARIANT)


def complex_members(make):
    return PencilMembers(make(), make(shift=1.5),
                         [(0.4 - 1.3j, 0.7 + 0.2j), (1.0, 0.5j), (2.0, 3.0)],
                         ends=True)


class TestContravariantKernel:
    """The contravariant kernel against the covariant route: every tensor
    within 1e-12 of its largest entry, or of 1 where that is smaller (the
    polar metric is flat, R = 0 up to rounding)."""

    @pytest.mark.parametrize("source", [
        polar(), nondiagonal_3d(), exp_2d(),
        complex_members(exp_2d), complex_members(nondiagonal_3d)])
    def test_matches_covariant_route(self, source):
        pts = points(source.dim)
        got = geometry_jet(source, pts)
        ref = parent_geometry(*source.entry_jets(pts, 2))
        assert got.riemann_upup.shape[:-4] == (
            (5, 4) if isinstance(source, PencilMembers) else (4,))
        for name, want in ref.items():
            err = np.max(np.abs(getattr(got, name) - want))
            assert err <= 1e-12 * max(np.max(np.abs(want)), 1.0), name
        # (k, l)-antisymmetry holds by construction, bit for bit
        R = got.riemann_upup
        assert not np.any(R + np.swapaxes(R, -2, -1))

    @pytest.mark.parametrize("make", [exp_2d, nondiagonal_3d])
    def test_member_batch_is_the_stack_of_point_calls(self, make):
        source = complex_members(make)
        pts = points(source.dim)
        batch = geometry_jet(source, pts)
        singles = [geometry_jet(source, p) for p in pts]
        for f in fields(GeometryJet):
            stack = np.stack([getattr(j, f.name) for j in singles], axis=1)
            assert np.array_equal(getattr(batch, f.name), stack), f.name

    def test_no_second_partials_of_the_inverse_are_kept(self):
        names = {f.name for f in fields(GeometryJet)}
        assert not {"d2g_up", "d2g_down"} & names
        # nor R^i_{jkl}: the verdicts read R^{ij}_{kl} only
        assert "riemann_mixed" not in names


class TestAffinorAndObstructions:
    def setup_method(self):
        e = expr.parse("exp(u1*u2)", 2)
        self.g1 = MetricField.diagonal([e, e])
        self.g2 = MetricField.from_constant(np.eye(2))
        self.p = np.array([0.4, -0.3])

    def test_affinor_value(self):
        a = affinor_at(self.g1, self.g2, self.p)
        assert a.v == pytest.approx(np.exp(-0.12) * np.eye(2))

    def test_affinor_derivative_against_fd(self):
        a = affinor_at(self.g1, self.g2, self.p)
        h = 1e-6
        for s in range(2):
            e = np.zeros(2)
            e[s] = h
            num = (
                affinor_at(self.g1, self.g2, self.p + e).v
                - affinor_at(self.g1, self.g2, self.p - e).v
            ) / (2 * h)
            assert np.max(np.abs(num - a.dv[s])) < 1e-8

    def test_nijenhuis_vanishes_for_conformal_pair(self):
        a = affinor_at(self.g1, self.g2, self.p)
        assert np.max(np.abs(nijenhuis(a))) == 0.0

    def test_nijenhuis_antisymmetry_exact(self):
        g1 = MetricField.from_upper(
            {(0, 0): expr.parse("2+u2", 2), (0, 1): expr.parse("u1*u2", 2),
             (1, 1): expr.parse("3+u1^2", 2)},
            CONTRAVARIANT,
        )
        a = affinor_at(g1, self.g2, self.p)
        N = nijenhuis(a)
        assert np.array_equal(N, -np.transpose(N, (0, 2, 1)))
        assert np.max(np.abs(N)) > 0

    def test_tensor_M_vanishes_for_conformal_pair(self):
        assert np.max(np.abs(tensor_M(self.g1, self.g2, self.p))) < 1e-15

    def test_tensor_M_nonzero_generic(self):
        g1 = MetricField.diagonal(
            [expr.parse("1+u1^2", 2), expr.parse("2+u2", 2)]
        )
        g2 = MetricField.from_upper(
            {(0, 0): expr.parse("2", 2), (0, 1): expr.parse("u1", 2),
             (1, 1): expr.parse("3+u2^2", 2)},
            CONTRAVARIANT,
        )
        assert np.max(np.abs(tensor_M(g1, g2, self.p))) > 1e-3


class TestPencilEigenvalues:
    def test_diagonal_pair_roots(self):
        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        g2 = MetricField.from_constant(np.eye(2))
        roots, gap = pencil_eigenvalues(g1, g2, [0.7, 2.0])
        assert roots == pytest.approx(np.array([0.7, 2.0]))
        assert gap == pytest.approx(1.3)

    def test_roots_match_determinant_zero(self):
        # residual oracle: det(g1 - r g2) = 0 at every reported root
        g1 = MetricField.from_upper(
            {(0, 0): expr.parse("2+u1", 2), (0, 1): expr.parse("u2/2", 2),
             (1, 1): expr.parse("3", 2)},
            CONTRAVARIANT,
        )
        g2 = MetricField.from_constant([[1.0, 0.2], [0.2, 2.0]])
        p = [0.9, 1.4]
        roots, _ = pencil_eigenvalues(g1, g2, p)
        v1 = g1.values(p)
        v2 = g2.values(p)
        for r in roots:
            assert abs(np.linalg.det(v1 - r * v2)) < 1e-10

    def test_sorted_by_real_then_imag(self):
        # roots 0.5, 1-i, 1+i; the conjugate pair's real parts differ only
        # by rounding, which the sort treats as a tie
        g1 = MetricField.from_constant(
            [[0.5, 0, 0], [0, 1, 1j], [0, 1j, 1]]
        )
        g2 = MetricField.from_constant(np.eye(3))
        roots, _ = pencil_eigenvalues(g1, g2, [0.5, 0.5, 0.5])
        assert roots[0] == pytest.approx(0.5)
        assert roots[1] == pytest.approx(1.0 - 1j)
        assert roots[2] == pytest.approx(1.0 + 1j)

    def test_complex_eigenvalues_supported(self):
        g1 = MetricField.from_constant([[0.0, 1.0], [1.0, 0.0]])
        g2 = MetricField.from_constant(np.eye(2))
        roots, gap = pencil_eigenvalues(g1, g2, [0.5, 0.5])
        assert roots == pytest.approx(np.array([-1.0, 1.0]))
        assert gap == pytest.approx(2.0)


    def test_degenerate_metrics_rejected(self):
        coord = MetricField.diagonal([expr.parse("u1", 2), expr.parse("1", 2)])
        eye = MetricField.from_constant(np.eye(2))
        for g1, g2 in ((coord, eye), (eye, coord)):
            with pytest.raises(DegenerateMetric):
                pencil_eigenvalues(g1, g2, [0.0, 1.0])

    def test_constant_g2_inverted(self):
        # roots of g1 g2^{-1}, g2^{ij} = diag(2, 4)
        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        g2 = MetricField.from_constant(np.diag([2.0, 4.0]))
        roots, _ = pencil_eigenvalues(g1, g2, [0.7, 2.0])
        assert roots == pytest.approx(np.array([0.35, 0.5]))


class TestPairHelpersEvaluateOnce:
    """affinor_at, tensor_M and pencil_eigenvalues evaluate the entries of
    g1 and g2 in one eval_jet call, bit equal to one call per metric."""

    PAIR = (nondiagonal_3d(), nondiagonal_3d(shift=1.5))

    @pytest.mark.parametrize("batch", [(), (4,), (2, 2)])
    def test_affinor_and_M(self, batch, count_calls):
        g1, g2 = self.PAIR
        pts = np.random.default_rng(7).uniform(0.4, 1.2, batch + (3,))
        j1, j2 = geometry_jet(g1, pts), geometry_jet(g2, pts)
        want_a, want_M = affinor_from_jets(j1, j2), tensor_M_from_jets(j1, j2)
        calls = count_calls(expr.ScalarField, "eval_jet")
        a = affinor_at(g1, g2, pts)
        assert len(calls) == 1
        M = tensor_M(g1, g2, pts)
        assert len(calls) == 2
        assert a.v.tobytes() == want_a.v.tobytes()
        assert a.dv.tobytes() == want_a.dv.tobytes()
        assert M.tobytes() == want_M.tobytes()

    def test_pencil_eigenvalues(self, count_calls):
        g1, g2 = self.PAIR
        p = np.array([0.5, 0.9, 1.1])
        roots, gap = roots_and_gap(g1.values(p) @ np.linalg.inv(g2.values(p)))
        calls = count_calls(expr.ScalarField, "eval_jet")
        inverses = count_calls(np.linalg, "inv")
        got = pencil_eigenvalues(g1, g2, p)
        # g1 is checked by the degeneracy rule, only g2 is inverted
        assert len(calls) == 1 and len(inverses) == 1
        assert got[0].tobytes() == roots.tobytes() and got[1] == gap

    def test_degenerate_g1_raises_without_an_inverse(self, count_calls):
        coord = MetricField.diagonal([expr.parse("u1", 2), expr.parse("1", 2)])
        eye = MetricField.from_constant(np.eye(2))
        inverses = count_calls(np.linalg, "inv")
        with pytest.raises(DegenerateMetric) as exc:
            pencil_eigenvalues(coord, eye, [0.0, 1.0])
        assert inverses == [] and np.array_equal(exc.value.point, [0, 1])


class TestLinearCombination:
    def test_combination_values(self):
        g1 = MetricField.diagonal([expr.parse("u1", 2), expr.parse("u2", 2)])
        g2 = MetricField.from_constant(np.eye(2))
        comb = linear_combination(2.0, g1, -1.0, g2)
        v = comb.values([3.0, 4.0])
        assert v == pytest.approx(np.diag([5.0, 7.0]))


class TestBatchContract:
    """A batch of points gives the stack of the single-point results, bit
    for bit, with the batch axes leading."""

    @pytest.mark.parametrize("make", [nondiagonal_3d, polar])
    def test_geometry_jet(self, make):
        g = make()
        pts = points(g.dim)
        batch = geometry_jet(g, pts)
        singles = [geometry_jet(g, p) for p in pts]
        for f in fields(GeometryJet):
            stack = np.stack([getattr(j, f.name) for j in singles])
            assert np.array_equal(getattr(batch, f.name), stack), f.name
        grid = geometry_jet(g, pts.reshape(2, 2, g.dim)).riemann_upup
        assert np.array_equal(grid,
                              batch.riemann_upup.reshape(grid.shape))

    @pytest.mark.parametrize("pair", [
        (nondiagonal_3d(), nondiagonal_3d(shift=1.5)),
        (polar(), MetricField.from_upper(
            {(0, 0): expr.parse("2+u2", 2), (0, 1): expr.parse("u1*u2", 2),
             (1, 1): expr.parse("3+u1^2", 2)}, CONTRAVARIANT)),
    ])
    def test_pair_tensors(self, pair):
        g1, g2 = pair
        pts = points(g1.dim)
        a = affinor_at(g1, g2, pts)
        singles = [affinor_at(g1, g2, p) for p in pts]
        assert np.array_equal(a.v, np.stack([s.v for s in singles]))
        assert np.array_equal(a.dv, np.stack([s.dv for s in singles]))
        assert np.array_equal(nijenhuis(a),
                              np.stack([nijenhuis(s) for s in singles]))
        assert np.array_equal(tensor_M(g1, g2, pts),
                              np.stack([tensor_M(g1, g2, p) for p in pts]))

    def test_degenerate_batch_names_first_bad_point(self):
        g = MetricField.diagonal([expr.parse("u1-1", 2), expr.parse("1", 2)])
        pts = points(2, count=6)
        pts[2] = [1.0 + 1e-12, 0.5]
        pts[4] = [1.0 + 3e-12, 0.9]
        with pytest.raises(DegenerateMetric) as exc:
            geometry_jet(g, pts)
        assert np.array_equal(exc.value.point, pts[2])
        assert exc.value.absdet == abs(np.linalg.det(g.values(pts[2])))


class TestDegeneracyRule:
    # det = 2.5e-11: degenerate, and so is every multiple of it
    NEAR = np.array([[1.0, 1.0], [1.0, 1.0 + 2.5e-11]])

    def test_relative_to_the_entries(self):
        V = np.stack([self.NEAR, 1e3 * self.NEAR, np.eye(2), 1e3 * np.eye(2),
                      1e-6 * np.eye(2)])
        bad, absdet = degenerate(V)
        # |det| tested against 1e-10 * (max |V|)^n
        assert bad.tolist() == [True, True, False, False, False]
        assert np.array_equal(absdet, np.abs(np.linalg.det(V)))
        assert absdet[1] > 1e-5  # an absolute 1e-10 would pass it
        single, _ = degenerate(1e3 * self.NEAR)
        assert single.shape == () and single

    @pytest.mark.parametrize("V", [NEAR, np.eye(2), np.diag([1.0, 3e-6]),
                                   np.array([[2.0, 1.0], [1.0, -4.0]])])
    def test_every_multiple_gets_the_same_answer(self, V):
        bad, _ = degenerate(np.stack([c * V for c in (1e-6, 1.0, 1e6)]))
        assert bad.tolist() == [bad[1]] * 3

    def test_zero_matrix_is_degenerate(self):
        assert degenerate(np.zeros((3, 3)))[0]

    @pytest.mark.parametrize("n", [2, 3])
    def test_singular_is_degenerate_at_any_scale(self, n):
        # at 1e-160 (n = 2) and 1e-105 (n = 3) the threshold underflows to 0,
        # at 1e160 it overflows; det is 0 at every scale
        cs = (1e-160, 1e-105, 1e-6, 1.0, 1e6, 1e160)
        with np.errstate(over="ignore"):
            bad, absdet = degenerate(np.stack([c * np.ones((n, n))
                                               for c in cs]))
        assert bad.all() and not absdet.any()
        g = MetricField.from_constant(1e-160 * np.ones((n, n)), CONTRAVARIANT)
        with pytest.raises(DegenerateMetric):
            geometry_jet(g, np.full(n, 0.5))

    def test_eta_follows_the_same_rule(self):
        h = [expr.parse("u1", 2), expr.parse("u2", 2)]
        with pytest.raises(ValueError, match="nondegenerate"):
            mokhov_bracket_metric(1e3 * self.NEAR, h, [[0.5, 0.7]])
        with pytest.raises(ValueError, match="nondegenerate"):
            dubrovin_construct_and_check(1e3 * self.NEAR, h, 0.0,
                                         [[0.5, 0.7]])


class TestLiteralEntries:
    """Entries whose expression is a bare literal skip evaluation."""

    @staticmethod
    def evaluated(g, point, order):
        """Entry jets as they were: every entry through eval_jet."""
        pt = np.asarray(point, dtype=complex)
        n, batch = g.dim, pt.shape[:-1]
        V = np.empty(batch + (n, n), dtype=complex)
        d = np.empty(batch + (n,) * 3, dtype=complex)
        d2 = np.empty(batch + (n,) * 4, dtype=complex)
        for i in range(n):
            for j in range(n):
                jet = g.entries[i][j].eval_jet(pt, 2)
                V[..., i, j], d[..., :, i, j] = jet.value, jet.grad
                d2[..., :, :, i, j] = jet.hess
        return V, d, d2

    @pytest.mark.parametrize("batch", [(), (4,), (3, 2)])
    def test_bit_equal_to_evaluating_them(self, batch, count_calls):
        e = lambda text: expr.parse(text, 3)
        g = MetricField.from_upper(
            {(0, 0): e("1"), (0, 1): e("0"), (1, 1): e("u1^-2"),
             (1, 2): e("-2.5"), (2, 2): e("2*(u1*sin(u2))^-2")},
            CONTRAVARIANT)
        pts = np.random.default_rng(4).uniform(0.4, 1.2, batch + (3,))
        want = self.evaluated(g, pts, 2)
        calls = count_calls(expr.ScalarField, "eval_jet")
        got = g.entry_jets(pts, 2)
        # "-2.5" parses as the negation of a literal, so it is evaluated;
        # the evaluated entries go through one call
        assert [[f.source_text for f in c.ast.fields] for c in calls] == [
            ["u1^-2", "-2.5", "2*(u1*sin(u2))^-2"]]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_arity_and_nonfinite_literals_still_raise(self):
        eye = MetricField.from_constant(np.eye(2))
        with pytest.raises(ArityError):
            eye.entry_jets(np.zeros(3), 2)
        g = MetricField.diagonal([expr.parse("1e400", 2), expr.parse("1", 2)])
        with pytest.raises(DomainError):
            g.entry_jets(np.zeros(2), 0)


class TestEntryEvaluation:
    """entry_jets evaluates the distinct non-literal entries of its metrics
    in one eval_jet call, at the point taken as complex."""

    TEXTS = {
        "real": {(0, 0): "2+u1*u2", (0, 1): "0.3*sin(u3)", (0, 2): "0",
                 (1, 1): "3+exp(u2/4)", (1, 2): "0.3*sin(u3)",
                 (2, 2): "4+u3^2"},
        "complex": {(0, 0): "sqrt(1+u1)", (0, 1): "(0.1+0.2i)*u2",
                    (1, 1): "ln(2+u3)", (2, 2): "sqrt(1+u1)"},
        "mixed": {(0, 0): "sqrt(1+u1)", (0, 1): "0.1*u1*u2",
                  (1, 1): "2+cos(u1)", (1, 2): "1.5", (2, 2): "3+ln(1+u1)"},
    }

    @pytest.mark.parametrize("kind", list(TEXTS))
    @pytest.mark.parametrize("batch", [(), (4,), (3, 2)])
    def test_one_call_bit_equal_to_each_entry(self, kind, batch,
                                              count_calls):
        g = MetricField.from_upper(
            {ij: expr.parse(t, 3) for ij, t in self.TEXTS[kind].items()},
            CONTRAVARIANT)
        pts = np.random.default_rng(5).uniform(0.4, 1.2, batch + (3,))
        want = TestLiteralEntries.evaluated(g, pts, 2)
        calls = count_calls(expr.ScalarField, "eval_jet")
        for order in (0, 2):
            got = g.entry_jets(pts, order)
            for a, b in zip(got[:order + 1], want):
                assert a.tobytes() == b.tobytes() and a.flags.c_contiguous
        # duplicated entries once each, literals ("0", "1.5") never
        distinct = {id(f.ast): f for row in g.entries for f in row
                    if not isinstance(f.ast, expr.Const)}
        assert len(calls) == 2
        assert all(c.ast.fields == tuple(distinct.values()) for c in calls)

    def test_members_share_subtrees_of_both_metrics(self, count_calls):
        e = expr.parse("exp(u1*u2)", 2)
        s = expr.parse("sin(u2)", 2)
        g1 = MetricField.diagonal([e, e * s])
        g2 = MetricField.diagonal([2 * e, s + 1])
        members = PencilMembers(g1, g2, [(1.0, 2.0)], ends=True)
        funcs = count_calls(expr, "_call")
        pts = np.random.default_rng(6).uniform(0.3, 1.1, (5, 2))
        for p in (pts, pts[0]):
            funcs.clear()
            jets = geometry_jet(members, p)
            assert sorted(funcs) == ["exp", "sin"]
            for k, g in enumerate([g1, g2]):
                ref = geometry_jet(g, p)
                assert all(np.array_equal(getattr(jets[k], f.name),
                                          getattr(ref, f.name))
                           for f in fields(GeometryJet))
