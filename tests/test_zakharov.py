"""Kernel construction, the integral-equation solve, and the reduction."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from flatpencil import expr, zakharov
from flatpencil.errors import SingularOperator, TruncationWarning
from flatpencil.lame import RotationCoeffs, lame_residuals
from flatpencil.zakharov import (
    DressingProblem,
    KernelGrid,
    _row_operator,
    _row_weights,
    _tabulate,
    build_kernel,
    check_phi_pdes,
    check_reduction_relation,
    dressing_rotation,
    extract_beta,
    neumann_solution,
    reduce_kernel,
    reduction_ratio,
    solve_integral_equation,
)


def gaussian_problem(m=33, f=None, dim=2):
    """Rapidly decaying off-diagonal potential on [0, 1], base point (0.3, 0.4)."""
    phi = {
        (0, 1): expr.parse(
            "0.05*exp(-40*((u1+0.2)^2 + (u2+0.3)^2))", 2
        )
    }
    u = np.array([0.3, 0.4, 0.5])[:dim]
    return DressingProblem(dim, phi, u, 0.0, 1.0, m, f)


def criterion7_problem(m=64, u=(0.3, 0.4)):
    """Off-diagonal and both skew diagonal potentials."""
    phi = {
        (0, 1): expr.parse("0.05*exp(-40*((u1+0.2)^2 + (u2+0.3)^2))", 2),
        (0, 0): expr.parse(
            "0.05*(u1-u2)*exp(-30*((u1+0.25)^2 + (u2+0.25)^2))", 2),
        (1, 1): expr.parse(
            "0.04*(u1-u2)*exp(-30*((u1+0.35)^2 + (u2+0.35)^2))", 2),
    }
    return DressingProblem(2, phi, np.array(u), 0.0, 1.0, m)


class TestProblemValidation:
    def test_diagonal_potential_must_be_skew(self):
        phi = {(0, 0): expr.parse("u1*u2", 2)}
        with pytest.raises(ValueError):
            DressingProblem(1, phi, np.array([0.0]), 0.0, 1.0, 8)

    def test_skew_check_evaluates_each_diagonal_once(self, count_calls):
        # an empty verdict cache, whatever ran before
        zakharov._is_skew.cache_clear()
        calls = count_calls(expr.ScalarField, "eval_jet")
        p = criterion7_problem()
        assert [(c.source_text, c.ast) for c in calls] == [
            (p.Phi[i, i].source_text, p.Phi[i, i].ast) for i in range(2)]
        # parsing the same texts again returns the same fields, whose
        # verdicts are kept
        criterion7_problem(u=(0.25, 0.45))
        assert len(calls) == 2

    def test_non_skew_diagonal_raises_every_time(self, count_calls):
        zakharov._is_skew.cache_clear()
        calls = count_calls(expr.ScalarField, "eval_jet")
        for _ in range(3):
            phi = {(0, 0): expr.parse("u1*u2", 2)}
            with pytest.raises(ValueError, match="skew"):
                DressingProblem(1, phi, np.array([0.0]), 0.0, 1.0, 8)
        assert len(calls) == 1  # the verdict is kept, and still raises

    def test_skew_diagonal_accepted(self):
        phi = {(0, 0): expr.parse("(u1-u2)*exp(-u1^2-u2^2)", 2)}
        DressingProblem(1, phi, np.array([0.0]), 0.0, 1.0, 8)

    def test_bad_index_rejected(self):
        phi = {(1, 0): expr.parse("u1*u2", 2)}
        with pytest.raises(ValueError):
            DressingProblem(2, phi, np.zeros(2), 0.0, 1.0, 8)


class TestBuildKernel:
    def test_product_potential_entries(self):
        # Phi = x*y: F_12(s,s') = s' - u^2 and F_21(s,s') = -(s' - u^1)
        phi = {(0, 1): expr.parse("u1*u2", 2)}
        p = DressingProblem(2, phi, np.array([0.25, 0.75]), 0.0, 1.0, 5)
        k = build_kernel(p)
        s = p.nodes
        expect_12 = np.broadcast_to(s[None, :] - 0.75, (5, 5))
        expect_21 = np.broadcast_to(-(s[None, :] - 0.25), (5, 5))
        assert np.allclose(k.values[0, 1], expect_12)
        assert np.allclose(k.values[1, 0], expect_21)

    def test_skew_diagonal_gives_constant(self):
        # Phi_11 = x - y has Phi_x = 1
        phi = {(0, 0): expr.parse("u1 - u2", 2)}
        p = DressingProblem(1, phi, np.array([0.2]), 0.0, 1.0, 4)
        k = build_kernel(p)
        assert np.allclose(k.values[0, 0], 1.0)

    def test_missing_entries_are_zero(self):
        p = gaussian_problem(m=6, dim=3)
        k = build_kernel(p)
        assert np.all(k.values[2] == 0) and np.all(k.values[:, 2] == 0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_grid_tabulation_equals_pointwise(self, order):
        # the (m, m) grid of a potential varies per coordinate along one
        # axis; single points have no batch axes to compress
        class PointByPoint:
            def __init__(self, phi):
                self.phi = phi
                self.real_closed = phi.real_closed

            def eval_jet(self, pts, order):
                jets = [self.phi.eval_jet(q, order)
                        for q in pts.reshape(-1, 2)]
                batch = pts.shape[:-1]
                grad = np.array([j.grad for j in jets])
                hess = (np.array([j.hess for j in jets]).reshape(
                    batch + (2, 2)) if order >= 2 else None)
                return SimpleNamespace(grad=grad.reshape(batch + (2,)),
                                       hess=hess)

        p = criterion7_problem(m=8)
        pointwise = {ij: PointByPoint(phi) for ij, phi in p.Phi.items()}
        F, dF = _tabulate(p.Phi, p.u, p.nodes, order)
        G, dG = _tabulate(pointwise, p.u, p.nodes, order)
        assert F.tobytes() == G.tobytes()
        if order == 1:
            assert dF is None and dG is None
        else:
            assert dF.tobytes() == dG.tobytes()


class TestReductionRelation:
    def test_grid_route_on_raw_kernel(self):
        # the tabulated kernel satisfies the relation identically; a sign
        # slip in F_ji = -Phi_y would leave a residual of order one
        p = gaussian_problem(m=65)

        def F(s, sp):
            return _tabulate(p.Phi, p.u, np.array([s, sp]), 1)[0][:, :, 0, 1]

        assert check_reduction_relation(F) < 1e-10

    def test_callable_route_exact_kernel(self):
        # F_12 = s'-u2, F_21 = -(s'-u1): residual vanishes identically
        u = np.array([0.25, 0.75])

        def F(s, sp):
            return np.array([[0.0, sp - u[1]], [-(sp - u[0]), 0.0]])

        assert check_reduction_relation(F) < 1e-10

    def test_callable_route_detects_violation(self):
        def F(s, sp):
            return np.array([[0.0, s + sp], [0.0, 0.0]])

        assert check_reduction_relation(F) > 0.5


class TestPhiPdes:
    def test_log_potential_with_coordinate_f(self):
        # Phi = c ln(x - y) with f(x) = x solves the off-diagonal PDE
        phi = {(0, 1): expr.parse("0.5*ln(u1-u2)", 2)}
        f = [expr.parse("u1", 1), expr.parse("u1", 1)]
        p = DressingProblem(2, phi, np.array([0.0, -5.0]), 0.0, 1.0, 4, f)
        samples = [[0.2, 0.6], [0.8, 0.1], [0.5, 0.9]]
        res_off, res_diag = check_phi_pdes(p, samples)
        assert res_off < 1e-12
        assert res_diag == 0.0

    def test_diagonal_residual_is_the_formula_written_out(self):
        # skew Phi = xy(x - y) with f(t) = t^2 + 3, at x = s - u, y = s' - u:
        # 2 Phi_xy (f(u - s) - f(u - s')) + Phi_x f'(u - s')
        # - Phi_y f'(u - s)
        phi = {(0, 0): expr.parse("u1^2*u2-u1*u2^2", 2)}
        p = DressingProblem(1, phi, np.array([0.3]), 0.0, 1.0, 4,
                            [expr.parse("u1^2+3", 1)])
        samples = np.array([[0.2, 0.6], [0.8, 0.1], [0.5, 0.9]])
        res_off, res_diag = check_phi_pdes(p, samples)
        f, df = (lambda t: t * t + 3), (lambda t: 2 * t)
        s, sp = samples.T
        x, y = s - 0.3, sp - 0.3
        want = (2 * (2 * x - 2 * y) * (f(0.3 - s) - f(0.3 - sp))
                + (2 * x * y - y * y) * df(0.3 - sp)
                - (x * x - 2 * x * y) * df(0.3 - s))
        assert res_off == 0.0
        assert res_diag == pytest.approx(np.max(np.abs(want)), rel=1e-12)
        assert res_diag > 0.1

    def test_generic_potential_fails(self):
        phi = {(0, 1): expr.parse("u1^2*u2", 2)}
        f = [expr.parse("u1", 1), expr.parse("u1", 1)]
        p = DressingProblem(2, phi, np.array([0.0, -5.0]), 0.0, 1.0, 4, f)
        res_off, _ = check_phi_pdes(p, [[0.2, 0.6], [0.8, 0.1]])
        assert res_off > 1e-2


class TestKernelDtype:
    """Real-closed potentials give a real kernel, solved in float64; a
    complex literal keeps the complex path."""

    def test_real_potentials_solve_in_float64(self):
        p = criterion7_problem(m=24)
        k = build_kernel(p)
        assert k.values.dtype == np.float64
        assert _row_operator(k.values, k.nodes, 3)[0].dtype == np.float64
        sol = solve_integral_equation(k, rows=[0, 5])
        assert sol.values.dtype == np.float64
        assert extract_beta(sol).dtype == np.float64
        for a in (0, 5):
            ref = neumann_solution(k, a)
            assert np.max(np.abs(sol.values[:, :, a, a:] - ref)) < 1e-12
        B, D = dressing_rotation(p).jet(p.u)
        assert B.dtype == D.dtype == np.float64

    def test_imaginary_literal_solves_in_complex(self):
        phi = {
            (0, 1): expr.parse(
                "(1+0.5i)*0.05*exp(-40*((u1+0.2)^2 + (u2+0.3)^2))", 2),
            (0, 0): expr.parse(
                "0.05*(u1-u2)*exp(-30*((u1+0.25)^2 + (u2+0.25)^2))", 2),
        }
        p = DressingProblem(2, phi, np.array([0.3, 0.4]), 0.0, 1.0, 32)
        k = build_kernel(p)
        assert k.values.dtype == np.complex128
        assert np.any(k.values.imag)
        sol = solve_integral_equation(k, rows=[0])
        assert sol.values.dtype == np.complex128
        ref = neumann_solution(k, 0)
        assert np.max(np.abs(sol.values[:, :, 0, 0:] - ref)) < 1e-8
        beta = dressing_rotation(p).value(p.u)
        assert beta.dtype == np.complex128
        assert np.max(np.abs(beta - ref[:, :, 0].T)) < 1e-8


class TestIntegralEquation:
    def test_matches_neumann_series(self):
        k = build_kernel(gaussian_problem(m=33))
        sol = solve_integral_equation(k)
        for a in (0, 10, 20):
            ref = neumann_solution(k, a)
            assert np.max(np.abs(sol.values[:, :, a, a:] - ref)) < 1e-12

    def test_small_kernel_recovers_rhs(self):
        # tiny kernel: K is F plus a second-order correction
        phi = {(0, 1): expr.parse(
            "0.0001*exp(-40*((u1+0.2)^2 + (u2+0.3)^2))", 2
        )}
        p = DressingProblem(2, phi, np.array([0.3, 0.4]), 0.0, 1.0, 17)
        k = build_kernel(p)
        sol = solve_integral_equation(k)
        assert np.nanmax(np.abs(sol.values - k.values)) < 1e-6

    def test_singular_operator_raised(self):
        # N = 1 and F = 1/sum(w): row 0's matrix I - F w^T maps the
        # constants to zero
        nodes = np.linspace(0.0, 1.0, 17)
        F = np.full((1, 1, 17, 17), 1.0 / _row_weights(nodes, 0).sum())
        with pytest.raises(SingularOperator) as exc, \
                pytest.warns(TruncationWarning):
            solve_integral_equation(KernelGrid(F, nodes), rows=[0])
        assert exc.value.row == 0
        assert not exc.value.cond <= zakharov.COND_LIMIT

    def test_truncation_warning_for_slow_decay(self):
        phi = {(0, 1): expr.parse("u1*u2", 2)}
        p = DressingProblem(2, phi, np.zeros(2), 0.0, 1.0, 8)
        k = build_kernel(p)
        with pytest.warns(TruncationWarning):
            solve_integral_equation(k, rows=[0])

    def test_condition_number_is_one_norm_cond(self):
        k = build_kernel(criterion7_problem(m=33))
        sol = solve_integral_equation(k, rows=[0, 7, 31])
        for a in (0, 7, 31):
            A, _ = _row_operator(k.values, k.nodes, a)
            want = np.linalg.cond(A, 1)
            assert abs(sol.cond[a] - want) <= 1e-10 * want

    def test_rows_subset_leaves_others_nan(self):
        k = build_kernel(gaussian_problem(m=17))
        sol = solve_integral_equation(k, rows=[3])
        assert sol.rows == [3]
        assert np.all(np.isfinite(sol.values[:, :, 3, :]))
        assert np.all(np.isnan(sol.values[:, :, 4, :]))

    @pytest.mark.parametrize("row", [17, 100, -1, 2.0, True])
    def test_row_outside_nodes_rejected(self, row):
        k = build_kernel(gaussian_problem(m=17))
        with pytest.raises(ValueError, match=f"row {row!r} .* 0..16"):
            solve_integral_equation(k, rows=[0, row])


class TestExtractBeta:
    def test_index_order_transposed_diagonal(self):
        k = build_kernel(gaussian_problem(m=9))
        sol = solve_integral_equation(k)
        beta = extract_beta(sol)
        for a in range(9):
            assert np.array_equal(beta[:, :, a], sol.values[:, :, a, a].T)

    def test_refinement_converges(self):
        # beta at s_0 from m and 2m-1 nodes agree to O(h^2)
        b_c = extract_beta(
            solve_integral_equation(build_kernel(gaussian_problem(m=33)))
        )[:, :, 0]
        b_f = extract_beta(
            solve_integral_equation(build_kernel(gaussian_problem(m=65)))
        )[:, :, 0]
        assert np.max(np.abs(b_c - b_f)) < 1e-4


class TestReduction:
    def test_ratio_transports_solution_exactly(self):
        # solving the scaled kernel equals scaling the solved kernel
        f = [expr.parse("u1+3", 1), expr.parse("u1+3", 1)]
        p = gaussian_problem(m=25, f=f)
        k = build_kernel(p)
        ratio = reduction_ratio(p)
        sol_raw = solve_integral_equation(k, rows=[0])
        sol_red = solve_integral_equation(reduce_kernel(k, p), rows=[0])
        lhs = sol_red.values[:, :, 0, :]
        rhs = ratio[:, :, 0, :] * sol_raw.values[:, :, 0, :]
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_double_reduction_rejected(self):
        f = [expr.parse("u1+3", 1), expr.parse("u1+3", 1)]
        p = gaussian_problem(m=9, f=f)
        k = reduce_kernel(build_kernel(p), p)
        with pytest.raises(ValueError):
            reduce_kernel(k, p)

    def test_missing_f_rejected(self):
        p = gaussian_problem(m=9)
        with pytest.raises(ValueError):
            reduction_ratio(p)


class TestDressingRotation:
    def test_produced_coefficients_satisfy_system(self):
        p = gaussian_problem(m=65)
        b = dressing_rotation(p)
        r1, r2 = lame_residuals(b, [p.u])
        assert max(r1, r2) < 1e-4

    def test_value_matches_full_solve(self):
        p = gaussian_problem(m=33)
        b = dressing_rotation(p)
        direct = extract_beta(
            solve_integral_equation(build_kernel(p), rows=[0])
        )[:, :, 0]
        assert np.max(np.abs(b.value(p.u) - direct)) < 1e-14

    def test_exact_partials_match_finite_differences(self):
        for u in ((0.3, 0.4), (0.25, 0.45)):
            p = criterion7_problem(m=64, u=u)
            b = dressing_rotation(p)
            fd = RotationCoeffs.from_callable(2, b.value)
            value, deriv = b.jet(p.u)
            assert np.array_equal(value, b.value(p.u))
            assert np.max(np.abs(deriv)) > 1e-3
            assert np.max(np.abs(deriv - fd.deriv(p.u))) <= 1e-7

    def test_kernel_partials_match_central_differences(self):
        p = criterion7_problem(m=17)
        F, dF = _tabulate(p.Phi, p.u, p.nodes, 2)
        assert np.array_equal(F, build_kernel(p).values)
        h = 1e-5
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (_tabulate(p.Phi, p.u + e, p.nodes, 1)[0]
                  - _tabulate(p.Phi, p.u - e, p.nodes, 1)[0]) / (2 * h)
            # dF[k] is [i, a, j, b]; fd is [i, j, a, b]
            dk = dF[k].swapaxes(1, 2)
            assert np.max(np.abs(dk - fd)) < 1e-6 * np.max(np.abs(dk))
