"""Rotation coefficients, orthogonal-system residuals, and the grid format."""

import struct

import numpy as np
import pytest

from flatpencil import expr, zakharov
from flatpencil.compat import MetricPair, check_flat_pencil, sample_points
from flatpencil.geometry import CONTRAVARIANT
from flatpencil.lame import (
    LameData,
    RotationCoeffs,
    assemble_pair,
    diagonal_pair,
    lame_residuals,
    read_beta_grid,
    reduction_residual,
    rotation_from_H,
    scaled_rotation,
    write_beta_grid,
)

PTS = sample_points(2, 8, seed=2, lo=0.5, hi=2.0)
PTS3 = sample_points(3, 6, seed=5, lo=0.4, hi=1.2)
F_ID = [expr.parse("u1", 1), expr.parse("u1", 1)]
LAMS = [(1.0, 1.0), (3.0, 1.0), (2.0, 3.0), (1.0, 0.5j)]


def polar():
    return LameData([expr.parse("1", 2), expr.parse("u1", 2)], F_ID)


class TestRotationFromH:
    def test_polar(self):
        b = rotation_from_H(polar()).value([1.7, 0.4])
        assert b[0, 1] == pytest.approx(1.0)
        assert b[1, 0] == pytest.approx(0.0)

    def test_constant_H_gives_zero(self):
        d = LameData([expr.parse("2", 2), expr.parse("5", 2)], F_ID)
        assert np.max(np.abs(rotation_from_H(d).value([1.0, 1.0]))) == 0.0

    def test_shared_exponential(self):
        e = expr.parse("exp(u1+u2)", 2)
        d = LameData([e, e], F_ID)
        b = rotation_from_H(d).value([0.3, 0.8])
        assert b[0, 1] == pytest.approx(1.0)
        assert b[1, 0] == pytest.approx(1.0)


class TestLameResiduals:
    def test_polar_satisfies_system(self):
        r1, r2 = lame_residuals(rotation_from_H(polar()), PTS)
        assert r1 < 1e-14 and r2 < 1e-14

    def test_zero_rotation(self):
        zero = expr.parse("0", 2)
        b = RotationCoeffs.from_fields([[zero, zero], [zero, zero]])
        assert lame_residuals(b, PTS) == (0.0, 0.0)

    def test_hand_crafted_violation_at_n3(self):
        zero = expr.parse("0", 3)
        rows = [[zero] * 3 for _ in range(3)]
        rows[0][1] = expr.parse("u3", 3)
        b = RotationCoeffs.from_fields(rows)
        r1, _ = lame_residuals(b, PTS3)
        assert r1 == pytest.approx(1.0)

    def test_divergence_residual_detected(self):
        zero = expr.parse("0", 2)
        rows = [[zero, expr.parse("u1", 2)], [zero, zero]]
        b = RotationCoeffs.from_fields(rows)
        _, r2 = lame_residuals(b, PTS)
        assert r2 == pytest.approx(1.0)

    def test_spherical_coordinates_satisfy_system(self):
        H = [expr.parse("1", 3), expr.parse("u1", 3),
             expr.parse("u1*sin(u2)", 3)]
        d = LameData(H, [expr.parse("1", 1)] * 3)
        r1, r2 = lame_residuals(rotation_from_H(d), PTS3)
        assert r1 < 1e-13 and r2 < 1e-13


class TestReductionResidual:
    def test_constant_f_reduces_to_divergence_equations(self):
        d = polar()
        ones = [expr.parse("1", 1), expr.parse("1", 1)]
        b = rotation_from_H(d)
        _, r2 = lame_residuals(b, PTS)
        assert reduction_residual(b, ones, PTS) == pytest.approx(r2, abs=1e-14)

    def test_polar_with_coordinate_eigenvalues(self):
        # beta_12 = 1 constant, f = (u1, u2): residual is f'/2 = 1/2
        b = rotation_from_H(polar())
        assert reduction_residual(b, F_ID, PTS) == pytest.approx(0.5)

    def test_zero_rotation_any_f(self):
        zero = expr.parse("0", 2)
        b = RotationCoeffs.from_fields([[zero, zero], [zero, zero]])
        assert reduction_residual(b, F_ID, PTS) == 0.0


class TestFailClosed:
    def test_nonfinite_partials_are_not_skipped(self):
        # finite beta everywhere, NaN partials at the second point only
        def value(u):
            return np.array([[0.0, u[0]], [u[1], 0.0]], dtype=complex)

        def jet(u):
            der = np.zeros((2, 2, 2), dtype=complex)
            if np.array_equal(u, PTS[1]):
                der[:] = np.nan
            return value(u), der

        b = RotationCoeffs(2, value, jet)
        _, r2 = lame_residuals(b, PTS)
        assert not np.isfinite(r2)
        assert not np.isfinite(reduction_residual(b, F_ID, PTS))


def pointwise_residuals(b, fv, fd, points):
    """Reference loops over points and indices: (system, divergence,
    reduction) with f^i values fv(p) and derivatives fd(p)."""
    n = b.dim
    sys_r, div_r, red_r = [0.0], [0.0], [0.0]
    for p in points:
        B, D = b.jet(p)
        f, df = fv(p), fd(p)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                others = [s for s in range(n) if s not in (i, j)]
                sys_r += [abs(D[k, i, j] - B[i, k] * B[k, j]) for k in others]
                div = D[i, i, j] + D[j, j, i]
                red = (f[i] * D[i, i, j] + 0.5 * df[i] * B[i, j]
                       + f[j] * D[j, j, i] + 0.5 * df[j] * B[j, i])
                for s in others:
                    div += B[s, i] * B[s, j]
                    red += f[s] * B[s, i] * B[s, j]
                div_r.append(abs(div))
                if i < j:
                    red_r.append(abs(red))
    return max(sys_r), max(div_r), max(red_r)


class TestBatchedEvaluation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_pointwise_loops(self, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(0.5, 1.5, size=(5, n))
        def cnormal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        Bs, Ds = cnormal(len(pts), n, n), cnormal(len(pts), n, n, n)
        row = {tuple(p): k for k, p in enumerate(pts)}

        def jet(u):
            k = row[tuple(u)]
            return Bs[k], Ds[k]

        b = RotationCoeffs(n, lambda u: jet(u)[0], jet)
        texts = ("u1^2+1", "3*u1", "exp(u1)", "2-u1")[:n]
        f = [expr.parse(t, 1) for t in texts]
        fv = lambda p: [fi(p[i:i + 1]) for i, fi in enumerate(f)]
        fd = lambda p: [fi.eval_jet(p[i:i + 1], 1).grad[0]
                        for i, fi in enumerate(f)]
        ref = pointwise_residuals(b, fv, fd, pts)
        got = (*lame_residuals(b, pts), reduction_residual(b, f, pts))
        # same arithmetic in the same order; complex abs may differ in
        # the last bit between numpy's array and scalar routines
        assert got == pytest.approx(ref, rel=4 * np.finfo(float).eps)
        assert (got[0] == 0.0) == (n == 2)

    def test_batched_jet_equals_per_point_stack(self):
        b = rotation_from_H(LameData(
            [expr.parse("1", 3), expr.parse("u1", 3),
             expr.parse("u1*sin(u2)", 3)], [F_ID[0]] * 3))
        for src in (b, RotationCoeffs.from_callable(3, b.value)):
            B, D = src.jet(PTS3)
            assert B.shape == (6, 3, 3) and D.shape == (6, 3, 3, 3)
            for k, p in enumerate(PTS3):
                B1, D1 = src.jet(p)
                assert np.array_equal(B[k], B1) and np.array_equal(D[k], D1)

    def test_field_route_one_evaluation_per_entry(self, count_calls):
        b = rotation_from_H(polar())
        jets = count_calls(expr.ScalarField, "eval_jet")
        b.jet(PTS)
        # the two off-diagonal entries at N = 2, each once, in one call
        assert len(jets) == 1
        assert jets[0].ast.fields == (b.beta_fields[0][1], b.beta_fields[1][0])

    def test_one_variable_source_has_no_entries_to_evaluate(self,
                                                            count_calls):
        b = RotationCoeffs.from_fields([[expr.parse("u1", 1)]])
        jets = count_calls(expr.ScalarField, "eval_jet")
        B, D = b.jet(PTS[:, :1])
        assert jets == [] and not B.any() and not D.any()
        assert B.shape == (8, 1, 1) and D.shape == (8, 1, 1, 1)

    def test_reduction_evaluates_each_f_once(self, count_calls):
        pts = sample_points(2, 10, seed=3, lo=0.5, hi=2.0)
        b = rotation_from_H(polar())
        jets = count_calls(expr.ScalarField, "eval_jet")
        partials = count_calls(expr.ScalarField, "partial")
        reduction_residual(b, F_ID, pts)
        # the N(N-1) entries in one batched b.jet, the f^i in one more call
        assert len(jets) == 1 + 1
        assert [len(j.ast.fields) for j in jets] == [2, 2]
        assert partials == []


def parent_residuals(b, f, points):
    """The residual code as it was before the shared core, kept as the
    reference: lame_residuals' (system, divergence) and reduction_residual,
    each from its own b.jet call."""
    n = b.dim
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    s = np.arange(n)
    outside = (s[:, None, None] != s[:, None]) & (s[:, None, None] != s)
    off = ~np.eye(n, dtype=bool)
    B, D = b.jet(pts)
    system = D - np.swapaxes(B, 1, 2)[..., None] * B[:, :, None, :]
    dD = np.einsum("piij->pij", D)
    acc = dD + np.swapaxes(dD, 1, 2)
    for s, keep in enumerate(outside):
        acc += np.where(keep, B[:, s, :, None] * B[:, s, None, :], 0)
    r1 = float(np.max(np.abs(system[:, outside & off]), initial=0.0))
    r2 = float(np.max(np.abs(acc[:, off]), initial=0.0))

    B, D = b.jet(pts)
    jets = [fi.eval_jet(pts[:, i:i + 1], 1) for i, fi in enumerate(f)]
    fv = np.stack([j.value for j in jets], axis=-1)
    half_fd = 0.5 * np.stack([j.grad[:, 0] for j in jets], axis=-1)
    x = fv[:, :, None] * np.einsum("piij->pij", D)
    y = half_fd[:, :, None] * B
    acc = x + y + np.swapaxes(x, 1, 2) + np.swapaxes(y, 1, 2)
    for s, keep in enumerate(outside):
        acc += np.where(keep, fv[:, s, None, None] * B[:, s, :, None]
                        * B[:, s, None, :], 0)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    return r1, r2, float(np.max(np.abs(acc[:, upper]), initial=0.0))


H_TEXTS = {
    2: ["exp(u1*u2)", "1+u1^2*u2"],
    3: ["1+u2*u3", "exp(u1-u3)", "u1*sin(u2)+2"],
    4: ["1+u1*u4", "exp(u2/2)+u3", "u1*u2+u3*u4", "2+sin(u1+u4)"],
}
F_TEXTS = ["u1+3", "2*u1+1", "exp(u1)", "u1^2+2"]
GAUSS = "{c}*exp(-40*((u1+{a})^2+(u2+0.3)^2))"


def field_source(n):
    H = [expr.parse(t, n) for t in H_TEXTS[n]]
    f = [expr.parse(t, 1) for t in F_TEXTS[:n]]
    return rotation_from_H(LameData(H, f)), f


def dressed_source(n):
    phi = {(i, j): expr.parse(GAUSS.format(c=0.05 / (i + j), a=0.1 * j), 2)
           for i in range(n) for j in range(i + 1, n)}
    u = np.linspace(0.3, 0.4, n)
    p = zakharov.DressingProblem(n, phi, u, 0.0, 1.0, 16)
    return zakharov.dressing_rotation(p), u


def hexes(values):
    return [float(v).hex() for v in values]


class TestOnePass:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("route", ["fields", "differences"])
    def test_equals_parent_on_closed_form_sources(self, n, route):
        b, f = field_source(n)
        if route == "differences":
            b = RotationCoeffs.from_callable(n, b.value)
        pts = sample_points(n, 5, seed=n, lo=0.4, hi=1.2)
        ref = parent_residuals(b, f, pts)
        assert hexes(lame_residuals(b, pts, f)) == hexes(ref)
        assert hexes(lame_residuals(b, pts)) == hexes(ref[:2])
        assert reduction_residual(b, f, pts).hex() == ref[2].hex()
        # the system equations are vacuous at N = 2; no equation holds here
        assert min(ref[1:]) > 1e-3 and (ref[0] > 1e-3) == (n > 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_parent_with_complex_f(self, n):
        # every f^i complex-closed: the stack of them computes in complex
        # arithmetic, as each of them does on its own
        b, _ = field_source(n)
        f = [expr.parse(t, 1) for t in
             ("sqrt(u1+3)", "ln(2*u1+1)", "sqrt(u1)*u1", "(0.5+1i)*u1")[:n]]
        pts = sample_points(n, 5, seed=n, lo=0.4, hi=1.2)
        ref = parent_residuals(b, f, pts)
        assert hexes(lame_residuals(b, pts, f)) == hexes(ref)

    @pytest.mark.parametrize("n", [2, 3])
    def test_equals_parent_on_dressed_sources(self, n):
        b, u = dressed_source(n)
        f = [expr.parse(t, 1) for t in F_TEXTS[:n]]
        pts = u + np.array([[0.0] * n, [0.01] * n, [-0.02] + [0.0] * (n - 1)])
        ref = parent_residuals(b, f, pts)
        assert hexes(lame_residuals(b, pts, f)) == hexes(ref)
        assert reduction_residual(b, f, pts).hex() == ref[2].hex()
        assert ref[2] > 1e-6

    def test_dressed_rows_solved_once_per_point(self, count_calls):
        rows = count_calls(zakharov._DressedRow, "jet")
        b, u = dressed_source(2)
        pts = u + np.array([[0.0, 0.0], [0.01, 0.0], [0.0, 0.02]])
        lame_residuals(b, pts, F_ID)
        assert len(rows) == 3

    def test_nonfinite_value_fails_divergence_at_n2(self):
        # at N = 2 there is no s-sum, so the value of beta enters the
        # divergence only through the (f^i)'/2 terms, here 0 * NaN
        def value(u):
            return np.array([[0.0, np.nan], [u[1], 0.0]], dtype=complex)

        def jet(u):
            return value(u), np.ones((2, 2, 2), dtype=complex)

        b = RotationCoeffs(2, value, jet)
        assert np.isfinite(parent_residuals(b, F_ID, PTS)[1])
        system, divergence = lame_residuals(b, PTS)
        assert system == 0.0 and np.isnan(divergence)


class TestScalingProperty:
    def test_scaled_rotation_keeps_system_equations(self):
        H = [expr.parse("1", 3), expr.parse("u1", 3),
             expr.parse("u1*sin(u2)", 3)]
        d = LameData(H, [expr.parse("u1+3", 1)] * 3)
        b = rotation_from_H(d)
        bs = scaled_rotation(b, d.f)
        r1, _ = lame_residuals(bs, PTS3)
        assert r1 < 1e-13

    def test_scaled_divergence_equals_reduction(self):
        # the divergence equations of the scaled coefficients are exactly
        # the linear-in-f reduction of the originals
        H = [expr.parse("exp(u1*u2)", 2), expr.parse("exp(u1*u2)", 2)]
        f = [expr.parse("u1+3", 1), expr.parse("2*u1+1", 1)]
        d = LameData(H, f)
        b = rotation_from_H(d)
        bs = scaled_rotation(b, f)
        _, r2_scaled = lame_residuals(bs, PTS)
        red = reduction_residual(b, f, PTS)
        # both residuals vanish or not together; compare magnitudes via the
        # sqrt(f^i f^j) factor bound on the box
        assert (r2_scaled < 1e-10) == (red < 1e-10)

    def test_grid_backed_rotation_rejected(self):
        b = RotationCoeffs.from_callable(2, lambda u: np.zeros((2, 2)))
        with pytest.raises(ValueError):
            scaled_rotation(b, F_ID)


class TestAssemblePair:
    def test_euclidean_assembly(self):
        d = LameData([expr.parse("1", 2), expr.parse("1", 2)], F_ID)
        g1, g2 = assemble_pair(d)
        assert g1.values([0.7, 1.3]) == pytest.approx(np.diag([0.7, 1.3]))
        assert g2.values([0.7, 1.3]) == pytest.approx(np.eye(2))

    def test_equal_metrics_for_unit_f(self):
        d = LameData([expr.parse("1", 2), expr.parse("u1", 2)],
                     [expr.parse("1", 1), expr.parse("1", 1)])
        g1, g2 = assemble_pair(d)
        p = [1.4, 0.6]
        assert g1.values(p) == pytest.approx(g2.values(p))

    @pytest.mark.parametrize("n", [2, 3])
    def test_diagonal_pair_of_signed_weights(self, n):
        w = [expr.parse(t, n) for t in ("-(2+u1^2)", "1/(1+u2^2)", "-3")][:n]
        f = [expr.parse(t, 1) for t in ("u1", "exp(u1)", "2*u1+1")][:n]
        g1, g2 = diagonal_pair(w, f)
        pts = PTS if n == 2 else PTS3
        assert g1.variance == g2.variance == CONTRAVARIANT
        assert all(g2.entries[i][i] is w[i] for i in range(n))
        wv = np.stack([wi.eval_jet(pts, 0).value for wi in w], axis=-1)
        fv = np.stack([fi.eval_jet(pts[:, i:i + 1], 0).value
                       for i, fi in enumerate(f)], axis=-1)
        assert (wv.real < 0).any() and (wv.real > 0).any()
        assert np.allclose(g2.values(pts), wv[:, :, None] * np.eye(n),
                           rtol=1e-15, atol=0)
        assert np.allclose(g1.values(pts), (fv * wv)[:, :, None] * np.eye(n),
                           rtol=1e-15, atol=0)

    def test_equivalence_on_polar_family(self):
        d = polar()
        b = rotation_from_H(d)
        r1, r2 = lame_residuals(b, PTS)
        r3 = reduction_residual(b, d.f, PTS)
        residual_side = max(r1, r2, abs(r3)) < 1e-9
        g1, g2 = assemble_pair(d)
        flat = check_flat_pencil(
            MetricPair(g1, g2, PTS, lambda_samples=LAMS)
        ).passed
        assert flat == residual_side  # both False here
        assert not flat


class TestGridRoute:
    def test_callable_derivatives_match_fields(self):
        d = polar()
        b_fields = rotation_from_H(d)
        b_grid = RotationCoeffs.from_callable(2, b_fields.value)
        p = np.array([1.3, 0.8])
        assert np.max(
            np.abs(b_grid.deriv(p) - b_fields.deriv(p))
        ) < 1e-10

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        beta = rng.standard_normal((3, 3, 7)) + 1j * rng.standard_normal(
            (3, 3, 7)
        )
        path = tmp_path / "beta.bin"
        write_beta_grid(path, beta, -1.0, 2.5)
        back, s_min, s_max = read_beta_grid(path)
        assert np.array_equal(back, beta)
        assert (s_min, s_max) == (-1.0, 2.5)

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        # the header, then (re, im) float64 pairs in row-major order,
        # written out by hand; signed zeros, infinities and NaN included
        values = [1.5, -0.0, complex(np.nan, 2.0), complex(-0.0, -0.0),
                  complex(3.0, np.inf), -2.25j, 1e-300, complex(7.0, -8.0)]
        beta = np.array(values, dtype=complex).reshape(2, 2, 2)
        path = tmp_path / "beta.bin"
        write_beta_grid(path, beta, -1.0, 2.5)
        want = struct.pack("<qqdd", 2, 2, -1.0, 2.5) + b"".join(
            struct.pack("<dd", complex(v).real, complex(v).imag)
            for v in values)
        assert path.read_bytes() == want
        back, _, _ = read_beta_grid(path)
        assert back.tobytes() == beta.tobytes()
        back[0, 0, 0] = 0  # a fresh, writable array

    def test_real_beta_reads_back_complex(self, tmp_path):
        # a real kernel gives a float64 beta; the file holds '<c16' still
        beta = np.random.default_rng(1).standard_normal((2, 2, 5))
        path = tmp_path / "beta.bin"
        write_beta_grid(path, beta, 0.0, 1.0)
        back, _, _ = read_beta_grid(path)
        assert back.dtype == np.dtype("<c16")
        assert np.array_equal(back.real, beta) and not np.any(back.imag)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "beta.bin"
        write_beta_grid(path, np.zeros((2, 2, 4), dtype=complex), 0.0, 1.0)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            read_beta_grid(path)
