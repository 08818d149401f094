"""Expression parsing and derivative-jet propagation."""

import numpy as np
import pytest

from flatpencil import expr
from flatpencil.errors import ArityError, DomainError, ParseError


def fd_grad(f, p, h=1e-6):
    out = np.zeros(len(p), dtype=complex)
    for k in range(len(p)):
        e = np.zeros(len(p))
        e[k] = h
        out[k] = (f(p + e) - f(p - e)) / (2 * h)
    return out


def fd_hess(f, p, h=1e-4):
    n = len(p)
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            ek = np.zeros(n)
            el = np.zeros(n)
            ek[k] = h
            el[l] = h
            out[k, l] = (
                f(p + ek + el) - f(p + ek - el) - f(p - ek + el)
                + f(p - ek - el)
            ) / (4 * h * h)
    return out


class TestParsing:
    def test_basic_arithmetic(self):
        f = expr.parse("u1*u2 + u1^2 - 3/u2", 2)
        assert f(np.array([2.0, 1.0])) == pytest.approx(2 + 4 - 3)

    def test_precedence_and_unary_minus(self):
        f = expr.parse("-u1^2", 1)
        assert f(np.array([3.0])) == pytest.approx(-9.0)

    def test_functions(self):
        f = expr.parse("exp(u1) + ln(u2) + sin(u1)*cos(u2) + sqrt(u2)", 2)
        p = np.array([0.5, 2.0])
        want = np.exp(0.5) + np.log(2) + np.sin(0.5) * np.cos(2) + np.sqrt(2)
        assert f(p) == pytest.approx(want)

    def test_complex_literals(self):
        assert expr.parse("2+3i", 1)(np.array([0.0])) == pytest.approx(2 + 3j)
        assert expr.parse("i*u1", 1)(np.array([5.0])) == pytest.approx(5j)
        assert expr.parse("1.5i", 1)(np.array([0.0])) == pytest.approx(1.5j)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            expr.parse("u1 +", 1)
        with pytest.raises(ParseError):
            expr.parse("bogus(u1)", 1)
        with pytest.raises(ParseError):
            expr.parse("", 1)
        with pytest.raises(ParseError):
            expr.parse("u1^u1", 1)  # exponent must be an integer literal

    def test_arity_error(self):
        with pytest.raises(ArityError):
            expr.parse("u3", 2)

    def test_source_roundtrip_evaluates(self):
        f = expr.parse("exp(u1*u2)", 2)
        assert "u1" in f.source_text

    def test_repeated_text_shares_ast_not_field(self):
        a = expr.parse("exp(u1*u2) + u2", 2)
        b = expr.parse("exp(u1*u2) + u2", 2)
        assert a is not b
        assert a.ast is b.ast
        assert expr.parse("exp(u1*u2) + u2", 3).ast is not a.ast


class TestJets:
    def test_known_gradient_and_hessian(self):
        f = expr.parse("exp(u1*u2)", 2)
        jet = f.eval_jet(np.array([1.0, 1.0]), 2)
        e = np.e
        assert jet.value == pytest.approx(e)
        assert jet.grad == pytest.approx(np.array([e, e]))
        assert jet.hess == pytest.approx(np.array([[e, 2 * e], [2 * e, e]]))

    def test_third_order_exact(self):
        f = expr.parse("u1^3 * u2", 2)
        jet = f.eval_jet(np.array([2.0, 5.0]), 3)
        # d3/du1^3 = 6*u2, d3/du1^2du2 = 6*u1
        assert jet.third[0, 0, 0] == pytest.approx(30.0)
        assert jet.third[0, 0, 1] == pytest.approx(12.0)
        assert jet.third[0, 1, 0] == pytest.approx(12.0)

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        f = expr.parse("exp(u1*u2)*sin(u1)/(1+u2^2) + sqrt(u1+u2)", 2)
        for _ in range(20):
            p = rng.uniform(0.3, 1.5, size=2)
            jet = f.eval_jet(p, 3)
            assert np.array_equal(jet.hess, jet.hess.T)
            for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
                assert np.array_equal(jet.third, np.transpose(jet.third, perm))

    def test_batch_evaluation(self):
        f = expr.parse("u1*u2^2", 2)
        pts = np.array([[1.0, 2.0], [3.0, 1.0], [0.5, 4.0]])
        jet = f.eval_jet(pts, 2)
        assert jet.value.shape == (3,)
        assert jet.grad.shape == (3, 2)
        assert jet.hess.shape == (3, 2, 2)
        for row, p in zip(range(3), pts):
            single = f.eval_jet(p, 2)
            assert jet.value[row] == pytest.approx(single.value)
            assert jet.grad[row] == pytest.approx(single.grad)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expr.parse("ln(u1-u2)", 2).eval_jet(np.array([1.0, 1.0]), 0)
        with pytest.raises(DomainError):
            expr.parse("1/u1", 1).eval_jet(np.array([0.0]), 0)
        with pytest.raises(DomainError):
            expr.parse("sqrt(u1)", 1).eval_jet(np.array([0.0]), 1)

    def test_nonfinite_derivative_raises(self):
        f = expr.parse("exp(u1^2)", 1)
        assert np.isfinite(f.eval_jet([26.6], 0).value)
        with pytest.raises(DomainError), np.errstate(over="ignore"):
            f.eval_jet([26.6], 1)

    def test_slots_above_order_not_stored(self):
        f = expr.parse("exp(u1*u2)*sin(u1)/(1+u2^2) + sqrt(u1+u2)", 2)
        pts = np.random.default_rng(1).uniform(0.3, 1.2, size=(64, 64, 2))
        full = f.eval_jet(pts, 3)
        for order in range(3):
            jet = f.eval_jet(pts, order)
            slots = (jet.value, jet.grad, jet.hess, jet.third)
            assert all(s is None for s in slots[order + 1:])
            for got, want in zip(slots[: order + 1], full.slots()):
                assert np.array_equal(got, want)

    def test_negative_power_at_zero(self):
        with pytest.raises(DomainError):
            expr.parse("u1^-2", 1).eval_jet(np.array([0.0]), 0)
        # nonnegative powers are fine at zero
        jet = expr.parse("u1^3", 1).eval_jet(np.array([0.0]), 3)
        assert jet.third[0, 0, 0] == pytest.approx(6.0)


def mirror_loops(t, rank):
    """The per-index-tuple loops that symmetrized jets before, kept as the
    reference: each sorted-index entry is copied to its permutations."""
    n = t.shape[-1]
    if rank == 2:
        for a in range(n):
            for b in range(a + 1, n):
                t[..., b, a] = t[..., a, b]
        return t
    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                v = t[..., a, b, c]
                t[..., a, c, b] = v
                t[..., b, a, c] = v
                t[..., b, c, a] = v
                t[..., c, a, b] = v
                t[..., c, b, a] = v
    return t


class TestSymmetrize:
    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_equals_index_loops(self, rank, n, batch):
        rng = np.random.default_rng(10 * rank + n)
        shape = batch + (n,) * rank
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = mirror_loops(t.copy(), rank)
        got = expr._symmetrize(t, rank)
        assert got is t
        assert got.tobytes() == ref.tobytes()
        # every entry now equals the one at its sorted index tuple
        for idx in np.ndindex(*(n,) * rank):
            assert np.array_equal(got[(...,) + idx],
                                  got[(...,) + tuple(sorted(idx))])


class TestDerivedFields:
    def test_partial_field(self):
        f = expr.parse("u1^2*u2", 2)
        df = f.partial(0)
        assert df(np.array([3.0, 2.0])) == pytest.approx(12.0)

    def test_partial_field_supports_order_two(self):
        f = expr.parse("exp(u1*u2)", 2)
        df = f.partial(0)
        jet = df.eval_jet(np.array([0.7, 0.4]), 2)
        num = fd_hess(lambda p: df(p), np.array([0.7, 0.4]))
        assert jet.hess == pytest.approx(num, rel=1e-5, abs=1e-6)

    def test_embed(self):
        g = expr.parse("u1^2", 1)
        lifted = expr.embed(g, 2, 3)
        assert lifted(np.array([1.0, 5.0, 4.0])) == pytest.approx(16.0)
        jet = lifted.eval_jet(np.array([1.0, 5.0, 4.0]), 1)
        assert jet.grad == pytest.approx(np.array([0.0, 0.0, 8.0]))

    def test_operator_overloading(self):
        a = expr.parse("u1", 1)
        combo = 2 * a + a * a - a / 2 + 3
        assert combo(np.array([4.0])) == pytest.approx(8 + 16 - 2 + 3)


class TestRandomFieldsAgainstFiniteDifferences:
    def _random_field(self, rng, dim):
        coeffs = rng.uniform(-0.5, 0.5, size=6)
        vs = [f"u{k+1}" for k in range(dim)]
        v1 = vs[0]
        v2 = vs[rng.integers(0, dim)]
        pieces = [
            f"({coeffs[0]:.4f})*exp(({coeffs[1]:.4f})*{v1})",
            f"({coeffs[2]:.4f})*sin({v2})",
            f"({coeffs[3]:.4f})*{v1}*{v2}",
            f"({coeffs[4]:.4f})*{v2}^2",
            f"({coeffs[5]:.4f})",
        ]
        return expr.parse("+".join(pieces), dim)

    def test_two_hundred_random_fields(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            dim = int(rng.integers(1, 4))
            f = self._random_field(rng, dim)
            p = rng.uniform(0.3, 1.2, size=dim)
            jet = f.eval_jet(p, 2)
            g = fd_grad(lambda q: f(q), p)
            h = fd_hess(lambda q: f(q), p)
            scale_g = 1.0 + np.max(np.abs(g))
            scale_h = 1.0 + np.max(np.abs(h))
            assert np.max(np.abs(jet.grad - g)) / scale_g < 1e-6
            assert np.max(np.abs(jet.hess - h)) / scale_h < 1e-6
