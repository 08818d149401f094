"""Expression parsing and derivative-jet propagation."""

import itertools

import numpy as np
import pytest

from flatpencil import expr
from flatpencil.errors import ArityError, DomainError, ParseError
from flatpencil.geometry import MetricField


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
        # the field is immutable: parse returns the one it cached
        a = expr.parse("exp(u1*u2) + u2", 2)
        b = expr.parse("exp(u1*u2) + u2", 2)
        assert a is b
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

    def test_hessian_exactly_symmetric_on_complex_data(self):
        # no symmetrizing copy at rank 2: the terms themselves are symmetric
        rng = np.random.default_rng(4)
        f = expr.parse("exp((1+2i)*u1*u2)*sin(u1)/(1+u2^2) + sqrt(u1+0.5i*u3)"
                       " + (u1*u2*u3)^3", 3)
        pts = rng.uniform(0.3, 1.5, (64, 3)) + 1j * rng.uniform(-1, 1, (64, 3))
        jet = f.eval_jet(pts, 3)
        assert np.array_equal(jet.hess, np.swapaxes(jet.hess, -1, -2))
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.array_equal(
                jet.third, np.transpose(jet.third, (0,) + tuple(1 + p for p in perm)))

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


class TestRealClosed:
    """A real-closed field (no sqrt, no ln, no literal with a nonzero
    imaginary part) at real points is evaluated in float64; every other
    evaluation stays complex128."""

    REAL = "exp(-2*(u1+0.2)^2)*u2^-2 + sin(u1*u2)^3/(1+u2^2) - cos(u2)^-1"

    @pytest.mark.parametrize("text,real", [
        (REAL, True), ("u1 - 3", True), ("(2+0i)*u1", True),
        ("2i*u1 + u2", False), ("sqrt(u1 + u2)", False),
        ("ln(u1*u2)", False), ("u1 + exp(i)", False)])
    def test_verdict(self, text, real):
        f = expr.parse(text, 2)
        assert f.real_closed is real
        if real:  # a derivative of a real-closed field is real-closed
            assert f.partial(0).real_closed
        assert (f * 2j).real_closed is False

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("batch", [(), (6,), (5, 4)])
    def test_float64_slots_at_real_points(self, order, batch):
        f = expr.parse(self.REAL, 2)
        rng = np.random.default_rng(order)
        if len(batch) > 1:
            pts = grid_points(rng, batch, [(0,), (1,)])
        else:
            pts = rng.uniform(0.3, 1.2, size=batch + (2,))
        jet = f.eval_jet(pts, order)
        ref = f.eval_jet(pts.astype(complex), order)
        if not batch:
            assert type(jet.value) is float and type(ref.value) is complex
        for k, (got, want) in enumerate(zip(jet.slots(), ref.slots())):
            got, want = np.asarray(got), np.asarray(want)
            if batch or k:
                assert got.dtype == np.float64 and want.dtype == np.complex128
            assert got.shape == want.shape
            # the complex and real exp may differ in the last bit
            assert np.allclose(got, want.real, rtol=1e-14, atol=0)
            assert not np.any(want.imag)

    @pytest.mark.parametrize("text", [
        "2i*u1 + u2", "sqrt(u1 + u2)", "ln(u1*u2)", "u1^2*exp(u2)"])
    @pytest.mark.parametrize("batch", [(), (6,)])
    def test_complex_evaluations_unchanged(self, text, batch):
        # a real point of a field that is not real-closed gives the bits
        # of the complex point it was converted to before; a complex point
        # always evaluates in complex128
        f = expr.parse(text, 2)
        pts = np.random.default_rng(9).uniform(0.3, 1.2, size=batch + (2,))
        z = pts.astype(complex)
        want = f.eval_jet(z, 3)
        assert all(np.asarray(s).dtype == np.complex128 for s in want.slots())
        ref = parent_eval_jet(f, z, 3)
        for k in range(2):  # value and gradient: bit for bit
            assert hex_list(want.slots()[k]) == hex_list(ref.slots()[k])
        if not f.real_closed:
            got = f.eval_jet(pts, 3)
            for a, b in zip(got.slots(), want.slots()):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("text,want", [
        ("sqrt(-u1)", -1j), ("sqrt(0-u1)", 1j),
        ("ln(-u1)", complex(0.0, -np.pi))])
    def test_branch_cuts(self, text, want):
        # -(u1+0j) has a -0 imaginary part, 0-(u1+0j) a +0 one
        f = expr.parse(text, 1)
        assert f.eval_jet([1.0], 0).value == want
        assert f.eval_jet(np.ones((3, 1)), 0).value.tolist() == [want] * 3

    def test_int_power_is_complex_power_real_part(self):
        x = np.random.default_rng(0).uniform(-3, 3, 100000)
        for e in range(-4, 6):
            want = (x + 0j) ** complex(e)
            assert np.array_equal(expr._int_power(x, e), want.real)

    def test_real_reciprocal_is_complex_real_part(self):
        # 1/v, -1/v^2, 2/v^3, -6/v^4 by numpy's complex power
        x = np.random.default_rng(1).uniform(-3, 3, 100000)
        z = x + 0j
        want = [1.0 / z, -1.0 / z**2, 2.0 / z**3, -6.0 / z**4]
        for got, w in zip(expr._power_derivs(x, -1), want):
            assert np.array_equal(got, w.real)

    @pytest.mark.parametrize("e", range(-4, 6))
    def test_complex_power_at_real_points_is_float_power(self, e):
        # one routine for both dtypes: at real-valued complex points the
        # derivatives of v**e (of 1/v at e = -1) are the float64 bits
        x = np.random.default_rng(2).uniform(-3, 3, 4096)
        for z in (x + 0j, np.array([complex(v, -0.0) for v in x])):
            for got, want in zip(expr._power_derivs(z, e),
                                 expr._power_derivs(x, e)):
                assert got.real.tobytes() == want.tobytes()
                assert not got.imag.any()

    @pytest.mark.parametrize("power,product", [
        ("-u1^4", "-(u1*u1)*(u1*u1)"),
        ("-u1^6", "-(u1*u1)*((u1*u1)*(u1*u1))"),
        ("-u1^-4", "-1/((u1*u1)*(u1*u1))")])
    def test_power_zero_sign_is_its_products(self, power, product):
        # an integer power's zero imaginary part has the sign that the
        # products of binary powering give, so sqrt and ln after it take
        # the branch that the written-out product takes
        for func in ("sqrt", "ln"):
            f = expr.parse(f"{func}({power})", 1)
            g = expr.parse(f"{func}({product})", 1)
            for u in ([-0.5], [0.5], [[-0.5], [0.5]]):
                got, want = (np.asarray(h(u)).tobytes() for h in (f, g))
                assert got == want


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
    """Slots are packed inside an evaluation (sorted index tuples only);
    eval_jet's boundary copies each packed entry to its permutations, as
    the mirror loops did."""

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_equals_index_loops(self, rank, n, batch):
        rng = np.random.default_rng(10 * rank + n)
        shape = batch + (n,) * rank
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = mirror_loops(t.copy(), rank)
        slots = expr._zero_slots(n, rank, batch, complex)
        slots[-1] = np.stack([t[(...,) + idx] for idx in
                              itertools.combinations_with_replacement(
                                  range(n), rank)])
        jet = expr.Jet(n, rank, np.zeros(batch, dtype=complex), *slots)
        got = expr._batch_first(jet, n, rank, batch, complex).slots()[rank]
        assert got.tobytes() == ref.tobytes()
        # every entry equals the one at its sorted index tuple
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

    def test_reflected_operators_negation_and_powers(self):
        x, y = expr.variable(0, 2), expr.variable(1, 2)
        p = np.array([0.7, -1.3])
        cases = {
            "-(u1)": (-x, "-u1"),
            "(u2)^3": (y ** 3, "u2^3"),
            "(u1)^-2": (x ** -2, "u1^-2"),
            "(1.5)+(u1)": (1.5 + x, "1.5+u1"),
            "(2)-(u2)": (2 - y, "2-u2"),
            "(3)/(u1)": (3 / x, "3/u1"),
        }
        for text, (field, reference) in cases.items():
            assert field.source_text == text
            jet = field.eval_jet(p, 2)
            ref = expr.parse(reference, 2).eval_jet(p, 2)
            for k in ("value", "grad", "hess"):
                assert np.array_equal(getattr(jet, k), getattr(ref, k))
        with pytest.raises(TypeError, match="integer powers"):
            x ** 0.5
        with pytest.raises(ArityError):
            expr.variable(2, 2)

    @pytest.mark.parametrize("value, text", [
        (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan")])
    def test_nonfinite_constant_fails_at_evaluation(self, value, text):
        # the literal builds, keeps its float text and fails closed when
        # evaluated, whether alone or as a metric entry
        f = expr.constant(value, 2)
        assert f.source_text == text
        with pytest.raises(DomainError, match="non-finite"):
            f.eval_jet(np.array([0.5, 0.5]), 1)
        g = MetricField.diagonal([f, expr.constant(1.0, 2)])
        with pytest.raises(DomainError, match="non-finite"):
            g.entry_jets(np.array([0.5, 0.5]), 2)

    def test_constant_text_is_an_integer_only_when_exact(self):
        text = lambda c: expr.constant(c, 1).source_text
        assert text(1e300) == "1e+300"
        assert text(2.0**53) == "9007199254740992.0"
        assert text(2.0**53 - 1) == "9007199254740991"
        assert [text(-3.0), text(-0.0), text(0.5)] == ["-3", "0", "0.5"]

    def test_function_wrappers(self):
        x = expr.variable(0, 1)
        p = np.array([0.8])
        for name in ("ln", "sin", "cos"):
            field = getattr(expr, name)(2 * x)
            assert field.source_text == f"{name}((2)*(u1))"
            jet = field.eval_jet(p, 3)
            ref = expr.parse(f"{name}(2*u1)", 1).eval_jet(p, 3)
            for k in ("value", "grad", "hess", "third"):
                assert np.array_equal(getattr(jet, k), getattr(ref, k))

    def test_embed_negation_and_calls(self):
        g = expr.parse("-sin(u1)^2+cos(-u1)", 1)
        lifted = expr.embed(g, 1, 3)
        assert lifted.source_text == "-sin(u2)^2+cos(-u2)"
        p = np.array([5.0, 0.6, 4.0])
        jet = lifted.eval_jet(p, 2)
        ref = expr.parse("-sin(u2)^2+cos(-u2)", 3).eval_jet(p, 2)
        for k in ("value", "grad", "hess"):
            assert np.array_equal(getattr(jet, k), getattr(ref, k))
        assert jet.grad[0] == 0 and jet.grad[2] == 0


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


# The evaluator before constants were folded, kept as the reference: every
# Const became a batch-sized jet of zeros, every subtree was evaluated where
# it occurs, slots were full and batch first, and rank-2 products and
# compositions were symmetrized.  It runs in the dtype that eval_jet
# chooses (float64 or complex128), which its point carries; the
# elementary-function derivatives it uses are expr's; its tensor helpers
# follow.


def parent_zero_slots(n, order, batch_shape, dtype):
    return [np.zeros(batch_shape + (n,) * k, dtype=dtype)
            for k in range(1, order + 1)]


def parent_outer(a, b):
    return np.einsum("...i,...j->...ij", a, b)


def parent_sym_pair(h, v):
    """P[abc] = h_ab v_c + h_ac v_b + h_bc v_a (h symmetric)."""
    t = np.einsum("...ab,...c->...abc", h, v)
    return t + np.swapaxes(t, -1, -2) + np.moveaxis(t, -1, -3)


class ParentJet:
    def __init__(self, n, order, value, grad=None, hess=None, third=None):
        self.n, self.order = n, order
        self.value, self.grad, self.hess, self.third = value, grad, hess, third

    def slots(self):
        return (self.value, self.grad, self.hess, self.third)[: self.order + 1]

    @staticmethod
    def constant(c, n, order, batch_shape, dtype=complex):
        c = complex(c)
        value = np.full(batch_shape, c if dtype == complex else c.real,
                        dtype=dtype)
        return ParentJet(n, order, value,
                         *parent_zero_slots(n, order, batch_shape, dtype))

    @staticmethod
    def variable(i, point, order):
        n = point.shape[-1]
        j = ParentJet(n, order, point[..., i].copy(),
                      *parent_zero_slots(n, order, point.shape[:-1],
                                         point.dtype))
        if order >= 1:
            j.grad[..., i] = 1.0
        return j

    def __add__(self, other):
        return ParentJet(self.n, self.order,
                         *map(np.add, self.slots(), other.slots()))

    def __sub__(self, other):
        return ParentJet(self.n, self.order,
                         *map(np.subtract, self.slots(), other.slots()))

    def __neg__(self):
        return ParentJet(self.n, self.order, *map(np.negative, self.slots()))

    def __mul__(self, other):
        f, g = self, other
        fv = f.value[..., None]
        gv = g.value[..., None]
        out = ParentJet(f.n, f.order, f.value * g.value)
        if f.order >= 1:
            out.grad = f.grad * gv + fv * g.grad
        if f.order >= 2:
            out.hess = mirror_loops(
                f.hess * gv[..., None]
                + parent_outer(f.grad, g.grad)
                + parent_outer(g.grad, f.grad)
                + fv[..., None] * g.hess, 2)
        if f.order >= 3:
            out.third = mirror_loops(
                f.third * gv[..., None, None]
                + parent_sym_pair(f.hess, g.grad)
                + parent_sym_pair(g.hess, f.grad)
                + fv[..., None, None] * g.third, 3)
        return out

    def compose(self, derivs):
        d = list(itertools.islice(derivs, self.order + 1))
        out = ParentJet(self.n, self.order, d[0])
        if self.order >= 1:
            out.grad = d[1][..., None] * self.grad
        if self.order >= 2:
            out.hess = mirror_loops(
                d[1][..., None, None] * self.hess
                + d[2][..., None, None] * parent_outer(self.grad, self.grad), 2)
        if self.order >= 3:
            g1 = self.grad
            out.third = mirror_loops(
                d[1][..., None, None, None] * self.third
                + d[2][..., None, None, None] * parent_sym_pair(self.hess, g1)
                + d[3][..., None, None, None]
                * np.einsum("...a,...b,...c->...abc", g1, g1, g1), 3)
        return out

    def reciprocal(self):
        v = self.value
        if np.any(v == 0):
            raise DomainError("division by zero")
        return self.compose(expr._power_derivs(v, -1))

    def __truediv__(self, other):
        return self * other.reciprocal()

    def powi(self, e):
        v = self.value
        if e == 0:
            return ParentJet.constant(1.0, self.n, self.order, v.shape,
                                      v.dtype)
        if e < 0 and np.any(v == 0):
            raise DomainError("zero raised to a negative power")
        return self.compose(expr._power_derivs(v, e))


def parent_call_jet(func, j):
    v = j.value
    if func == "ln" and np.any(v == 0):
        raise DomainError("ln of zero")
    if func == "sqrt" and j.order >= 1 and np.any(v == 0):
        raise DomainError("sqrt derivative at zero")
    return j.compose(expr._CALL_DERIVS[func](v))


def parent_eval_node(node, point, order, calls=None):
    def ev(sub):
        return parent_eval_node(sub, point, order, calls)

    if isinstance(node, expr.Const):
        return ParentJet.constant(node.value, point.shape[-1], order,
                                  point.shape[:-1], point.dtype)
    if isinstance(node, expr.Var):
        return ParentJet.variable(node.index, point, order)
    if isinstance(node, expr.Neg):
        return -ev(node.arg)
    if isinstance(node, expr.BinOp):
        a, b = ev(node.left), ev(node.right)
        return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__,
                "/": a.__truediv__}[node.op](b)
    if isinstance(node, expr.Pow):
        return ev(node.base).powi(node.exponent)
    if calls is not None:
        calls.append(node.func)
    return parent_call_jet(node.func, ev(node.arg))


def parent_eval_jet(f, point, order):
    """The reference jet, in the dtype that f.eval_jet(point) uses."""
    pt = f._point(point)
    jet = parent_eval_node(f.ast, pt, order)
    for slot in jet.slots():
        if not np.isfinite(slot).all():
            raise DomainError("non-finite slot")
    if pt.ndim == 1:
        jet.value = jet.value.item()
    return jet


def magnitude_jet(node, point, order):
    """Taylor rules of the reference applied to absolute values: slot by
    slot a bound on the sizes of the terms that the jet's sums add up, the
    scale of their rounding.  Returns (reference jet, bound)."""
    def ev(sub):
        return magnitude_jet(sub, point, order)

    def chain(m, derivs):
        return m.compose(np.abs(d) for d in derivs)

    n, batch = point.shape[-1], point.shape[:-1]
    if isinstance(node, expr.Const):
        return (ParentJet.constant(node.value, n, order, batch),
                ParentJet.constant(abs(node.value), n, order, batch))
    if isinstance(node, expr.Var):
        return (ParentJet.variable(node.index, point, order),
                ParentJet.variable(node.index, np.abs(point), order))
    if isinstance(node, expr.Neg):
        j, m = ev(node.arg)
        return -j, m
    if isinstance(node, expr.BinOp):
        (a, ma), (b, mb) = ev(node.left), ev(node.right)
        if node.op in "+-":
            return (a + b if node.op == "+" else a - b), ma + mb
        if node.op == "*":
            return a * b, ma * mb
        r = b.reciprocal()
        return a * r, ma * chain(mb, expr._power_derivs(b.value, -1))
    if isinstance(node, expr.Pow):
        j, m = ev(node.base)
        if node.exponent == 0:
            return j.powi(0), j.powi(0)
        return (j.powi(node.exponent),
                chain(m, expr._power_derivs(j.value, node.exponent)))
    j, m = ev(node.arg)
    return (parent_call_jet(node.func, j),
            chain(m, expr._CALL_DERIVS[node.func](j.value)))


def random_node(rng, dim, depth, const_only=False, products=True):
    """A random AST over u1..u_dim.  Constant subtrees are frequent; with
    products=False every '*' and '/' has a constant operand, so no product
    of two jets occurs."""
    leaf = depth == 0 or rng.random() < 0.25
    if leaf:
        if const_only or rng.random() < 0.4:
            re_, im = rng.uniform(0.3, 1.7, 2) * rng.choice([-1, 1], 2)
            return expr.Const(complex(re_, im if rng.random() < 0.3 else 0.0))
        return expr.Var(int(rng.integers(dim)))

    def sub(**kw):
        const = const_only or kw.pop("const", False) or rng.random() < 0.2
        return random_node(rng, dim, depth - 1, const_only=const,
                           products=products)

    kind = rng.choice(["neg", "bin", "bin", "pow", "call"])
    if kind == "neg":
        return expr.Neg(sub())
    if kind == "pow":
        return expr.Pow(sub(), int(rng.integers(-3, 4)))
    if kind == "call":
        return expr.Call(str(rng.choice(["exp", "ln", "sin", "cos", "sqrt"])),
                         sub())
    op = str(rng.choice(["+", "-", "*", "/"]))
    if op in "*/" and not products:
        const_left = op == "*" and rng.random() < 0.5
        return expr.BinOp(op, sub(const=const_left), sub(const=not const_left))
    return expr.BinOp(op, sub(), sub())


def bits(a):
    """Raw bytes with -0.0 read as 0.0: the sign of a zero is not kept when
    a constant's zero derivative is no longer added in."""
    return (np.asarray(a) + 0.0).tobytes()


def hex_list(a):
    a = np.asarray(a) + 0.0
    return [(x.real.hex(), x.imag.hex()) for x in a.ravel()]


def grid_points(rng, shape, axes_of):
    """A product grid of the given batch shape whose coordinate k varies
    along the axes axes_of[k] only."""
    columns = [rng.uniform(0.2, 1.3, size=tuple(
        n if a in axes else 1 for a, n in enumerate(shape)))
        for axes in axes_of]
    return np.stack(np.broadcast_arrays(*columns, np.empty(shape))[:-1], -1)


class TestConstantFolding:
    BATCHES = [(), (5,), (64, 64), (6, 5, 4)]  # the last is a product grid

    def _points(self, rng, batch, dim):
        if len(batch) < 3:
            return rng.uniform(0.2, 1.3, size=batch + (dim,))
        # each coordinate varies along one or two of the three axes only
        return grid_points(rng, batch, [
            rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
            for _ in range(dim)])

    def _compare(self, f, pt, order, exact_hess=False):
        """Value and gradient equal to the reference bit for bit; higher
        slots too if exact_hess, else within 1e-15 of the terms' magnitude.
        Returns False if both raise DomainError."""
        with np.errstate(all="ignore"):
            try:
                want = parent_eval_jet(f, pt, order)
            except DomainError:
                with pytest.raises(DomainError):
                    f.eval_jet(pt, order)
                return False
            got = f.eval_jet(pt, order)
            assert np.asarray(got.value).dtype == np.asarray(want.value).dtype
            if not exact_hess and order >= 2:
                bound = magnitude_jet(f.ast, np.asarray(pt, dtype=complex),
                                      order)[1]
        assert isinstance(got, expr.Jet) and got.order == order
        assert hex_list(got.value) == hex_list(want.value)
        if order >= 1:
            assert hex_list(got.grad) == hex_list(want.grad)
        for k in range(2, order + 1):
            g, w = got.slots()[k], want.slots()[k]
            assert g.shape == w.shape
            if exact_hess:
                assert bits(g) == bits(w)
            else:
                assert np.all(np.abs(g - w) <= 1e-15 * np.abs(bound.slots()[k]))
        return True

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_random_trees_match_reference(self, order, batch, dim):
        rng = np.random.default_rng(1000 * order + 100 * len(batch) + dim)
        trials = 2 if len(batch) == 2 else 12
        compared = 0
        for _ in range(trials):
            f = expr.ScalarField("t", random_node(rng, dim, 4), dim)
            pt = self._points(rng, batch, dim)
            compared += self._compare(f, pt, order)
            for k in rng.integers(dim, size=2):
                f = f.partial(int(k))
                compared += self._compare(f, pt, order)
        assert compared > trials  # most trees are defined at the points

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_no_jet_products_keeps_every_slot_bit_equal(self, order, batch):
        # without a product of two jets no sum changes its order
        rng = np.random.default_rng(7 + order + len(batch))
        for _ in range(10):
            dim = int(rng.integers(1, 5))
            f = expr.ScalarField(
                "t", random_node(rng, dim, 4, products=False), dim)
            self._compare(f, self._points(rng, batch, dim), order,
                          exact_hess=True)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_constant_fields(self, batch):
        rng = np.random.default_rng(3)
        for trial in range(4 if len(batch) == 2 else 20):
            dim = trial % 4 + 1
            f = expr.ScalarField(
                "c", random_node(rng, dim, 4, const_only=True), dim)
            pt = self._points(rng, batch, dim)
            for order in range(4):
                if self._compare(f, pt, order, exact_hess=True):
                    got = f.eval_jet(pt, order)
                    for k, slot in enumerate(got.slots()[1:], 1):
                        assert slot.shape == batch + (dim,) * k
                        assert not np.any(slot)

    def test_parsed_constant_subtrees(self):
        f = expr.parse("0.05*exp(-40*((u1+0.2)^2 + (u2+0.3)^2))"
                       " + (2.5*0.3 - 1/3)^2*u1/(0.7*1.1) + sqrt(2)*ln(3i)", 2)
        pts = np.random.default_rng(5).uniform(-0.5, 0.5, (64, 64, 2))
        for pt in (pts, pts[3, 4]):
            for order in range(4):
                assert self._compare(f, pt, order)

    @pytest.mark.parametrize("text", [
        "u1 + 1/0", "u1 + 1/(2-2)", "exp(-1/0)", "u1*0^-2", "(1-1)^-1 + u1",
        "u1 - ln(0)", "ln(3-3)*u2", "sqrt(0)*u1", "sqrt(u1-u1+0)",
    ])
    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_domain_errors_on_constant_subtrees(self, text, batch):
        f = expr.parse(text, 2)
        pt = np.full(batch + (2,), 0.5)
        order = 1  # sqrt(0) is defined, its derivative is not
        with pytest.raises(DomainError):
            parent_eval_jet(f, pt, order)
        with pytest.raises(DomainError):
            f.eval_jet(pt, order)

    def test_sqrt_of_zero_constant_at_order_zero(self):
        f = expr.parse("sqrt(0) + u1", 1)
        assert f.eval_jet([2.0], 0).value == 2.0
        with pytest.raises(DomainError):
            f.eval_jet([2.0], 1)

    def test_shared_subtree_evaluated_once(self, count_calls):
        f = expr.parse("exp(u1*u2)", 2)
        df = f.partial(0)           # exp(u1*u2)*u2 reuses the exp node
        ddf = df.partial(1)         # holds that exp node twice
        assert df.ast.left is f.ast
        assert ddf.ast.left.left.left is ddf.ast.right is f.ast
        pts = np.random.default_rng(2).uniform(0.2, 1.0, (5, 2))
        calls = count_calls(expr, "_call")
        for field, twice in ((df, 1), (ddf, 2)):
            ref = []
            parent_eval_node(field.ast, pts.astype(complex), 2, ref)
            assert ref == ["exp"] * twice
            for _ in range(2):
                calls.clear()
                field.eval_jet(pts, 2)
                assert calls == ["exp"]

    def test_constant_operand_shares_derivative_slots(self):
        jet = expr.Jet.variable(0, np.array([[0.5, 1.0]]), 3)
        shifted = jet + np.array(2 + 0j)
        assert shifted.grad is jet.grad and shifted.hess is jet.hess
        assert shifted.third is jet.third
        assert (np.array(2 + 0j) + jet).grad is jet.grad


class TestGridCompression:
    def test_variable_keeps_size_one_axes(self):
        pts = grid_points(np.random.default_rng(1), (4, 3), [(0,), (1,)])
        for i, shape in ((0, (4, 1)), (1, (1, 3))):
            jet = expr.Jet.variable(i, pts.astype(complex), 3)
            assert jet.value.shape == shape
            assert jet.value.tobytes() == pts[
                : shape[0], : shape[1], i].astype(complex).tobytes()
            # derivative-major and packed: n, n(n+1)/2, n(n+1)(n+2)/6 rows
            assert jet.grad.shape == (2, 1, 1)
            assert jet.grad.tolist() == [[[i == 0]], [[i == 1]]]
            assert jet.hess.shape == (3, 1, 1) and not np.any(jet.hess)
            assert jet.third.shape == (4, 1, 1) and not np.any(jet.third)

    def test_varying_coordinate_keeps_batch_shape(self):
        # one that varies along every axis keeps full derivative slots
        pts = np.random.default_rng(2).uniform(size=(4, 3, 2))
        jet = expr.Jet.variable(0, pts, 2)
        assert jet.value.shape == (4, 3)
        assert jet.grad.shape == (2, 4, 3) and jet.hess.shape == (3, 4, 3)

    def test_flat_batch_is_not_probed(self):
        jet = expr.Jet.variable(0, np.full((5, 2), 0.5), 1)
        assert jet.value.shape == (5,) and jet.grad.shape == (2, 5)

    @pytest.mark.parametrize("column", [
        [0.0, -0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [np.nan, np.nan],
        [np.nan, 0.5, np.nan], [complex(0.5, 0.0), complex(0.5, -0.0)],
        [0.5, np.nan],  # the first entries agree, so the full check runs
    ])
    def test_signed_zeros_and_nan_not_merged(self, column):
        # the column runs along axis 1 and repeats along axis 0, where a
        # NaN is not merged with itself either
        pts = np.zeros((3, len(column), 2), dtype=complex)
        pts[..., 0] = np.asarray(column, dtype=complex)[None, :]
        jet = expr.Jet.variable(0, pts, 1)
        rows = 3 if np.isnan(column).any() else 1
        assert jet.value.shape == (rows, len(column))
        want = np.asarray(column, dtype=complex)
        assert jet.value[0].tobytes() == want.tobytes()

    def test_signed_zeros_kept_in_outputs(self):
        pts = np.zeros((2, 3, 2))
        pts[:, 1, 0] = -0.0
        got = expr.parse("u1 + u2*u1", 2).eval_jet(pts, 1)
        assert np.array_equal(np.signbit(got.value.real),
                              np.signbit(pts[..., 0]))

    @pytest.mark.parametrize("text,batch", [
        # the grid cases keep their ids from before flat batches were added
        pytest.param(text, batch, id=text if len(batch) > 1
                     else f"{text}-batch{batch}".replace(" ", ""))
        for batch in [(4, 3, 2), (5,), ()]
        for text in ["u1", "u2 + 3", "(u1+0.2)^2*u2", "exp(u1) - u1", "2"]])
    def test_slots_full_fresh_and_writeable(self, text, batch):
        rng = np.random.default_rng(3)
        if len(batch) > 1:
            pts = grid_points(rng, batch, [(0,), (1, 2)])
        else:
            pts = rng.uniform(0.2, 1.3, size=batch + (2,))
        f = expr.parse(text, 2)
        a, b = f.eval_jet(pts, 3), f.eval_jet(pts, 3)
        # a single point's value is a Python complex, not an array
        first = 0 if batch else 1
        slots = a.slots()[first:] + b.slots()[first:]
        for jet in (a, b):
            for k, slot in enumerate(jet.slots()[first:], first):
                assert slot.shape == batch + (2,) * k
                assert slot.flags.writeable and slot.flags.c_contiguous
        for x, y in itertools.combinations(slots, 2):
            assert not np.shares_memory(x, y)


def entry_bytes(jet, e=None):
    """Raw bytes of each slot of a jet, or of entry e of a stacked one."""
    return [np.asarray(s if e is None else s[e]).tobytes()
            for s in jet.slots()]


class TestStack:
    """stack(fields).eval_jet evaluates the entries together: each slot has
    the entry axis first and holds, entry by entry, the bytes of that
    entry's own eval_jet in the stack's dtype."""

    @pytest.mark.parametrize("batch", [(), (5,), (4, 3)])
    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    def test_equals_each_entry_by_bytes(self, batch, kind):
        rng = np.random.default_rng(len(batch) + 10 * len(kind))
        dim = 3
        if len(batch) > 1:
            pt = grid_points(rng, batch, [(0,), (1,), (0, 1)])
        else:
            pt = rng.uniform(0.2, 1.3, size=batch + (dim,))
        fields = []
        while len(fields) < 6:
            f = expr.ScalarField("t", random_node(rng, dim, 4), dim)
            want_real = kind == "real" or (kind == "mixed" and len(fields) % 2)
            if f.real_closed != want_real:
                continue
            try:
                with np.errstate(all="ignore"):
                    f.eval_jet(pt, 2)
            except DomainError:
                continue
            fields.append(f)
        # the entries share subtrees, and one is there twice
        fields += [fields[0].partial(1), fields[2]]
        s = expr.stack(fields)
        assert s.real_closed == (kind == "real")
        with np.errstate(all="ignore"):
            got = s.eval_jet(pt, 3)
            # a mixed stack is complex, as its entries are at a complex point
            at = pt if kind == "real" else pt.astype(complex)
            for e, f in enumerate(fields):
                assert entry_bytes(got, e) == entry_bytes(f.eval_jet(at, 3))
        for k, slot in enumerate(got.slots()):
            assert slot.shape == (len(fields),) + batch + (dim,) * k
            assert slot.flags.c_contiguous
            assert slot.dtype == (float if kind == "real" else complex)

    def test_one_entry_is_the_single_field_case(self):
        f = expr.parse("exp(u1*u2) + u1^-2", 2)
        for pt in (np.array([0.4, 0.9]), np.full((3, 2), 0.7)):
            got, single = expr.stack([f]).eval_jet(pt, 2), f.eval_jet(pt, 2)
            assert entry_bytes(got, 0) == entry_bytes(single)
        assert isinstance(f.eval_jet([0.4, 0.9], 2).value, float)

    def test_shared_subtrees_and_coordinates_evaluated_once(self,
                                                            count_calls):
        f = expr.parse("exp(u1*u2)", 2)
        g = expr.parse("sin(u1) + u2", 2)
        fields = [f, f.partial(0), g, f, g * f]
        calls = count_calls(expr, "_call")
        coords = count_calls(expr.Jet, "variable")
        pts = np.random.default_rng(1).uniform(0.2, 1.0, (4, 2))
        for pt in (pts, pts[0]):
            calls.clear()
            coords.clear()
            expr.stack(fields).eval_jet(pt, 2)
            # exp(u1*u2) and sin(u1) once each, whichever entry reads them
            assert sorted(calls) == ["exp", "sin"]
            # the two parses hold separate u1 and u2 nodes
            assert sorted(coords) == [0, 1]

    def test_dimensions_must_agree(self):
        with pytest.raises(ArityError):
            expr.stack([expr.parse("u1", 1), expr.parse("u1", 2)])


class TestEvaluationErrors:
    @pytest.mark.parametrize("text, message, point", [
        ("1/(u1-1)", "division by zero", [1.0, 0.5]),
        ("(u1-1)^-2", "zero raised to a negative power", [1.0, 0.5]),
        ("ln(u1-u2)", "ln of zero", [0.5, 0.5]),
        ("sqrt(u1-1)", "sqrt derivative at zero", [1.0, 0.5]),
    ])
    def test_domain_error_names_the_entry(self, text, message, point):
        bad, ok = expr.parse(text, 2), expr.parse("u1*u2", 2)
        named = f"{message} in {text!r}"
        batch = np.array([[0.3, 0.7], point, [0.6, 0.2]])
        for pt in (np.array(point), batch):
            for f in (bad, expr.stack([ok, bad, ok * 2])):
                with pytest.raises(DomainError) as exc:
                    f.eval_jet(pt, 1)
                assert str(exc.value) == named

    def test_metric_entry_named(self):
        g = MetricField.diagonal([expr.parse("1/(u1-1)", 2),
                                  expr.parse("1", 2)])
        for pt in ([1.0, 0.5], [[0.5, 0.5], [1.0, 0.5]]):
            with pytest.raises(DomainError,
                               match=r"division by zero in '1/\(u1-1\)'"):
                g.entry_jets(pt, 2)

    def test_overflow_fails_closed_without_warnings(self):
        # the suite turns RuntimeWarnings into errors
        f = expr.parse("exp(1000*u1)", 1)
        with pytest.raises(DomainError, match=r"non-finite value of"):
            f.eval_jet([1.0], 2)
        g = expr.parse("exp(u1^2)", 1)
        both = expr.stack([expr.parse("u1^3", 1), g])
        with pytest.raises(DomainError,
                           match=r"non-finite order-1 derivative of 'exp"):
            both.eval_jet([[0.5], [26.6]], 2)


class TestPartialText:
    """A partial's source text is the derivative's expression, which parse
    reads back to a field with the same values and partials."""

    @staticmethod
    def assert_same(f, g, pt):
        a, b = f.eval_jet(pt, 2), g.eval_jet(pt, 2)
        for x, y in zip(a.slots(), b.slots()):
            assert np.array_equal(x, y)

    def test_two_hundred_random_fields(self):
        rng = np.random.default_rng(2024)
        make = TestRandomFieldsAgainstFiniteDifferences()._random_field
        for trial in range(200):
            dim = int(rng.integers(1, 4))
            f = make(rng, dim)
            p = rng.uniform(0.3, 1.2, size=dim)
            for k in range(dim):
                df = f.partial(k)
                again = expr.parse(df.source_text, dim)
                self.assert_same(again, df, p)
                self.assert_same(again, df, rng.uniform(0.3, 1.2, (3, dim)))

    @pytest.mark.parametrize("build", [
        lambda x, y: x ** -2 * expr.exp(y) - 3 / (x * y),
        lambda x, y: (1 + 2j) * x ** 3 + expr.sqrt(x - y) * (-0.5 - 1.5j),
        lambda x, y: -2j * y ** -1 + expr.ln(-x) - (-(x ** 2)) ** 2,
        lambda x, y: expr.cos(-x) * expr.sin(x * y) / (2.5 - y) ** -3,
    ])
    def test_negative_powers_and_complex_literals(self, build):
        x, y = expr.variable(0, 2), expr.variable(1, 2)
        f = build(x, y)
        pts = np.array([[0.7, 0.3], [1.3, 0.4]])
        for k in range(2):
            for df in (f.partial(k), f.partial(k).partial(1 - k)):
                again = expr.parse(df.source_text, 2)
                self.assert_same(again, df, pts)
                self.assert_same(again, df, pts[0])
