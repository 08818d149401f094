"""Closed-form coordinate expressions with exact jets to third order.

Expressions are parsed into a small AST over the variables u1..uN, complex
literals and the functions exp, ln, sin, cos, sqrt.  Evaluation propagates
truncated Taylor data (value, gradient, Hessian, third-order tensor, each
stored only up to the requested order) through the tree, so every partial
derivative up to the requested order is analytic, not finite-differenced.

A field is real-closed when its AST has no sqrt or ln node and no literal
with a nonzero imaginary part.  A real-closed field at real points is
evaluated in float64 from its variables to its slots; every other
evaluation is complex128 throughout, with the principal branches of ln and
sqrt.  The choice is made once per evaluation, never per operation, so no
value is promoted from real to complex inside a tree: at a real u1,
sqrt(-u1) is -1j because -(u1+0j) carries a -0 imaginary part.  Integer
powers in float64 use the products of numpy's complex integer power, so a
real-closed field gets the real parts of its complex evaluation bit for
bit, apart from exp, sin and cos, whose real and complex routines may
round differently.

A constant subtree evaluates to a 0-d array of the evaluation's dtype, not
to batch-sized arrays of zero derivatives: ``jet + c`` touches only the
value and ``c * jet`` scales each slot.  Only a field that is constant as a
whole becomes a constant jet.  The AST is immutable and may share subtrees
(``partial()`` reuses the subtrees it differentiates); within one
evaluation a shared subtree is evaluated once, and so is each coordinate,
whichever nodes read it.

A stacked field (``stack``) holds several fields as its entries, and one
evaluation computes them all: the subtrees they share are evaluated once,
and its slots carry the entry axis first.  A single field is the one-entry
case of the same evaluator.  A DomainError names the entry that failed,
and an overflow or NaN fails closed as one, never as a numpy warning.

Inside an evaluation the derivative slots are derivative-major and packed
(Taylor-mode propagation with the derivative index leading; Griewank and
Walther, Evaluating Derivatives, 2008, ch. 13): a rank-k slot has one row
per sorted index tuple i1 <= ... <= ik, n(n+1)/2 rows at rank 2, and the
batch axes after them.  numpy's inner loops thus run over the batch, and
the slots are symmetric by construction.  Products and the chain rule form
their rows from index tables built once per n.

A slot also keeps only the batch axes along which it varies: on a grid (two
or more batch axes) a coordinate that is constant along an axis has size 1
there, and numpy broadcasting widens a slot only where coordinates that
vary along different axes meet.  On an m x m product grid a subtree of one
coordinate thus costs O(m), not O(m^2).

Each entry is computed by the same operations, on the same operands in the
same order, as on the full grid in a batch-first layout, so the results are
the same bits.  ``eval_jet`` converts once, at its boundary: it returns
fresh C-contiguous slots of the full shapes B, B+(n,), B+(n,n), ..., batch
first (E+B, E+B+(n,), ... for a stack of E entries).

A derived field's source text parses back: ``partial()`` writes its AST
as expression text, with the grammar's precedence.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ArityError, DomainError, ParseError

MAX_ORDER = 3

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class Const:
    value: complex


@dataclass(frozen=True, slots=True)
class Var:
    index: int  # zero-based


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True, slots=True)
class Call:
    func: str  # 'exp', 'ln', 'sin', 'cos', 'sqrt'
    arg: "Node"


@dataclass(frozen=True, slots=True)
class Stack:
    fields: tuple  # the ScalarFields of a stacked field; see stack()


Node = Union[Const, Var, BinOp, Neg, Pow, Call, Stack]


# Simplifying constructors used by symbolic differentiation; they fold
# constants and drop zero/one factors so repeated derivatives stay small.

_ZERO = Const(0j)
_ONE = Const(1 + 0j)


def _is_const(node, value):
    return isinstance(node, Const) and node.value == value


def _neg_node(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _add_node(a, b):
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return BinOp("+", a, b)


def _sub_node(a, b):
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return _neg_node(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return BinOp("-", a, b)


def _mul_node(a, b):
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return BinOp("*", a, b)


def _div_node(a, b):
    if _is_const(a, 0):
        return _ZERO
    if _is_const(b, 1):
        return a
    return BinOp("/", a, b)


def _diff_node(node, k):
    """Symbolic derivative of a subtree with respect to coordinate k."""
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.index == k else _ZERO
    if isinstance(node, Neg):
        return _neg_node(_diff_node(node.arg, k))
    if isinstance(node, BinOp):
        da = _diff_node(node.left, k)
        db = _diff_node(node.right, k)
        if node.op == "+":
            return _add_node(da, db)
        if node.op == "-":
            return _sub_node(da, db)
        if node.op == "*":
            return _add_node(
                _mul_node(da, node.right), _mul_node(node.left, db)
            )
        # quotient rule
        num = _sub_node(_mul_node(da, node.right), _mul_node(node.left, db))
        return _div_node(num, Pow(node.right, 2))
    if isinstance(node, Pow):
        e = node.exponent
        if e == 0:
            return _ZERO
        db = _diff_node(node.base, k)
        if e == 1:
            return db
        return _mul_node(
            _mul_node(Const(complex(e)), Pow(node.base, e - 1)), db
        )
    if isinstance(node, Call):
        da = _diff_node(node.arg, k)
        a = node.arg
        if node.func == "exp":
            return _mul_node(node, da)
        if node.func == "ln":
            return _div_node(da, a)
        if node.func == "sin":
            return _mul_node(Call("cos", a), da)
        if node.func == "cos":
            return _neg_node(_mul_node(Call("sin", a), da))
        if node.func == "sqrt":
            return _div_node(da, _mul_node(Const(2 + 0j), node))
        raise ValueError(f"unknown function {node.func!r}")
    raise TypeError(f"unexpected node {node!r}")


# ---------------------------------------------------------------------------
# Jets


@functools.cache
def _unpack(n, k):
    """(n,)*k table of the packed position of each rank-k index tuple.

    A packed slot stores the sorted index tuples i1 <= ... <= ik only, in
    lexicographic order: n(n+1)/2 of them at rank 2.
    """
    pos = {t: p for p, t in enumerate(
        itertools.combinations_with_replacement(range(n), k))}
    return np.array([pos[tuple(sorted(t))] for t in
                     itertools.product(range(n), repeat=k)]).reshape((n,) * k)


# Rows of the flattened outer products that Jet.__mul__ and Jet.compose
# read, in packed order.  ab, ba: rows (a, b) and (b, a) of grad (x) grad,
# for each pair a <= b; pair: rows (ab, c), (ac, b) and (bc, a) of packed
# hess (x) grad, for each triple a <= b <= c; abc: row (a, b, c) of
# grad (x) grad (x) grad.
_Rows = collections.namedtuple("_Rows", "ab ba pair abc")


@functools.cache
def _rows(n):
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    triples = list(itertools.combinations_with_replacement(range(n), 3))
    h = _unpack(n, 2) * n  # row (packed ab, 0) of hess (x) grad
    return _Rows(
        np.array([a * n + b for a, b in pairs]),
        np.array([b * n + a for a, b in pairs]),
        (np.array([h[a, b] + c for a, b, c in triples]),
         np.array([h[a, c] + b for a, b, c in triples]),
         np.array([h[b, c] + a for a, b, c in triples])),
        np.array([(a * n + b) * n + c for a, b, c in triples]))


# einsum multiplies with the plain complex formula, so a_i b_j and b_j a_i
# are the same bits; numpy's SIMD multiply loop may round the imaginary
# parts of a*b and b*a differently.
_OUTER = {2: "i...,j...->ij...", 3: "i...,j...,k...->ijk..."}


def _outer(*factors):
    """Outer product over the leading (derivative) axes, flattened to one
    leading axis of rows."""
    x = np.einsum(_OUTER[len(factors)], *factors)
    return x.reshape((-1,) + x.shape[len(factors):])


def _sym_pair(h, v, r):
    """P[abc] = h_ab v_c + h_ac v_b + h_bc v_a, packed (h packed too)."""
    t = _outer(h, v)
    return _sum(*(t.take(rows, axis=0) for rows in r.pair))


# The sums and products of a Jet's slots write into a fresh temporary
# operand when it has the result's shape: on a large batch fewer arrays are
# allocated, and fewer fresh pages faulted in.


def _sum(*terms):
    """terms[0] + terms[1] + ..., left to right, of fresh arrays."""
    acc = terms[0]
    for t in terms[1:]:
        if t.size > acc.size:
            acc, t = t, acc  # a + b and b + a are the same bits
        try:
            acc += t
        except ValueError:  # neither operand has the sum's shape
            acc = acc + t
    return acc


def _scaled(c, t):
    """c * t for a fresh array t."""
    try:
        return np.multiply(c, t, out=t)
    except ValueError:  # t lacks batch axes of c
        return c * t


def _zero_slots(n, order, batch_shape, dtype):
    """Zero grad, hess, ... up to ``order``, packed and derivative-major."""
    return [np.zeros((math.comb(n + k - 1, k),) + batch_shape, dtype=dtype)
            for k in range(1, order + 1)]


def _varying(x):
    """x cut to size 1 along each axis on which its entries agree bit for
    bit; NaN never agrees, nor 0.0 with -0.0.  Only a grid, a batch with
    two or more axes, is probed: a flat batch would pay for the probe and
    rarely gain."""
    if x.ndim < 2 or x.size < 2:
        return x
    step = x.size
    for axis, size in enumerate(x.shape):
        step //= size  # entries per index of this axis
        # one pair of entries settles most batches before all are read
        if size > 1 and x.item(0) == x.item((size - 1) * step):
            head = (slice(None),) * axis + (slice(0, 1),)
            parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
            bits = [p.view(np.int64) for p in parts]
            # equal bits everywhere: only the head can hold a NaN
            if (all((b == b[head]).all() for b in bits)
                    and not np.isnan(x[head]).any()):
                x = x[head]
    return x


class Jet:
    """Taylor data of a scalar function at a (possibly batched) point.

    Inside an evaluation the derivative slots are derivative-major and
    packed: grad is (n,)+B, hess (n(n+1)/2,)+B and third
    (n(n+1)(n+2)/6,)+B, each holding its sorted index tuples only (see
    _unpack), so numpy's inner loops run over the batch and no slot needs
    symmetrizing.  A slot may have size 1 on a batch axis along which it
    does not vary, and broadcasts against B.  ``ScalarField.eval_jet``
    returns full batch-first slots instead: value B, grad B+(n,), hess
    B+(n,n), third B+(n,n,n).  Only the slots up to ``order`` are stored;
    the ones above it are None, so no batch-sized array is allocated or
    added above the requested order.

    The other operand of +, - and * may be a constant (a 0-d array or numpy
    scalar of the evaluation's dtype):
    ``jet ± c`` changes only the value and shares the derivative arrays,
    ``c * jet`` scales each slot.  Nothing writes into a slot after the jet
    that holds it is built, so shared slots, and slots that broadcast, are
    safe.
    """

    __slots__ = ("n", "order", "value", "grad", "hess", "third")
    # numpy operands defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, n, order, value, grad=None, hess=None, third=None):
        self.n = n
        self.order = order
        self.value = value
        self.grad = grad
        self.hess = hess
        self.third = third

    def slots(self):
        """(value, grad, hess, third) truncated after ``order``."""
        return (self.value, self.grad, self.hess, self.third)[: self.order + 1]

    def _deriv_slots(self):
        return (self.grad, self.hess, self.third)[: self.order]

    @staticmethod
    def variable(i, point, order):
        """Coordinate i, kept only along the batch axes where it varies.

        If it is constant along some axis, its derivative slots have size-1
        batch axes too.  Otherwise they keep the batch shape: numpy's
        broadcasting loops cost more per call than same-shape ones, and
        on a small batch nothing repays that.
        """
        n = point.shape[-1]
        x = point[..., i]
        value = _varying(x).astype(point.dtype)
        shape = x.shape if value.shape == x.shape else (1,) * x.ndim
        j = Jet(n, order, value, *_zero_slots(n, order, shape, point.dtype))
        if order >= 1:
            j.grad[i] = 1.0
        return j

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.n, self.order, np.add(self.value, other),
                       *self._deriv_slots())
        return Jet(self.n, self.order,
                   *map(np.add, self.slots(), other.slots()))

    def __radd__(self, c):
        return Jet(self.n, self.order, np.add(c, self.value),
                   *self._deriv_slots())

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.n, self.order, np.subtract(self.value, other),
                       *self._deriv_slots())
        return Jet(self.n, self.order,
                   *map(np.subtract, self.slots(), other.slots()))

    def __rsub__(self, c):
        return Jet(self.n, self.order, np.subtract(c, self.value),
                   *map(np.negative, self._deriv_slots()))

    def __neg__(self):
        return Jet(self.n, self.order, *map(np.negative, self.slots()))

    def __rmul__(self, c):
        return Jet(self.n, self.order, *[c * s for s in self.slots()])

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.n, self.order, *[s * other for s in self.slots()])
        f, g = self, other
        fv, gv = f.value, g.value
        out = Jet(f.n, f.order, fv * gv)
        if f.order >= 1:
            out.grad = _sum(f.grad * gv, fv * g.grad)
        if f.order >= 2:
            r = _rows(f.n)
            x = _outer(f.grad, g.grad)
            cross = _sum(x.take(r.ab, axis=0), x.take(r.ba, axis=0))
            del x  # each term is freed before the next one is computed
            out.hess = _sum(_sum(f.hess * gv, cross), fv * g.hess)
        if f.order >= 3:
            out.third = _sum(f.third * gv, _sym_pair(f.hess, g.grad, r),
                             _sym_pair(g.hess, f.grad, r), fv * g.third)
        return out

    def compose(self, derivs):
        """Chain rule for phi(self).

        ``derivs`` yields phi, phi', phi'', ... at self.value; it is read
        only up to ``order``, so a generator computes no higher derivative.
        """
        d = list(itertools.islice(derivs, self.order + 1))
        out = Jet(self.n, self.order, d[0])
        if self.order >= 1:
            out.grad = d[1] * self.grad
        if self.order >= 2:
            r = _rows(self.n)
            g = self.grad
            gg = _scaled(d[2], _outer(g, g).take(r.ab, axis=0))
            out.hess = _sum(d[1] * self.hess, gg)
        if self.order >= 3:
            out.third = _sum(
                d[1] * self.third, _scaled(d[2], _sym_pair(self.hess, g, r)),
                _scaled(d[3], _outer(g, g, g).take(r.abc, axis=0)))
        return out


# Derivatives phi, phi', phi'', phi''' of the elementary functions, computed
# lazily so that Jet.compose evaluates only the ones its order needs; a
# constant argument reads only phi.


def _reciprocal_derivs(v):
    yield 1.0 / v
    yield -1.0 / v**2
    yield 2.0 / v**3
    yield -6.0 / v**4


def _complex_power(v, e):
    return v ** complex(e)


def _int_power(v, e):
    """v**e for an integer e by the products of numpy's complex integer
    power: binary powering of |e|, then 1/x for e < 0.  A real v thus gets
    the real part of (v+0j)**e bit for bit, which v**float(e) does not."""
    n = abs(e)
    if n == 0:
        return np.ones_like(v)
    acc, p, mask = None, v, 1
    while True:
        if n & mask:
            acc = p if acc is None else acc * p
        mask <<= 1
        if n < mask:
            break
        p = p * p
    return 1.0 / acc if e < 0 else acc


def _power_derivs(v, e, power=_complex_power):
    yield power(v, e)
    coeff = 1.0
    for k in range(1, MAX_ORDER + 1):
        coeff *= e - (k - 1)
        yield np.zeros_like(v) if coeff == 0 else coeff * power(v, e - k)


def _exp_derivs(v):
    return itertools.repeat(np.exp(v))


def _ln_derivs(v):
    yield np.log(v)
    yield from _reciprocal_derivs(v)


def _sin_derivs(v):
    s = np.sin(v)
    yield s
    c = np.cos(v)
    yield c
    yield -s
    yield -c


def _cos_derivs(v):
    c = np.cos(v)
    yield c
    s = np.sin(v)
    yield -s
    yield -c
    yield s


def _sqrt_derivs(v):
    r = np.sqrt(v)
    yield r
    yield 0.5 / r
    yield -0.25 / (v * r)
    yield 0.375 / (v**2 * r)


_CALL_DERIVS = {
    "exp": _exp_derivs,
    "ln": _ln_derivs,
    "sin": _sin_derivs,
    "cos": _cos_derivs,
    "sqrt": _sqrt_derivs,
}


# The arithmetic of one evaluation, chosen once by ScalarField._arith:
# dtype of every slot, a literal (a Python complex) as a Python number of
# that dtype, a single point's value as a Python number, and the
# derivatives of v**e and 1/v.  1/v in float64 is the power -1, whose
# products and quotients are those that the complex 1/v, -1/v^2, 2/v^3,
# -6/v^4 make of a real v.
_Arith = collections.namedtuple(
    "_Arith", "dtype literal scalar power_derivs reciprocal_derivs")

_COMPLEX = _Arith(np.dtype(complex), complex, complex, _power_derivs,
                  _reciprocal_derivs)
_REAL = _Arith(np.dtype(float), operator.attrgetter("real"), float,
               functools.partial(_power_derivs, power=_int_power),
               functools.partial(_power_derivs, e=-1, power=_int_power))


def _apply(a, derivs):
    """phi(a) from phi, phi', ...: a jet by the chain rule, or a constant."""
    return a.compose(derivs) if isinstance(a, Jet) else next(derivs)


def _value(a):
    return a.value if isinstance(a, Jet) else a


def _reciprocal(a, arith):
    v = _value(a)
    if np.any(v == 0):
        raise DomainError("division by zero")
    return _apply(a, arith.reciprocal_derivs(v))


def _power(a, e, arith):
    if e == 0:
        return np.array(arith.literal(1 + 0j))
    v = _value(a)
    if e < 0 and np.any(v == 0):
        raise DomainError("zero raised to a negative power")
    return _apply(a, arith.power_derivs(v, e))


def _call(func, a, order):
    if func not in _CALL_DERIVS:
        raise ValueError(f"unknown function {func!r}")
    v = _value(a)
    if func == "ln" and np.any(v == 0):
        raise DomainError("ln of zero")
    if func == "sqrt" and order >= 1 and np.any(v == 0):
        raise DomainError("sqrt derivative at zero")
    return _apply(a, _CALL_DERIVS[func](v))


def _children(node):
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Stack):
        return tuple(f.ast for f in node.fields)
    return ()


def _structure(root):
    """(shared, real) of an AST, from one walk over it.

    shared is {id(node): number of uses} for the nodes that the AST uses
    more than once (it is a DAG: partial() shares subtrees, and the entries
    of a stack may share them); real tells whether it is real-closed: no
    sqrt or ln node and no literal with a nonzero imaginary part.
    Variables are left out: an evaluation builds one jet per coordinate
    index, whichever node reads it.
    """
    uses = {}
    real = True
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            continue
        key = id(node)
        uses[key] = uses.get(key, 0) + 1
        if uses[key] == 1:
            stack.extend(_children(node))
            if isinstance(node, Call):
                real = real and node.func not in ("sqrt", "ln")
            elif isinstance(node, Const):
                real = real and node.value.imag == 0
    return {key: n for key, n in uses.items() if n > 1}, real


class _Evaluation:
    """One eval_jet call: its point (as an array of the arithmetic's dtype),
    order and arithmetic; ``memo`` maps the id of each shared node to [uses
    left, result], and ``coords`` holds the jet of each coordinate index
    read so far."""

    __slots__ = ("point", "order", "arith", "memo", "coords")

    def __init__(self, point, order, arith, shared):
        self.point, self.order, self.arith = point, order, arith
        self.memo = {key: [n, None] for key, n in shared.items()}
        self.coords = {}


def _eval_node(node, ev):
    """Jet of `node` in the evaluation `ev`, or a 0-d array or numpy scalar
    of ``ev.arith.dtype`` if the subtree is constant.

    A shared subtree is evaluated once per evaluation and released at its
    last use; a coordinate's jet is built once.  A constant starts as a 0-d
    array, as the value slot of a single-point jet did.  In a batched
    evaluation it stays a 0-d array, so that numpy computes it with its
    array loops, whose complex multiply rounds unlike its scalar one.
    """
    if isinstance(node, Var):
        out = ev.coords.get(node.index)
        if out is None:
            out = ev.coords[node.index] = Jet.variable(node.index, ev.point,
                                                       ev.order)
        return out
    entry = ev.memo.get(id(node))
    if entry is not None and entry[1] is not None:
        out = entry[1]
        entry[0] -= 1
        if entry[0] == 0:
            entry[1] = None
        return out
    if isinstance(node, BinOp):
        a = _eval_node(node.left, ev)
        b = _eval_node(node.right, ev)
        if node.op == "+":
            out = a + b
        elif node.op == "-":
            out = a - b
        elif node.op == "*":
            out = a * b
        else:
            out = a * _reciprocal(b, ev.arith)
    elif isinstance(node, Const):
        out = np.array(ev.arith.literal(node.value))
    elif isinstance(node, Neg):
        out = -_eval_node(node.arg, ev)
    elif isinstance(node, Pow):
        out = _power(_eval_node(node.base, ev), node.exponent, ev.arith)
    elif isinstance(node, Call):
        out = _call(node.func, _eval_node(node.arg, ev), ev.order)
    else:
        raise TypeError(f"unexpected node {node!r}")
    if ev.point.ndim > 1 and not isinstance(out, Jet):
        out = np.asarray(out)
    if entry is not None:  # the first of its uses
        entry[0] -= 1
        entry[1] = out
    return out


def _eval_entry(field, ev):
    """Jet (or constant) of one field in the evaluation `ev`.  Every
    DomainError names the field's source text; so does a non-finite slot,
    which fails closed."""
    try:
        jet = _eval_node(field.ast, ev)
    except DomainError as exc:
        raise DomainError(f"{exc} in {field.source_text!r}") from exc
    # a constant field's derivatives are zeros: only its value can fail
    slots = jet.slots() if isinstance(jet, Jet) else (jet,)
    for k, slot in enumerate(slots):
        if not _finite(slot):
            what = "value" if k == 0 else f"order-{k} derivative"
            raise DomainError(f"non-finite {what} of {field.source_text!r}")
    return jet


def _finite(slot):
    """Whether every entry of a slot is finite.

    The sum of |x|^2 over the slot (one BLAS pass, no temporary) is finite
    only if every entry is; it overflows for entries above about 1e154,
    which the entrywise check then clears.
    """
    return cmath.isfinite(np.vdot(slot, slot)) or np.isfinite(slot).all()


def _batch_first(jet, n, order, batch, dtype):
    """The jet that ``eval_jet`` returns: each slot a fresh array of its full
    shape B+(n,)*k and of the given dtype, batch first, whatever batch axes
    it varied along.  A constant gets zero derivatives.  A new Jet: the
    given one may be an entry's and a subtree's of the same evaluation."""
    if not isinstance(jet, Jet):
        return Jet(n, order, np.full(batch, jet, dtype=dtype),
                   *[np.zeros(batch + (n,) * k, dtype=dtype)
                     for k in range(1, order + 1)])
    jet = Jet(n, order, *jet.slots())
    names = ("grad", "hess", "third")[:order]
    if not batch:  # a single point: the gradient is (n,) already
        for k, name in enumerate(names[1:], 2):
            setattr(jet, name, getattr(jet, name)[_unpack(n, k)])
    elif len(batch) == 1:  # a flat batch has no size-1 axes
        for k, name in enumerate(names, 1):
            s = getattr(jet, name).T
            s = s.copy() if k == 1 else s.take(_unpack(n, k), axis=-1)
            setattr(jet, name, s)
    else:  # a grid: one strided copy per entry, broadcast as it goes
        if jet.value.shape != batch:
            jet.value = np.broadcast_to(jet.value, batch).copy()
        for k, name in enumerate(names, 1):
            s = getattr(jet, name)
            full = np.empty(batch + (n**k,), dtype=dtype)
            for j, p in enumerate(_unpack(n, k).flat):
                full[..., j] = s[p]
            setattr(jet, name, full.reshape(batch + (n,) * k))
    return jet


# ---------------------------------------------------------------------------
# Scalar fields


class ScalarField:
    """Immutable coordinate expression u1..uN -> C, differentiable to order 3."""

    __slots__ = ("source_text", "ast", "dim", "_shared", "_real")

    def __init__(self, source_text, ast, dim):
        if dim < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "source_text", source_text)
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "dim", dim)
        # _structure(ast), on demand: fields built only to build others
        # never pay for it
        object.__setattr__(self, "_shared", None)
        object.__setattr__(self, "_real", None)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    def __repr__(self):
        return f"ScalarField({self.source_text!r}, dim={self.dim})"

    def _analyse(self):
        if self._shared is None:
            shared, real = _structure(self.ast)
            object.__setattr__(self, "_shared", shared)
            object.__setattr__(self, "_real", real)

    @property
    def real_closed(self):
        """Whether the AST has no sqrt or ln node and no literal with a
        nonzero imaginary part: then the field is real at real points, and
        eval_jet computes it there in float64."""
        self._analyse()
        return self._real

    def _arith(self, point):
        """(arithmetic, point as an array of its dtype) of an evaluation:
        float64 for a real-closed field at a real point, else complex128."""
        pt = np.asarray(point)
        if self._shared is None:
            self._analyse()
        arith = _REAL if self._real and pt.dtype.kind in "biuf" else _COMPLEX
        return arith, pt.astype(arith.dtype, copy=False)

    def eval_jet(self, point, order=3):
        """Jet of the field at `point` (length-dim vector or batch thereof).

        The slots are float64 for a real-closed field at a real point (a
        single point's value a Python float), else complex128 (a Python
        complex).  A field built by `stack` evaluates its entries together
        and returns them on a leading entry axis; any other field is its
        one-entry case, returned without that axis.  A DomainError names
        the entry that failed."""
        if not 0 <= order <= MAX_ORDER:
            raise ValueError("order must be in 0..3")
        arith, pt = self._arith(point)
        if pt.shape[-1] != self.dim:
            raise ArityError(
                f"point has {pt.shape[-1]} components, field has dim {self.dim}"
            )
        stacked = isinstance(self.ast, Stack)
        ev = _Evaluation(pt, order, arith, self._shared)
        # an overflow or NaN fails closed in _eval_entry, not as a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jets = [_eval_entry(f, ev)
                    for f in (self.ast.fields if stacked else (self,))]
        jets = [_batch_first(j, self.dim, order, pt.shape[:-1], arith.dtype)
                for j in jets]
        if stacked:
            return Jet(self.dim, order,
                       *map(np.stack, zip(*(j.slots() for j in jets))))
        jet = jets[0]
        if pt.ndim == 1:
            jet.value = arith.scalar(jet.value)
        return jet

    def __call__(self, point):
        return self.eval_jet(point, order=0).value

    def partial(self, k):
        """Field of the partial derivative with respect to u^{k+1} (k
        zero-based); its source text is the derivative's expression, which
        `parse` reads back."""
        if not 0 <= k < self.dim:
            raise ArityError(f"no coordinate index {k} in dim {self.dim}")
        ast = _diff_node(self.ast, k)
        return ScalarField(_text(ast), ast, self.dim)

    # -- combinators ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.dim != self.dim:
                raise ArityError("dimension mismatch between fields")
            return other
        return constant(other, self.dim)

    def _binop(self, op, other):
        o = self._coerce(other)
        return ScalarField(f"({self.source_text}){op}({o.source_text})",
                           BinOp(op, self.ast, o.ast), self.dim)

    def __add__(self, other):
        return self._binop("+", other)

    def __radd__(self, other):
        return self._coerce(other) + self

    def __sub__(self, other):
        return self._binop("-", other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        return self._binop("*", other)

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __truediv__(self, other):
        return self._binop("/", other)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return ScalarField(f"-({self.source_text})", Neg(self.ast), self.dim)

    def __pow__(self, e):
        if not isinstance(e, int):
            raise TypeError("only integer powers; use sqrt/exp/ln for fractional")
        return ScalarField(f"({self.source_text})^{e}", Pow(self.ast, e), self.dim)


def constant(c, dim):
    c = complex(c)
    return ScalarField(_format_complex(c), Const(c), dim)


def stack(fields):
    """One field of several fields of one dimension, its entries.

    Its eval_jet evaluates every entry in one call, each subtree that the
    entries share (by node) and each coordinate once, and returns slots
    with the entry axis first: value (E,)+B, grad (E,)+B+(n,), ...  The
    arithmetic is chosen for the stack as a whole, so it is float64 only
    if every entry is real-closed.
    """
    fields = tuple(fields)
    dims = {f.dim for f in fields}
    if len(dims) != 1:
        raise ArityError("stacked fields need one dimension")
    text = "[" + ", ".join(f.source_text for f in fields) + "]"
    return ScalarField(text, Stack(fields), dims.pop())


def variable(i, dim):
    """The coordinate field u^{i+1} (i zero-based)."""
    if not 0 <= i < dim:
        raise ArityError(f"variable index {i} out of range for dim {dim}")
    return ScalarField(f"u{i + 1}", Var(i), dim)


def _wrap_call(func, f):
    return ScalarField(f"{func}({f.source_text})", Call(func, f.ast), f.dim)


def exp(f):
    return _wrap_call("exp", f)


def ln(f):
    return _wrap_call("ln", f)


def sin(f):
    return _wrap_call("sin", f)


def cos(f):
    return _wrap_call("cos", f)


def sqrt(f):
    return _wrap_call("sqrt", f)


def _remap(node, mapping):
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return Var(mapping[node.index])
    if isinstance(node, Neg):
        return Neg(_remap(node.arg, mapping))
    if isinstance(node, BinOp):
        return BinOp(node.op, _remap(node.left, mapping), _remap(node.right, mapping))
    if isinstance(node, Pow):
        return Pow(_remap(node.base, mapping), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, _remap(node.arg, mapping))
    raise TypeError(node)


def embed(f, index, dim):
    """Lift a single-variable field to dimension `dim`, reading u^{index+1}."""
    if f.dim != 1:
        raise ArityError("embed expects a single-variable field")
    if not 0 <= index < dim:
        raise ArityError(f"target index {index} out of range for dim {dim}")
    ast = _remap(f.ast, {0: index})
    return ScalarField(f.source_text.replace("u1", f"u{index + 1}"), ast, dim)


def _format_complex(c):
    if c.imag == 0:  # an integer only when exact; inf and nan stay floats
        r = c.real
        return str(int(r)) if r.is_integer() and abs(r) < 2**53 else repr(r)
    return f"({c.real}+{c.imag}i)"


# Expression text of an AST, as parse reads it back: each node gets its
# grammar level, 0 a sum, 1 a product, 2 a negation or power, 3 an atom,
# and an operand below the level its place needs is parenthesized.


def _number_text(x):
    """A number token (or parenthesized expression) for a float x >= 0."""
    if math.isnan(x):
        return "(1e999-1e999)"
    if math.isinf(x):
        return "1e999"
    return str(int(x)) if x.is_integer() and x < 2**53 else repr(x)


def _literal_text(c):
    """A literal: a real one is its number, negated as "(-x)"; a complex
    one is "(a+bi)", which parse reads as the sum of its parts."""
    re, im = c.real, c.imag
    real = _number_text(abs(re))
    if math.copysign(1.0, re) < 0:
        real = "-" + real
    if im == 0:
        return real if real[0] != "-" else f"({real})"
    imag = _number_text(abs(im)) + "i"
    if re == 0 and real[0] != "-" and im > 0:
        return imag
    return f"({real}{'+' if im > 0 else '-'}{imag})"


def _level_text(node):
    """(text, level) of a node."""
    if isinstance(node, Const):
        return _literal_text(node.value), 3
    if isinstance(node, Var):
        return f"u{node.index + 1}", 3
    if isinstance(node, Call):
        return f"{node.func}({_text(node.arg)})", 3
    if isinstance(node, Neg):
        return "-" + _operand_text(node.arg, 2), 2
    if isinstance(node, Pow):
        return f"{_operand_text(node.base, 3)}^{node.exponent}", 2
    if isinstance(node, BinOp):
        level = 0 if node.op in "+-" else 1
        return (_operand_text(node.left, level) + node.op
                + _operand_text(node.right, level + 1)), level
    raise TypeError(f"unexpected node {node!r}")


def _operand_text(node, level):
    text, own = _level_text(node)
    return text if own >= level else f"({text})"


def _text(node):
    """Expression text of an AST that parse reads back to the same
    operations on the same literals."""
    return _level_text(node)[0]


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)

_FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")
_VAR_RE = re.compile(r"^u([1-9][0-9]*)$")


@dataclass
class _Token:
    kind: str  # 'number', 'ident', 'op', 'end'
    text: str
    pos: int


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}", t.pos)
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return Neg(self.unary())
        if t.kind == "op" and t.text == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            sign = 1
            t2 = self.peek()
            if t2.kind == "op" and t2.text == "-":
                self.next()
                sign = -1
            t3 = self.next()
            if t3.kind != "number" or "." in t3.text or "e" in t3.text or "E" in t3.text:
                raise ParseError("exponent must be an integer literal", t3.pos)
            return Pow(base, sign * int(t3.text))
        return base

    def atom(self):
        t = self.next()
        if t.kind == "number":
            value = float(t.text)
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text == "i":
                self.next()
                return Const(complex(0.0, value))
            return Const(complex(value))
        if t.kind == "ident":
            if t.text == "i":
                return Const(1j)
            m = _VAR_RE.match(t.text)
            if m:
                idx = int(m.group(1))
                if idx > self.dim:
                    raise ArityError(
                        f"variable u{idx} out of range for dimension {self.dim}"
                    )
                return Var(idx - 1)
            if t.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(t.text, arg)
            raise ParseError(f"unknown identifier {t.text!r}", t.pos)
        if t.kind == "op" and t.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {t.text!r}", t.pos)


@functools.lru_cache(maxsize=512)
def _parsed(text, dim):
    field = ScalarField(text, _Parser(text, dim).parse(), dim)
    field._analyse()  # once for every caller that shares the field
    return field


def parse(text, dim):
    """Parse an expression into a ScalarField of the given dimension.

    The field is immutable, so repeated calls with one (text, dim) return
    the same ScalarField, with its AST and its real-closed verdict.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    if dim < 1:
        raise ValueError("dimension must be positive")
    return _parsed(text, dim)
