"""Pointwise tensor objects of a metric or a metric pair.

Everything here is a pure function of immutable field inputs at a point (n,)
or a batch (..., n), whose axes lead every output: inverse, Christoffel
symbols and curvature of a metric, given in contravariant form g^{ij};
affinor, Nijenhuis and M tensors of a pair; pencil eigenvalues, at one
point only.  A metric source may add axes of its own ahead of the point's,
such as the member axis of `PencilMembers`.  A source evaluates its
entries through one `_Entries` table, built once per source: one
`eval_jet` call per point or batch for all of its non-literal entries, in
which the subtrees they share are evaluated once.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ArityError, DegenerateMetric
from .expr import Const, ScalarField, constant, stack

DEGENERACY_TOL = 1e-10

CONTRAVARIANT = "contravariant"


@dataclass
class MetricField:
    """Symmetric N x N matrix of scalar fields, the contravariant g^{ij}.

    entries[i][j] and entries[j][i] reference the same field object.  The
    variance is checked here, once, for every metric of the package: only
    CONTRAVARIANT is accepted.
    """

    dim: int
    variance: str
    entries: List[List[ScalarField]]

    def __post_init__(self):
        if self.variance != CONTRAVARIANT:
            raise ValueError(f"metrics are contravariant, not "
                             f"{self.variance!r}")
        n = self.dim
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError("entries must be an N x N matrix")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] is not self.entries[j][i]:
                    raise ValueError(
                        "symmetric entries must share the same field object"
                    )

    @staticmethod
    def from_upper(upper, variance):
        """Build from a dict {(i, j): field, i <= j}; missing entries are zero."""
        dims = {f.dim for f in upper.values()}
        if len(dims) != 1:
            raise ValueError("all entries must share a dimension")
        n = next(iter(dims))
        zero = constant(0.0, n)
        entries = [[zero] * n for _ in range(n)]
        for (i, j), f in upper.items():
            a, b = min(i, j), max(i, j)
            entries[a][b] = f
            entries[b][a] = f
        return MetricField(n, variance, entries)

    @staticmethod
    def diagonal(fields, variance=CONTRAVARIANT):
        return MetricField.from_upper(
            {(i, i): f for i, f in enumerate(fields)}, variance
        )

    @staticmethod
    def from_constant(matrix, variance=CONTRAVARIANT):
        m = np.asarray(matrix, dtype=complex)
        n = m.shape[0]
        if not np.isfinite(m).all():
            raise ValueError("constant metric entries must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("constant metric must be symmetric")
        upper = {
            (i, j): constant(m[i, j], n) for i in range(n) for j in range(i, n)
        }
        return MetricField.from_upper(upper, variance)

    def entry_jets(self, point, order):
        """Entry values and partials at one point (n,) or a batch (..., n):
        V[..., i, j], d[..., k, i, j] = d_k V_ij and d2[..., k, l, i, j];
        the partials above `order` are None.  Every geometry function starts
        from it; the entries are evaluated by one `_Entries` table, built at
        the first call (entries are not to be replaced after it)."""
        return self._entries.jets(point, order)[0]

    @functools.cached_property
    def _entries(self):
        return _Entries([self])

    def values(self, point):
        """Entry matrix at one point (n,) or at a batch (..., n) of points,
        with shape (..., n, n)."""
        return self.entry_jets(point, 0)[0]


def _is_literal(f):
    """Whether an entry is a finite literal, whose jet is known without
    evaluating it (a non-finite one is evaluated, and fails closed)."""
    return isinstance(f.ast, Const) and cmath.isfinite(f.ast.value)


class _Entries:
    """The entries of one or more metrics of one dimension, evaluated
    together.

    Built once per metric source: the distinct non-literal entries (by AST
    node, in row-major order of the upper triangles, metric by metric) are
    one stacked field, so each `jets` call makes one `eval_jet` call, in
    which every subtree they share and every coordinate is evaluated once.
    The finite literals follow them as columns of known values; rows[m] is
    the (n, n) table of each entry's column for metric m.
    """

    def __init__(self, metrics):
        distinct = {}
        for g in metrics:
            for row in g.entries:
                for f in row:
                    distinct.setdefault(id(f.ast), f)
        evaluated = [f for f in distinct.values() if not _is_literal(f)]
        literals = [f for f in distinct.values() if _is_literal(f)]
        column = {id(f.ast): c for c, f in enumerate(evaluated + literals)}
        self.dim = metrics[0].dim
        self.field = stack(evaluated) if evaluated else None
        self.literals = np.array([f.ast.value for f in literals],
                                 dtype=complex)
        self.rows = [np.array([[column[id(f.ast)] for f in row]
                               for row in g.entries]) for g in metrics]
        self.width = len(column)

    def jets(self, point, order):
        """(V, d, d2) of each metric at `point`, as MetricField.entry_jets
        gives them; the entries are evaluated at the point as complex."""
        pt = np.asarray(point, dtype=complex)
        n = self.dim
        if pt.shape[-1] != n:  # as eval_jet would say, which literals skip
            raise ArityError(
                f"point has {pt.shape[-1]} components, field has dim {n}")
        # one column per entry, last: value, then d_k and d_k d_l ahead of it
        order = min(order, 2)
        tables = [np.zeros(pt.shape[:-1] + (n,) * k + (self.width,),
                           dtype=complex) for k in range(order + 1)]
        tables[0][..., self.width - len(self.literals):] = self.literals
        if self.field is not None:
            jet = self.field.eval_jet(pt, order)
            for table, slot in zip(tables, jet.slots()):
                table[..., :len(slot)] = np.moveaxis(slot, 0, -1)
        tables += [None] * (2 - order)
        return [tuple(None if t is None else t.take(rows, axis=-1)
                      for t in tables) for rows in self.rows]


def linear_combination(l1, g1, l2, g2):
    """The metric field l1*g1 + l2*g2 (entries stay shared symmetrically)."""
    if g1.dim != g2.dim:
        raise ValueError("metrics must share a dimension")
    upper = {}
    for i in range(g1.dim):
        for j in range(i, g1.dim):
            upper[(i, j)] = l1 * g1.entries[i][j] + l2 * g2.entries[i][j]
    return MetricField.from_upper(upper, CONTRAVARIANT)


class PencilMembers:
    """Metric source of the pencil members l1*g1 + l2*g2 of two contravariant
    metrics, stacked on a leading member axis in the order of `lambdas`;
    with `ends`, g1 and g2 themselves come first.

    Its `entry_jets` evaluates the entries of g1 and g2 together, in one
    `_Entries` table, so the subtrees they share are evaluated once.  Entry
    jets are linear in the metric, so each member's are l1*E1 + l2*E2 of
    those exactly, and no member is built or differentiated as an expression of
    its own; `geometry_jet` of the source gives every member in one call.
    """

    def __init__(self, g1, g2, lambdas, ends=False):
        if g1.dim != g2.dim:
            raise ValueError("members need two metrics of one dimension")
        self.g1, self.g2, self.dim, self.ends = g1, g2, g1.dim, ends
        self._entries = _Entries([g1, g2])
        self._l1, self._l2 = np.array(
            list(lambdas), dtype=complex).reshape(-1, 2).T

    def entry_jets(self, point, order):
        """(V, d, d2) of every member, member axis first; see MetricField."""
        E1, E2 = self._entries.jets(point, order)
        return tuple([None if a is None else self._stack(a, b)
                      for a, b in zip(E1, E2)])

    def combine(self, a, b):
        """l1*a + l2*b for each (l1, l2) of `lambdas`, stacked on a leading
        axis: the members' value of a quantity linear in the metric."""
        axes = (-1,) + (1,) * np.ndim(a)
        return self._l1.reshape(axes) * a + self._l2.reshape(axes) * b

    def _stack(self, a, b):
        if not self.ends:
            return self.combine(a, b)
        return np.concatenate((a[None], b[None], self.combine(a, b)))


@dataclass
class GeometryJet:
    """All tensor data of one metric; batch axes, if any, lead each array."""

    point: np.ndarray
    g_up: np.ndarray          # g^{ij}
    g_down: np.ndarray        # g_{ij}
    dg_up: np.ndarray         # [k,i,j] = d g^{ij} / d u^k
    dg_down: np.ndarray       # [k,i,j] = d g_{ij} / d u^k
    gamma_mixed: np.ndarray   # [i,j,k] = Gamma^i_{jk}
    gamma_contra: np.ndarray  # [i,j,k] = Gamma^{ij}_k = g^{is} Gamma^j_{sk}
    riemann_upup: np.ndarray   # [i,j,k,l] = R^{ij}_{kl} = g^{is} R^j_{skl}

    def __getitem__(self, k):
        """The jet at batch index k (a member or a point) of a batched jet."""
        return GeometryJet(*[a[k] for a in vars(self).values()])


@dataclass
class Affinor:
    """Values and first partials of v^i_j = g1^{is} g_{2,sj} (batch first)."""

    v: np.ndarray   # [i,j]
    dv: np.ndarray  # [s,i,j] = d v^i_j / d u^s


def degenerate(V):
    """Which of the matrices V (..., n, n) are degenerate, and their |det|.

    The package's one degeneracy rule: |det V| <= DEGENERACY_TOL *
    (max |V_ij|)^n, relative to V's own entries, so a nonzero multiple of V
    gets V's answer while det V and (max |V_ij|)^n are normal floats; a
    matrix whose computed det is 0 (the zero matrix too) is degenerate.
    """
    n = V.shape[-1]
    scale = np.abs(V).max(axis=(-2, -1))
    absdet = np.abs(np.linalg.det(V))
    return absdet <= DEGENERACY_TOL * scale**n, absdet


def _check_nondegenerate(V, point):
    """DegenerateMetric naming the first point in batch order whose V
    (..., n, n) is degenerate, and its batch index."""
    bad, absdet = degenerate(V)
    if bad.any():
        k = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise DegenerateMetric(np.asarray(point)[k], absdet[k], index=k)


def _product_jet(a, da, b, db):
    """a @ b over b's first axis, a (..., n, n) and b (..., n, n, n), and its
    partials d_m a @ b + a @ d_m b, with m leading the axes of da and db."""
    flat = lambda x: x.reshape(x.shape[:-2] + (-1,))
    fb = flat(b)
    dab = da @ fb[..., None, :, :] + a[..., None, :, :] @ flat(db)
    return (a @ fb).reshape(b.shape), dab.reshape(db.shape)


def _geometry_from_entries(V, d, d2, point):
    """GeometryJet at `point` (n,) or (..., n) from order-2 entry jets.

    With A^{kij} = g^{kt} d_t g^{ij}, the one solution of
    metric compatibility and symmetry is c^{kij} = g^{kt} Gamma^{ij}_t =
    -(A^{kij} + A^{ikj} - A^{jki}) / 2, and R^{ij}_{kl} = g^{is} R^j_{skl}
    = X^{ij}_{kl} - X^{ij}_{lk}, X^{ij}_{kl} = d_k Gamma^{ij}_l +
    Gamma^i_{sk} Gamma^{sj}_l (compatibility cancels the terms symmetric
    in (k, l)).  The inverse enters through g_{ij} and d_k g_{ij} only.
    """
    _check_nondegenerate(V, point)
    down = np.linalg.inv(V)
    # d_k g_{ij} = -g_{is} d_k g^{st} g_{tj}, with k as a matmul batch axis
    down_k = down[..., None, :, :]
    ddown = -down_k @ d @ down_k

    A, dA = _product_jet(V, d, d, d2)
    # c[k,i,j] = -(A[k,i,j] + A[i,k,j] - A[j,k,i]) / 2, and its partials
    c, dc = [-0.5 * (x + np.swapaxes(x, -3, -2)
                     - np.einsum("...jki->...kij", x)) for x in (A, dA)]
    G, dG = _product_jet(down, ddown, c, dc)  # [t,i,j] = Gamma^{ij}_t
    gamma_mixed = np.einsum("...js,...ksi->...ijk", down, G)
    X = (np.einsum("...klij->...ijkl", dG)
         + np.einsum("...isk,...lsj->...ijkl", gamma_mixed, G))
    riemann_upup = X - np.swapaxes(X, -2, -1)

    return GeometryJet(
        point=np.asarray(point, dtype=complex),
        g_up=V,
        g_down=down,
        dg_up=d,
        dg_down=ddown,
        gamma_mixed=gamma_mixed,
        gamma_contra=np.einsum("...kij->...ijk", G),
        riemann_upup=riemann_upup,
    )


def geometry_jet(g, point):
    """Metric inverse, Christoffel symbols and curvature at a point or batch.

    Gamma^{ij}_k and R^{ij}_{kl} come from the exact contravariant entry
    jets and the first partials of the inverse, with no second partials of
    it (`_geometry_from_entries`).  `g` is any source of contravariant
    entries with `dim` and `entry_jets(point, order)`, such as a
    MetricField or PencilMembers; `point` is broadcast over the axes the
    source adds ahead of its own, so `GeometryJet.point` and a
    DegenerateMetric name a point per member.
    """
    pt = np.asarray(point, dtype=complex)
    V, d, d2 = g.entry_jets(pt, 2)
    pt = np.broadcast_to(pt, V.shape[:-2] + pt.shape[-1:])
    return _geometry_from_entries(V, d, d2, pt)


def affinor_from_jets(j1, j2):
    """v^i_j = g1^{is} g_{2,sj} and its first partials, from the two jets."""
    v = j1.g_up @ j2.g_down
    dv = np.einsum("...sip,...pj->...sij", j1.dg_up, j2.g_down) + np.einsum(
        "...ip,...spj->...sij", j1.g_up, j2.dg_down
    )
    return Affinor(v=v, dv=dv)


def affinor_at(g1, g2, point):
    """v^i_j = g1^{is} g_{2,sj} and its first partials at a point or batch."""
    jets = geometry_jet(PencilMembers(g1, g2, [], ends=True), point)
    return affinor_from_jets(jets[0], jets[1])


def nijenhuis(a):
    """N^k_{ij} of an affinor; antisymmetric in (i, j) exactly."""
    v, dv = a.v, a.dv
    t1 = np.einsum("...si,...skj->...kij", v, dv)
    t3 = np.einsum("...ks,...jsi->...kij", v, dv)
    n1 = t1 - np.einsum("...kij->...kji", t1)
    n3 = t3 - np.einsum("...kij->...kji", t3)
    return n1 + n3


def tensor_M_from_jets(j1, j2):
    """Obstruction tensor M^{ijk} from both metrics' jets.

    Vanishes exactly when the pair is almost compatible; antisymmetric in
    (i, j) by construction.
    """
    up1, up2 = j1.g_up, j2.g_up
    gc1, gc2 = j1.gamma_contra, j2.gamma_contra
    return (
        np.einsum("...is,...jks->...ijk", up1, gc2)
        - np.einsum("...js,...iks->...ijk", up2, gc1)
        - np.einsum("...js,...iks->...ijk", up1, gc2)
        + np.einsum("...is,...jks->...ijk", up2, gc1)
    )


def tensor_M(g1, g2, point):
    """Obstruction tensor M^{ijk} built from both contravariant connections."""
    jets = geometry_jet(PencilMembers(g1, g2, [], ends=True), point)
    return tensor_M_from_jets(jets[0], jets[1])


def roots_and_gap(v):
    """Eigenvalues of an affinor sorted by (Re, Im), plus their min gap.

    Real parts that agree to rounding count as equal, so a conjugate pair
    is ordered by its imaginary parts.
    """
    roots = np.linalg.eigvals(v)
    roots = roots[np.argsort(roots.real, kind="stable")]
    scale = max(1.0, float(np.max(np.abs(roots), initial=0.0)))
    tie = np.diff(roots.real) <= 1e-12 * scale
    group = np.concatenate(([0], np.cumsum(~tie)))
    roots = roots[np.lexsort((roots.imag, group))]
    dist = np.abs(roots[:, None] - roots[None, :])
    return roots, np.min(dist[np.triu_indices(len(roots), 1)], initial=np.inf)


def pencil_eigenvalues(g1, g2, point):
    """Roots of det(g1 - lambda g2) = 0, sorted by (Re, Im), plus min gap;
    g1 and g2 are evaluated in one call, checked, and only g2 inverted."""
    pt = np.asarray(point, dtype=complex)
    V = PencilMembers(g1, g2, [], ends=True).entry_jets(pt, 0)[0]
    _check_nondegenerate(V, np.broadcast_to(pt, V.shape[:-1]))
    return roots_and_gap(V[0] @ np.linalg.inv(V[1]))
