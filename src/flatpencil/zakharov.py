"""Dressing construction of rotation coefficients.

A kernel F_ij(s, s') is built from potentials Phi_ij via a parameterization
that resolves the differential relation

    dF_ij(s, s')/ds' + dF_ji(s', s)/ds = 0

identically.  The linear integral equation

    K_ij(s, s') = F_ij(s, s') + int_s^{smax} sum_l K_il(s, q) F_lj(q, s') dq

is discretized by the composite trapezoid rule (Nystrom method, one explicit
inverse per row node, which also gives the row's condition number) and
rotation coefficients are read off the diagonal, beta_ij(s) = K_ji(s, s).

The kernel is tabulated on the m x m node grid, where a subtree of a
potential that reads one shift costs O(m) (see _tabulate).  It depends on
the base point u only through the shifts s - u^i, so its u-partials come
exactly from the Hessians of the potentials.  Rotation
coefficients as functions of u (dressing_rotation) therefore get exact
u-derivatives by differentiating the discrete equation with the same row
inverse: one kernel tabulation and one inverse per point, no finite
differences.  Potentials that are all real-closed (see expr) give a real
kernel, whose Nystrom matrices are then built and inverted in float64; a
complex potential makes the kernel and the solve complex.  reduce_kernel
is the entrywise sqrt-ratio scaling F_ij sqrt(f^j)/sqrt(f^i), whose
solution is the raw one scaled the same way (acceptance criterion 8).  It
does not by itself give the nonlinear reduction: for Phi_01 =
0.05/sqrt((x+1)(y+1)), f(x) = x + 3, u = (0.3, 0.4) and 64 nodes, the
reduction residual is 1.8e-3 from the scaled kernel and 8.3e-7 from the
raw one.  The PDE residuals of the potentials are here too.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .errors import DomainError, SingularOperator, TruncationWarning
from .expr import ScalarField
from .lame import RotationCoeffs

DECAY_TOL = 1e-8


@dataclass
class DressingProblem:
    """Potentials, eigenvalue functions, quadrature grid and base point.

    Phi maps (i, j) with i <= j to a two-variable field; diagonal entries
    must be skew-symmetric (Phi(x, y) = -Phi(y, x)).  Entries may be absent
    (treated as zero).  f is optional; it only enters the reduction.
    """

    dim: int
    Phi: Dict[tuple, ScalarField]
    u: np.ndarray
    s_min: float
    s_max: float
    m: int
    f: Optional[List[ScalarField]] = None

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (self.dim,):
            raise ValueError("base point must have length dim")
        if not (self.s_max > self.s_min and self.m >= 2):
            raise ValueError("need s_max > s_min and at least two nodes")
        for (i, j), phi in self.Phi.items():
            if not (0 <= i <= j < self.dim):
                raise ValueError(f"bad potential index {(i, j)}")
            if phi.dim != 2:
                raise ValueError("potentials are two-variable fields")
        for i in range(self.dim):
            phi = self.Phi.get((i, i))
            if phi is not None:
                _check_skew(phi)
        if self.f is not None and any(g.dim != 1 for g in self.f):
            raise ValueError("eigenvalue functions are single-variable")

    @property
    def nodes(self):
        return np.linspace(self.s_min, self.s_max, self.m)


def _check_skew(phi):
    if not _is_skew(phi):
        raise ValueError("diagonal potential is not skew-symmetric")


@functools.lru_cache(maxsize=512)
def _is_skew(phi):
    """Whether the two-variable potential phi is skew, phi(x, y) =
    -phi(y, x), at 16 seeded points.  Kept per field, which parse() returns
    the same for one text."""
    rng = np.random.default_rng(12345)
    xy = rng.uniform(-1.0, 1.0, size=(16, 2))
    fwd, bwd = phi.eval_jet(np.stack([xy, xy[:, ::-1]]), 0).value
    return not np.max(np.abs(fwd + bwd)) > 1e-12


@dataclass
class KernelGrid:
    """F_ij(s_a, s_b) tabulated on the quadrature nodes; flag raw | reduced."""

    values: np.ndarray  # (N, N, m, m)
    nodes: np.ndarray
    flag: str = "raw"


def _tabulate(Phi, u, s, order):
    """F_ij(s_a, s_b) on the nodes s at base point u; at order 2 also dF/du.

    For i < j:  F_ij(s, s') = Phi_x(s - u^i, s' - u^j),
                F_ji(s, s') = -Phi_y(s' - u^i, s - u^j),
    and F_ii(s, s') = Phi_x(s - u^i, s' - u^i) with skew Phi_ii.  Each
    potential is evaluated once, on the F_ij grid; the F_ji grid is its
    transpose.  On that m x m grid x = s - u^i varies only along rows and
    y = s' - u^j only along columns, so the jet evaluation computes a
    subtree of one coordinate, such as (x + 0.2)^2, on m points, and only
    the subtrees where x and y meet on m^2.  F depends on u only through
    the shifts s - u^i, so

        dF_ij/du^k = -delta_ik Phi_xx - delta_jk Phi_xy,
        dF_ji/du^k = delta_ik Phi_yx + delta_jk Phi_yy  (transposed grid),
        dF_ii/du^k = -delta_ik (Phi_xx + Phi_xy).

    Returns (F, dF): F is (N, N, m, m); dF is (N, N, m, N, m) indexed
    [k, i, a, j, b], as _solve_row reads it, at order 2 and None at order 1.
    Both are float64 if every potential is real-closed, as its jets at the
    real shifts then are, and complex128 otherwise.
    """
    n, m = len(u), len(s)
    dtype = float if all(phi.real_closed for phi in Phi.values()) else complex
    F = np.zeros((n, n, m, m), dtype=dtype)
    dF = np.zeros((n, n, m, n, m), dtype=dtype) if order == 2 else None
    for (i, j), phi in Phi.items():
        pts = np.stack(np.broadcast_arrays(s[:, None] - u[i],
                                           s[None, :] - u[j]), axis=-1)
        jet = phi.eval_jet(pts, order)
        F[i, j] = jet.grad[..., 0]
        if i != j:
            F[j, i] = -jet.grad[..., 1].T
        if dF is None:
            continue
        h = jet.hess
        if i == j:
            dF[i, i, :, i] = -(h[..., 0, 0] + h[..., 0, 1])
        else:
            dF[i, i, :, j] = -h[..., 0, 0]
            dF[j, i, :, j] = -h[..., 0, 1]
            dF[i, j, :, i] = h[..., 1, 0].T
            dF[j, j, :, i] = h[..., 1, 1].T
    return F, dF


def build_kernel(p):
    """Tabulate the raw kernel on the grid (see _tabulate for the entries)."""
    s = p.nodes
    return KernelGrid(_tabulate(p.Phi, p.u, s, 1)[0], s, "raw")


def _sqrt_f_at(p, i):
    """Principal sqrt of f^i(u^i - s_a) over the nodes (shape (m,))."""
    args = (p.u[i] - p.nodes)[:, None]
    vals = p.f[i].eval_jet(args, 0).value
    if np.any(np.abs(vals) < 1e-14):
        raise DomainError(f"eigenvalue function {i} vanishes on the grid")
    return np.sqrt(vals.astype(complex))


def reduction_ratio(p):
    """ratio[i, j, a, b] = sqrt(f^j(u^j - s_b)) / sqrt(f^i(u^i - s_a))."""
    if p.f is None:
        raise ValueError("problem carries no eigenvalue functions")
    roots = np.array([_sqrt_f_at(p, i) for i in range(p.dim)])  # (N, m)
    return roots[None, :, None, :] / roots[:, None, :, None]


def reduce_kernel(k, p):
    """Entrywise sqrt-ratio scaling of a raw kernel."""
    if k.flag != "raw":
        raise ValueError("kernel already reduced")
    return KernelGrid(k.values * reduction_ratio(p), k.nodes, "reduced")


def check_reduction_relation(k):
    """Max residual of dF_ij(s, s')/ds' + dF_ji(s', s)/ds.

    k is either a KernelGrid (second-order differences on the grid interior)
    or a callable F(s, s') -> (N, N) matrix, checked at 16 seeded (s, s')
    pairs in [-1, 1]^2 with fourth-order differences of step 1e-4.
    """
    if isinstance(k, KernelGrid):
        h = k.nodes[1] - k.nodes[0]
        d_sp = np.gradient(k.values, h, axis=3)  # dF_ij(s,s')/ds'
        # dF_ji(s', s)/ds differentiates the second slot of F_ji at (s_b, s_a)
        res = d_sp + np.einsum("ijab->jiba", d_sp)
        interior = res[:, :, 1:-1, 1:-1]
        return float(np.max(np.abs(interior), initial=0.0))

    samples = np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2))
    step = 1e-4

    def d4(fn, x):
        return (-fn(x + 2 * step) + 8 * fn(x + step)
                - 8 * fn(x - step) + fn(x - 2 * step)) / (12 * step)

    res = [
        np.max(np.abs(d4(lambda y: np.asarray(k(s, y)), sp)
                      + d4(lambda x: np.asarray(k(sp, x)).T, s)))
        for s, sp in samples
    ]
    return float(np.max(res, initial=0.0))


def check_phi_pdes(p, samples):
    """(res_offdiag, res_diag): residuals of the linearizing PDEs.

    Off-diagonal (i < j), at (x, y) = (s - u^i, s' - u^j):
      2 Phi_xy (f^i(u^i - s) - f^j(u^j - s')) - Phi_y f^i'(u^i - s)
      + Phi_x f^j'(u^j - s')
    Diagonal, at (x, y) = (s - u^i, s' - u^i):
      2 Phi_xy (f^i(u^i - s) - f^i(u^i - s')) + Phi_x f^i'(u^i - s')
      - Phi_y f^i'(u^i - s)
    """
    if p.f is None:
        raise ValueError("problem carries no eigenvalue functions")
    s, sp = np.atleast_2d(np.asarray(samples, dtype=float)).T
    fv, fd = [], []  # per axis: f^i and f^i' at (u^i - s, u^i - s')
    for i, fi in enumerate(p.f):
        args = np.stack([p.u[i] - s, p.u[i] - sp], -1)[..., None]  # (S, 2, 1)
        jet = fi.eval_jet(args, 1)
        fv.append(jet.value.T)
        fd.append(jet.grad[..., 0].T)
    res = ([], [])  # off-diagonal, diagonal
    for (i, j), phi in p.Phi.items():
        jet = phi.eval_jet(np.stack([s - p.u[i], sp - p.u[j]], -1), 2)
        if i == j:
            r = (2 * jet.hess[:, 0, 1] * (fv[i][0] - fv[i][1])
                 + jet.grad[:, 0] * fd[i][1] - jet.grad[:, 1] * fd[i][0])
        else:
            r = (2 * jet.hess[:, 0, 1] * (fv[i][0] - fv[j][1])
                 - jet.grad[:, 1] * fd[i][0] + jet.grad[:, 0] * fd[j][1])
        res[i == j].append(np.abs(r))
    return tuple(float(np.max(r, initial=0.0)) for r in res)


@dataclass
class SolutionGrid:
    """K_ij(s_a, s_b) for the solved row nodes; unsolved rows hold NaN."""

    values: np.ndarray  # (N, N, m, m)
    nodes: np.ndarray
    rows: List[int]
    cond: Dict[int, float]


def _row_weights(nodes, a):
    """Trapezoid weights for the truncated integral over [s_a, s_max]."""
    k = len(nodes) - a
    if k == 1:
        return np.zeros(1)
    h = nodes[1] - nodes[0]
    w = np.full(k, h)
    w[0] = w[-1] = h / 2
    return w


def _row_operator(F, nodes, a):
    """Nystrom matrix A and trapezoid weights w of row node s_a.

    A[(j,b),(l,qq)] = delta_jl delta_bqq - w_qq F_lj(s_qq, s_b) over the
    nodes qq, b >= a; the same matrix serves every i.  A is of F's dtype.
    """
    n, _, m, _ = F.shape
    q = m - a  # nodes in [s_a, s_max]
    w = _row_weights(nodes, a)
    Fblk = F[:, :, a:, a:]  # (l, j, qq, b)
    A = np.eye(n * q, dtype=F.dtype)
    A -= np.transpose(w[None, None, :, None] * Fblk,
                      (1, 3, 0, 2)).reshape(n * q, n * q)
    return A, w


def _solve_row(F, nodes, a, dF=None, cond_limit=1e12):
    """Solve row node s_a with one explicit inverse of its Nystrom matrix.

    Returns (K, dK, cond): K[i, l, qq] = K_il(s_a, s_{a+qq}); cond is the
    1-norm condition number ||A||_1 ||A^-1||_1.  Given the u-partials dF of
    the kernel, dK[k, i, l, qq] solves the differentiated equation

        A dK = dF_row + sum_qq w_qq K dF_blk

    with the same inverse; otherwise dK is None.
    """
    n, _, m, _ = F.shape
    q = m - a
    A, w = _row_operator(F, nodes, a)
    try:
        Ainv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        raise SingularOperator(a, float("inf")) from None
    cond = float(np.linalg.norm(A, 1) * np.linalg.norm(Ainv, 1))
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularOperator(a, cond)
    rhs = F[:, :, a, a:].reshape(n, n * q).T  # columns: one per i
    K = (Ainv @ rhs).T.reshape(n, n, q)
    if dF is None:
        return K, None, cond
    # drhs[k, i, j, b] = dF_kij(s_a, s_b) + sum over (l, qq) of
    # K_il(qq) w_qq dF_klj(qq, b), the sum one matmul per k; the columns of
    # the system are one per (k, i)
    Kw = (K * w).reshape(n, n * q)  # [i, (l, qq)]
    blk = dF[:, :, a:, :, a:].reshape(n, n * q, n * q)  # [k, (l, qq), (j, b)]
    drhs = dF[:, :, a, :, a:] + (Kw @ blk).reshape(n, n, n, q)
    dK = (Ainv @ drhs.reshape(n * n, n * q).T).T.reshape(n, n, n, q)
    return K, dK, cond


def solve_integral_equation(k, rows=None, cond_limit=1e12):
    """Nystrom solve of the truncated integral equation for each row node.

    For row node s_a the unknowns are K_il(s_a, s_q) with q >= a; the dense
    system (same matrix for every i) is solved through one inverse, which
    also gives the condition number, then the columns with b < a follow by
    direct evaluation of the right-hand side.
    """
    F = k.values
    n, _, m, _ = F.shape
    nodes = k.nodes
    tail = max(np.max(np.abs(F[:, :, -1, :])), np.max(np.abs(F[:, :, :, -1])))
    if tail > DECAY_TOL:
        warnings.warn(
            f"kernel magnitude {tail:.2e} at the truncation endpoint "
            f"exceeds {DECAY_TOL:.0e}",
            TruncationWarning,
        )
    if rows is None:
        rows = list(range(m))
    for a in rows:
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)) \
                or not 0 <= a < m:
            raise ValueError(f"row {a!r} is not a node index in 0..{m - 1}")
    K = np.full((n, n, m, m), np.nan, dtype=F.dtype)
    conds = {}
    for a in rows:
        Krow, _, conds[a] = _solve_row(F, nodes, a, cond_limit=cond_limit)
        K[:, :, a, a:] = Krow
        if a > 0:
            # K_ij(s_a, s_b) for b < a: direct evaluation
            w = _row_weights(nodes, a)
            K[:, :, a, :a] = F[:, :, a, :a] + np.einsum(
                "ilq,q,ljqb->ijb", Krow, w, F[:, :, a:, :a]
            )
    return SolutionGrid(K, nodes, list(rows), conds)


def neumann_solution(k, a):
    """Independent check value for row a: iterate K <- F + K*F to a fixpoint."""
    F = k.values
    n, _, m, _ = F.shape
    w = _row_weights(k.nodes, a)
    rhs = F[:, :, a, a:]  # (i, j, b)
    Fblk = F[:, :, a:, a:]  # (l, j, q, b)
    K = rhs.copy()
    for _ in range(200):
        nxt = rhs + np.einsum("ilq,q,ljqb->ijb", K, w, Fblk)
        if np.max(np.abs(nxt - K)) < 1e-15:
            return nxt
        K = nxt
    raise RuntimeError("fixpoint iteration did not converge")


def extract_beta(sol):
    """beta_ij(s_a) = K_ji(s_a, s_a) for the solved rows; shape (N, N, m)."""
    n, _, m, _ = sol.values.shape
    beta = np.full((n, n, m), np.nan, dtype=sol.values.dtype)
    for a in sol.rows:
        beta[:, :, a] = sol.values[:, :, a, a].T
    return beta


class _DressedRow:
    """beta_ij(u) = K_ji(s_a, s_a; u) and its exact u-partials at row node a.

    Keeps only the potentials and the grid of the problem, so that the
    rotation coefficients built on it hold little memory alive.
    """

    __slots__ = ("Phi", "dim", "s_min", "s_max", "m", "a")

    def __init__(self, p, a):
        self.Phi = p.Phi
        self.dim = p.dim
        self.s_min, self.s_max, self.m = p.s_min, p.s_max, p.m
        self.a = a

    def _solve(self, u, order):
        if u.shape != (self.dim,):
            raise ValueError("base point must have length dim")
        nodes = np.linspace(self.s_min, self.s_max, self.m)
        F, dF = _tabulate(self.Phi, u, nodes, order)
        K, dK, _ = _solve_row(F, nodes, self.a, dF)
        return K[:, :, 0].T.copy(), dK

    def value(self, u):
        return self._solve(u, 1)[0]

    def jet(self, u):
        B, dK = self._solve(u, 2)
        return B, np.transpose(dK[:, :, :, 0], (0, 2, 1)).copy()


def dressing_rotation(p, s_index=0):
    """Rotation coefficients beta_ij(u) = K_ji(s_{s_index}, s_{s_index}; u).

    value(u) tabulates the kernel at base point u and solves the single row.
    The partials in u are exact: jet(u) tabulates the kernel together with
    its u-partials (from the Hessians of the potentials) and differentiates
    the discrete equation, (I - W F) dK = dF + W dF K, reusing the row's
    inverse, so each point costs one kernel tabulation and one inverse.
    The truncation-endpoint check of solve_integral_equation is not made.
    """
    row = _DressedRow(p, s_index)
    return RotationCoeffs(p.dim, row.value, row.jet)
