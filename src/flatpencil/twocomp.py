"""Complete two-component (N=2) theory of diagonal metric pairs.

A pair in canonical diagonal form is parameterized by nonzero functions
b^1(u), b^2(u), signs eps^i, and eigenvalue functions f^i(u^i).  Flatness of
g2 reduces to a linear first-order system for the b^i driven by a potential
F(u); the flat-pencil property adds one linear second-order equation on F.
Also here: the constant-curvature pencil construction and the conformally
Euclidean checkers (harmonicity / Liouville equation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import (
    DEFAULT_TOL,
    CheckResult,
    _abs_max,
    _flatness_residual,
    _Worst,
    check_constant_curvature,
)
from .errors import DomainError
from .expr import ScalarField, constant, embed, exp, parse, stack
from .geometry import CONTRAVARIANT, MetricField, geometry_jet
from .lame import diagonal_pair, weighted_diagonal


@dataclass
class TwoCompModel:
    """Diagonal two-component model (b^1, b^2, F, eps^i, f^i)."""

    b1: ScalarField
    b2: ScalarField
    F: ScalarField
    eps1: int
    eps2: int
    f1: ScalarField  # dim 1, argument u^1
    f2: ScalarField  # dim 1, argument u^2

    def __post_init__(self):
        if self.eps1 not in (1, -1) or self.eps2 not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        if self.b1.dim != 2 or self.b2.dim != 2 or self.F.dim != 2:
            raise ValueError("b and F must be two-variable fields")
        if self.f1.dim != 1 or self.f2.dim != 1:
            raise ValueError("f must be single-variable fields")


def check_sys(m, points, tol=DEFAULT_TOL):
    """Max residual of the linear system tying b^1, b^2 to the potential F:

    db^2/du^1 = eps^1 (dF/du^2) b^1,   db^1/du^2 = -eps^2 (dF/du^1) b^2.

    b^1, b^2 and F are evaluated in one call, which evaluates a field once
    when b^1 and b^2 are the same one.
    """
    pts = np.atleast_2d(np.asarray(points))
    jet = stack([m.b1, m.b2, m.F]).eval_jet(pts, 1)
    (b1, b2, _), (db1, db2, dF) = jet.slots()
    r1 = np.abs(db2[:, 0] - m.eps1 * dF[:, 1] * b1)
    r2 = np.abs(db1[:, 1] + m.eps2 * dF[:, 0] * b2)
    w = _Worst()
    w.update("sys", np.maximum(r1, r2), pts)
    return CheckResult(w.res["sys"] < tol, w.res, w.wit)


def check_lequa(m, points, tol=DEFAULT_TOL):
    """Max residual of the flat-pencil condition on F:

    2 F_{12} (f^1 - f^2) + F_2 (f^1)' - F_1 (f^2)' = 0.

    F, f^1(u^1) and f^2(u^2) are evaluated in one call.
    """
    pts = np.atleast_2d(np.asarray(points))
    jet = stack([m.F, embed(m.f1, 0, 2), embed(m.f2, 1, 2)]).eval_jet(pts, 2)
    (_, f1, f2), (dF, df1, df2), (hF, _, _) = jet.slots()
    r = np.abs(2 * hF[:, 0, 1] * (f1 - f2) + dF[:, 1] * df1[:, 0]
               - dF[:, 0] * df2[:, 1])
    w = _Worst()
    w.update("lequa", r, pts)
    return CheckResult(w.res["lequa"] < tol, w.res, w.wit)


def assemble_two_metrics(m):
    """(g1, g2) with g2 = diag(eps^i/(b^i)^2) and g1 carrying the f^i factors."""
    return diagonal_pair([constant(float(e), 2) / (b * b)
                          for e, b in ((m.eps1, m.b1), (m.eps2, m.b2))],
                         [m.f1, m.f2])


def constant_curvature_pencil(K, points, tol=DEFAULT_TOL):
    """Four metrics G_0..G_3 with G_n = diag(eps^i (u^i)^n / (b^i)^2).

    Sign convention eps^2 = +1, eps^1 = -1, (b^i)^2 = (u^1 - u^2) / (4K).
    Returns (metrics, result): G_0..G_2 flat, G_3 of constant curvature K.
    """
    if K == 0:
        raise ValueError("K must be nonzero")
    pts = np.atleast_2d(np.asarray(points))
    if np.any(np.abs(pts[:, 0] - pts[:, 1]) < 1e-12):
        raise DomainError("sample point on the singular line u1 = u2")
    b_sq_inv = parse(f"4*({K}) / (u1 - u2)", 2)
    powers = [constant(1.0, 1)] + [parse(f"u1^{n}", 1) for n in (1, 2, 3)]
    metrics = [weighted_diagonal([b_sq_inv] * 2, [-1.0 * p, p])
               for p in powers]
    w = _Worst()
    for n in range(3):
        w.update(f"flatness_G{n}",
                 _flatness_residual(geometry_jet(metrics[n], pts)), pts)
    cc = check_constant_curvature(metrics[3], K, pts, tol)
    w.update("curvature_G3", cc.max_residuals["constant_curvature"],
             cc.witnesses["constant_curvature"])
    passed = all(v < tol for v in w.res.values())
    return metrics, CheckResult(passed, w.res, w.wit)


def harmonic_flatness(a, points):
    """(max |laplacian a|, max curvature residual) for g^{ij} = exp(a) d^{ij}.

    The two vanish together: the conformal metric is flat iff a is harmonic.
    """
    if a.dim != 2:
        raise ValueError("conformal checkers are two-dimensional")
    g = MetricField.diagonal([exp(a), exp(a)], CONTRAVARIANT)
    pts = np.atleast_2d(np.asarray(points))
    hess = a.eval_jet(pts, 2).hess
    lap = np.max(np.abs(hess[:, 0, 0] + hess[:, 1, 1]))
    curv = np.max(_abs_max(geometry_jet(g, pts).riemann_upup))
    return float(lap), float(curv)


def liouville_check(a, K, points):
    """Max residual of laplacian a = 2 K exp(-a) over the points."""
    if a.dim != 2:
        raise ValueError("conformal checkers are two-dimensional")
    jet = a.eval_jet(np.atleast_2d(np.asarray(points)), 2)
    lap = jet.hess[:, 0, 0] + jet.hess[:, 1, 1]
    return float(np.max(np.abs(lap - 2 * K * np.exp(-jet.value))))
