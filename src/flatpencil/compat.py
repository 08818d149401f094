"""Compatibility verdicts for pairs of contravariant metrics.

Three nested notions are decided by pointwise sampling:

* almost compatible — the Nijenhuis tensor of the affinor g1·g2^{-1} and the
  obstruction tensor M both vanish;
* compatible — Christoffel symbols and curvature of every pencil member
  lambda1*g1 + lambda2*g2 combine linearly;
* flat pencil — compatible and every pencil member (endpoints included) is
  flat.

All three are decided in one sweep over the sample points, with one geometry
evaluation per point: the stacked `PencilMembers` of g1, g2 and every
sampled member, from the entry jets of g1 and g2 evaluated once.

Also here: the constant-curvature test, the flat-coordinate vector-field
construction of g1 from g2 = eta, the bracket-ansatz metric built from a
vector of potentials h^i, and the associativity residual for a single
potential Phi.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .errors import DegenerateMetric
from .expr import constant
from .geometry import (
    CONTRAVARIANT,
    MetricField,
    PencilMembers,
    affinor_from_jets,
    degenerate,
    geometry_jet,
    nijenhuis,
    roots_and_gap,
    tensor_M_from_jets,
)

DEFAULT_TOL = 1e-8


def sample_points(dim, count, seed=0, lo=0.2, hi=2.0, min_sep=0.0):
    """Seeded random real sample points in [lo, hi]^dim.

    min_sep > 0 rejects points with any |u^i - u^j| below it (used to stay
    off singular diagonals); up to 1000 draws are made.
    """
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(1000):
        if len(pts) == count:
            break
        p = rng.uniform(lo, hi, size=dim)
        if min_sep > 0 and dim > 1:
            d = np.abs(p[:, None] - p[None, :])
            if np.min(d[~np.eye(dim, dtype=bool)]) < min_sep:
                continue
        pts.append(p)
    if len(pts) < count:
        raise ValueError("could not draw enough separated sample points")
    return np.array(pts)


def grid_points(dim, per_axis, lo=0.2, hi=2.0):
    """Regular grid in [lo, hi]^dim, flattened to a point list."""
    axes = [np.linspace(lo, hi, per_axis)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def default_lambda_samples(seed=0):
    """Two real pairs, one sign-flipped pair and one random complex pair."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(4)
    return [
        (1.0, 1.0),
        (1.0, -1.0),
        (2.0, 3.0),
        (complex(z[0], z[1]), complex(z[2], z[3])),
    ]


@dataclass
class MetricPair:
    """A pair of contravariant metrics plus the sampling configuration."""

    g1: MetricField
    g2: MetricField
    sample_points: np.ndarray
    lambda_samples: List[Tuple[complex, complex]] = field(
        default_factory=default_lambda_samples
    )
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.g1.dim != self.g2.dim:
            raise ValueError("metrics must share a dimension")
        if (self.g1.variance != CONTRAVARIANT
                or self.g2.variance != CONTRAVARIANT):
            raise ValueError("pair checks expect contravariant metrics")
        self.sample_points = np.atleast_2d(
            np.asarray(self.sample_points)
        )
        self.lambda_samples = list(self.lambda_samples)
        if not self.lambda_samples:
            raise ValueError("lambda_samples is empty: the linearity checks "
                             "need at least one pencil member (l1, l2)")


@dataclass(slots=True)
class CheckResult:
    """Verdict plus named max residuals and their worst witness points."""

    passed: bool
    max_residuals: Dict[str, float]
    witnesses: Dict[str, np.ndarray]


@dataclass(slots=True)
class CompatReport:
    almost_compatible: bool
    compatible: bool
    flat_pencil: bool
    nonsingular: bool
    max_residuals: Dict[str, float]
    witnesses: Dict[str, np.ndarray]


class _Worst:
    """Accumulate per-name max residuals with witness points."""

    def __init__(self):
        self.res = {}
        self.wit = {}

    def update(self, name, value, point):
        """Keep the larger residual; a non-finite one wins and then stays.

        `value` may also hold one residual per row of the point batch
        `point`, or one per pencil member at the one point `point`: its
        first non-finite entry stands for them all, otherwise its first
        largest one, exactly as if they came one at a time.
        """
        v = np.asarray(value, dtype=float)
        if v.ndim:
            bad = ~np.isfinite(v)
            k = int(np.argmax(bad if bad.any() else v))
            v = v[k]
            if np.ndim(point) > 1:
                point = np.asarray(point)[k]
        v = float(v)
        old = self.res.get(name)
        if old is None or (math.isfinite(old) and not v <= old):
            self.res[name] = v
            self.wit[name] = np.asarray(point)


def _abs_max(a, lead=1):
    """max |a| over all but the `lead` leading axes; NaN propagates."""
    a = np.abs(a)
    return a.reshape(a.shape[:lead] + (-1,)).max(axis=-1)


def _relative(res, *refs, lead=1):
    """The package's one residual scale: max |res| over all but the `lead`
    leading axes, over 1 + the largest such max of the reference tensors
    `refs` (a ref may already be a reduced size); NaN propagates.  The 1
    makes the ratio an absolute size once the refs are small."""
    size = _abs_max(refs[0], lead)
    for r in refs[1:]:
        size = np.maximum(size, _abs_max(r, lead))
    return _abs_max(res, lead) / (1.0 + size)


def _flatness_residual(j):
    """Relative size of a jet's curvature R^{ij}_{kl}, per point."""
    return _relative(j.riemann_upup, j.g_up, j.gamma_contra,
                     lead=j.point.ndim - 1)


_STAGES = ("almost", "compatible", "flat", "full")


def _pass(pair, stage):
    """One sweep over the sample points with everything `stage` needs.

    At each point one `geometry_jet` call, on the `PencilMembers` source of
    g1, g2 and, from "compatible" on, every sampled pencil member, evaluates
    the entries of g1 and g2 once and gives the geometry of all of them over
    a leading member axis.  The affinor, Nijenhuis and M tensors and the
    eigen-gap come from members 0 and 1 (g1 and g2), linearity from the
    sampled members, flatness from all of them.  Every residual goes through
    `_relative`, whose reductions propagate NaN, where Python's `max` drops
    a NaN that is not its first argument; each residual name gets one
    `_Worst.update` per point.  Returns the residuals and, for
    "full", whether the pencil eigenvalues stay apart at every point.
    """
    depth = _STAGES.index(stage)
    lambdas = pair.lambda_samples if depth >= 1 else []
    members = PencilMembers(pair.g1, pair.g2, lambdas, ends=True)
    # one name object per member across reports, not a copy each
    flatness = [sys.intern(f"flatness({a},{b})")
                for a, b in [(1.0, 0.0), (0.0, 1.0)] + lambdas]
    w = _Worst()
    nonsingular = True
    for p in pair.sample_points:
        try:
            jets = geometry_jet(members, p)
        except DegenerateMetric as exc:
            if exc.index[0] < 2:
                raise  # g1 or g2 itself
            l1, l2 = lambdas[exc.index[0] - 2]
            raise DegenerateMetric(
                p, exc.absdet,
                context=f"pencil member lambda=({l1}, {l2})") from exc
        j1, j2 = jets[0], jets[1]
        gc, R = jets.gamma_contra, jets.riemann_upup
        refs = (jets.g_up[:2], gc[:2])
        aff = affinor_from_jets(j1, j2)
        w.update("nijenhuis", _relative(nijenhuis(aff), *refs, lead=0), p)
        w.update("M", _relative(tensor_M_from_jets(j1, j2), *refs, lead=0),
                 p)
        if depth >= 1:
            target_g = members.combine(gc[0], gc[1])
            target_r = members.combine(R[0], R[1])
            w.update("gamma_linearity",
                     _relative(gc[2:] - target_g, gc[2:], target_g), p)
            w.update("curvature_linearity",
                     _relative(R[2:] - target_r, R[2:], target_r), p)
        if depth >= 2:
            for name, r in zip(flatness, _flatness_residual(jets)):
                w.update(name, r, p)
        if depth >= 3:
            nonsingular = nonsingular and roots_and_gap(aff.v)[1] > 1e-6
    return w, bool(nonsingular)


_ALMOST = ("nijenhuis", "M")
_LINEAR = ("gamma_linearity", "curvature_linearity")


def _below(res, names, tol):
    return all(res[k] < tol for k in names)


def _flat(res, tol):
    return all(v < tol for k, v in res.items() if k.startswith("flatness"))


def check_almost_compatible(pair):
    """Vanishing of Nijenhuis and M tensors at every sample point."""
    w, _ = _pass(pair, "almost")
    return CheckResult(_below(w.res, _ALMOST, pair.tol), w.res, w.wit)


def check_compatible(pair):
    """Linearity of Christoffel symbols and curvature across the pencil."""
    w, _ = _pass(pair, "compatible")
    passed = _below(w.res, _ALMOST + _LINEAR, pair.tol)
    return CheckResult(passed, w.res, w.wit)


def check_flat_pencil(pair):
    """Compatibility plus flatness of every sampled pencil member."""
    w, _ = _pass(pair, "flat")
    passed = (_below(w.res, _ALMOST + _LINEAR, pair.tol)
              and _flat(w.res, pair.tol))
    return CheckResult(passed, w.res, w.wit)


def full_report(pair):
    """Complete nested verdict (almost / compatible / flat pencil)."""
    w, nonsingular = _pass(pair, "full")
    almost = _below(w.res, _ALMOST, pair.tol)
    compat = almost and _below(w.res, _LINEAR, pair.tol)
    return CompatReport(
        almost_compatible=almost,
        compatible=compat,
        flat_pencil=compat and _flat(w.res, pair.tol),
        nonsingular=nonsingular,
        max_residuals=w.res,
        witnesses=w.wit,
    )


def check_constant_curvature(g, K, points, tol=DEFAULT_TOL):
    """Max deviation of R^{ij}_{kl} from the constant-curvature pattern."""
    n = g.dim
    eye = np.eye(n)
    pattern = K * (
        np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )
    pts = np.atleast_2d(np.asarray(points))
    R = geometry_jet(g, pts).riemann_upup
    w = _Worst()
    w.update("constant_curvature", _relative(R - pattern, K), pts)
    return CheckResult(w.res["constant_curvature"] < tol, w.res, w.wit)


def _eta_up(eta):
    """The inverse of a symmetric, nondegenerate constant metric eta."""
    eta = np.asarray(eta, dtype=complex)
    if not np.array_equal(eta, eta.T):
        raise ValueError("eta must be symmetric")
    if degenerate(eta)[0]:
        raise ValueError("eta must be nondegenerate")
    return np.linalg.inv(eta)


def _bracket_metric(eta_up, X, c=0.0):
    """g^{ij} = eta^{is} d_s X^j + eta^{js} d_s X^i + c eta^{ij} for a vector
    X of fields, in flat coordinates of eta."""
    n = eta_up.shape[0]
    upper = {}
    for i in range(n):
        for j in range(i, n):
            entry = constant(c * eta_up[i, j], n)
            for s in range(n):
                if eta_up[i, s] != 0:
                    entry = entry + eta_up[i, s] * X[j].partial(s)
                if eta_up[j, s] != 0:
                    entry = entry + eta_up[j, s] * X[i].partial(s)
            upper[(i, j)] = entry
    return MetricField.from_upper(upper, CONTRAVARIANT)


def _bracket_hessians(eta_up, X, point):
    """H[..., k, s, p] = d_s d_p X^k and eta^{is} H[..., j, k, s], the
    connection coefficients of the bracket metric, at one point (n,) or a
    batch (..., n)."""
    H = np.stack([x.eval_jet(point, 2).hess for x in X], axis=-3)
    return H, np.einsum("is,...jks->...ijk", eta_up, H)


def dubrovin_construct_and_check(eta, f, c, points, tol=DEFAULT_TOL,
                                 lambda_samples=None):
    """Build g1 from a vector field in flat coordinates of g2 = eta.

    g1^{ij} = eta^{is} d_s f^j + eta^{js} d_s f^i + c eta^{ij}.  Residuals of
    the quadratic compatibility condition on Delta^{ij}_k = eta^{is} d_k d_s
    f^j and of the mixed second-derivative condition are reported, together
    with the flat-pencil verdict of the constructed pair.
    """
    eta_up = _eta_up(eta)
    pts = np.atleast_2d(np.asarray(points))

    g1 = _bracket_metric(eta_up, f, c)
    g2 = MetricField.from_constant(eta_up, CONTRAVARIANT)

    H, D = _bracket_hessians(eta_up, f, pts)  # H[P,k,s,p], D = Delta^{ij}_k
    quad = (np.einsum("...ijs,...skl->...ijkl", D, D)
            - np.einsum("...iks,...sjl->...ijkl", D, D))
    G1 = g1.values(pts)
    mixed = (np.einsum("...is,jp,...ksp->...ijk", G1, eta_up, H)
             - np.einsum("is,...jp,...ksp->...ijk", eta_up, G1, H))
    refs = (_abs_max(D) ** 2, G1)
    w = _Worst()
    w.update("quadratic", _relative(quad, *refs), pts)
    w.update("mixed", _relative(mixed, *refs), pts)

    if lambda_samples is None:
        lambda_samples = default_lambda_samples()
    pair = MetricPair(g1, g2, pts, lambda_samples, tol=tol)
    flat = check_flat_pencil(pair)
    w.res.update(flat.max_residuals)
    w.wit.update(flat.witnesses)
    passed = (w.res["quadratic"] < tol and w.res["mixed"] < tol
              and flat.passed)
    return g1, CheckResult(passed, w.res, w.wit)


def mokhov_bracket_metric(eta, h, points, tol=DEFAULT_TOL):
    """Metric of the bracket ansatz g2^{ij} = eta^{is} d_s h^j + eta^{js} d_s h^i.

    Returns (g2 field, connection coefficients b^{ij}_k as a callable of the
    point, CheckResult).  The verdict is full compatibility against eta;
    when that check raises `DegenerateMetric` (g2 or a sampled member is
    degenerate by `geometry.degenerate`), only the connection-level linearity
    against b is checked (the construction allows degenerate g2 and members).
    """
    eta_up = _eta_up(eta)
    pts = np.atleast_2d(np.asarray(points))

    g2 = _bracket_metric(eta_up, h)
    g1 = MetricField.from_constant(eta_up, CONTRAVARIANT)

    def b_at(point):
        """b^{ij}_k at one point (n,) or a batch (..., n)."""
        return _bracket_hessians(eta_up, h, point)[1]

    try:
        return g2, b_at, check_compatible(MetricPair(g1, g2, pts, tol=tol))
    except DegenerateMetric:
        pass  # g2 or a sampled pencil member is degenerate: fall back

    # Connection-level check only: the pencil member lambda1*eta + lambda2*g2
    # must have Christoffel symbols -lambda2 * b (eta contributes none).
    samples = [(1.0, 0.5), (1.0, -0.5), (2.0, 0.25)]
    # a member degenerate at a point sits on a pencil eigenvalue: drop it
    bad = degenerate(PencilMembers(g1, g2, samples).entry_jets(pts, 0)[0])[0]
    w = _Worst()
    for p, b, drop in zip(pts, b_at(pts), bad.T):
        kept = [lam for lam, d in zip(samples, drop) if not d]
        if not kept:
            raise DegenerateMetric(p, 0.0, context="all pencil samples")
        gc = geometry_jet(PencilMembers(g1, g2, kept), p).gamma_contra
        l2 = np.array([l for _, l in kept], dtype=complex)[:, None, None, None]
        w.update("gamma_linearity", _relative(gc + l2 * b, b[None], gc), p)
    return g2, b_at, CheckResult(w.res["gamma_linearity"] < tol, w.res, w.wit)


def associativity_residual(eta, Phi, points):
    """Residual of the third-order symmetry condition on a potential Phi.

    eta^{sp} Phi_{pi} Phi_{sjk} must be symmetric under i <-> k.
    """
    eta_up = _eta_up(eta)
    jet = Phi.eval_jet(np.atleast_2d(np.asarray(points)), 3)
    lhs = np.einsum("sp,...pi,...sjk->...ijk", eta_up, jet.hess, jet.third)
    res = lhs - np.einsum("...ijk->...kji", lhs)
    size = _abs_max(jet.hess) * _abs_max(jet.third)
    return float(np.max(_relative(res, size)))
