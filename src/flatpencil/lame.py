"""Rotation coefficients of orthogonal coordinate systems.

beta_ik = (1/H_i) dH_k/du^i from Lame coefficients H_i, residuals of the
orthogonal-system equations, and the extra linear-in-f reduction that singles
out compatible flat diagonal pairs.  Rotation coefficients may come from
symbolic fields or from a numeric solver (grid route); both expose the same
value/derivative interface.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .expr import ScalarField, constant, embed, sqrt, stack
from .geometry import MetricField

FD_STEP = 1e-3  # step of the finite-difference reference route only


@dataclass
class LameData:
    """Lame coefficients H_i(u) plus per-axis eigenvalue functions f^i(u^i)."""

    H: List[ScalarField]
    f: List[ScalarField]  # each of dim 1, evaluated at u^i

    def __post_init__(self):
        self.dim = len(self.H)
        if len(self.f) != self.dim:
            raise ValueError("need one eigenvalue function per axis")
        if any(g.dim != self.dim for g in self.H):
            raise ValueError("H entries must have dim N")
        if any(g.dim != 1 for g in self.f):
            raise ValueError("f entries must be single-variable fields")


@dataclass(slots=True)
class RotationCoeffs:
    """beta_ij samples: value(u) -> (N, N), deriv(u) -> (k, i, j) partials.

    jet(points) returns both at once for a point (N,) or points (P, N), so
    that a source sharing work between value and partials pays for it once.
    A source's own jet takes one point; the field route takes the whole
    batch, so its beta entries are evaluated in one call over all points.
    """

    dim: int
    _value: Callable[[np.ndarray], np.ndarray]
    _jet: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    beta_fields: Optional[List[List[ScalarField]]] = None

    def value(self, point):
        return self._value(np.asarray(point, dtype=float))

    def deriv(self, point):
        return self.jet(point)[1]

    def jet(self, points):
        """(value, deriv) at a point (N,), or stacked over points (P, N)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1 or self.beta_fields is not None:
            return self._jet(pts)
        B, D = zip(*(self._jet(p) for p in pts))
        return np.array(B), np.array(D)

    @staticmethod
    def from_fields(beta_fields):
        n = len(beta_fields)
        rows, cols = np.nonzero(~np.eye(n, dtype=bool))
        off = [beta_fields[i][j] for i, j in zip(rows, cols)]
        entries = stack(off) if off else None

        def jet(points):
            lead = points.shape[:-1]
            val = np.zeros(lead + (n, n), dtype=complex)
            der = np.zeros(lead + (n, n, n), dtype=complex)
            if entries is not None:
                value, grad = entries.eval_jet(points, 1).slots()
                val[..., rows, cols] = np.moveaxis(value, 0, -1)
                der[..., rows, cols] = np.moveaxis(grad, 0, -1)
            return val, der

        return RotationCoeffs(n, lambda u: jet(u)[0], jet, beta_fields)

    @staticmethod
    def from_callable(dim, fn):
        """fn(u) -> (N, N) beta matrix; partials by 4th-order differences.

        A reference route only: the library's own sources (fields and
        dressing) give exact partials, and tests check those against this
        finite-difference route.
        """

        def jet(point):
            out = np.zeros((dim, dim, dim), dtype=complex)
            for k in range(dim):
                e = np.zeros(dim)
                e[k] = FD_STEP
                out[k] = (
                    -fn(point + 2 * e) + 8 * fn(point + e)
                    - 8 * fn(point - e) + fn(point - 2 * e)
                ) / (12 * FD_STEP)
            return fn(point), out

        return RotationCoeffs(dim, fn, jet)


def _field_rotation(n, entry):
    """Field-backed beta_ik = entry(i, k) for i != k, zero on the diagonal."""
    zero = constant(0.0, n)
    return RotationCoeffs.from_fields([[zero if i == k else entry(i, k)
                                        for k in range(n)] for i in range(n)])


def rotation_from_H(d):
    """beta_ik = (1/H_i) dH_k/du^i for i != k; diagonal entries unused."""
    return _field_rotation(d.dim, lambda i, k: d.H[k].partial(i) / d.H[i])


def _outside(n):
    """Mask [s, i, j]: the index s differs from both i and j."""
    s = np.arange(n)
    return (s[:, None, None] != s[:, None]) & (s[:, None, None] != s)


def _divergence(B, D, fv, half_fd):
    """[p, i, j]: the reduction's left side from beta values B[p, i, j],
    partials D[p, k, i, j], f^i values fv[p, i] and half_fd = (f^i)'/2."""
    # the i-terms at [p, i, j]; their transposes are the j-terms
    x = fv[:, :, None] * np.einsum("piij->pij", D)
    y = half_fd[:, :, None] * B
    acc = x + y + np.swapaxes(x, 1, 2) + np.swapaxes(y, 1, 2)
    for s, keep in enumerate(_outside(B.shape[-1])):
        acc += np.where(keep, fv[:, s, None, None] * B[:, s, :, None]
                        * B[:, s, None, :], 0)
    return acc


def lame_residuals(b, points, f=None):
    """(system, divergence), or with eigenvalue functions f also the
    reduction: all three from one b.jet call (and one call for the f^i).

    System equations: d beta_ij / du^k = beta_ik beta_kj for distinct i,j,k
    (vacuous at N=2).  Reduction, for i < j:
    f^i b_ij,i + (f^i)'/2 b_ij + f^j b_ji,j + (f^j)'/2 b_ji
    + sum_{s != i,j} f^s b_si b_sj = 0.  The divergence equations are the
    reduction at f = 1, checked for every i != j.
    """
    n = b.dim
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    B, D = b.jet(pts)
    outside, off = _outside(n), ~np.eye(n, dtype=bool)
    # [p, k, i, j]: d beta_ij / du^k - beta_ik beta_kj
    system = D - np.swapaxes(B, 1, 2)[..., None] * B[:, :, None, :]
    ones = np.ones(B.shape[:2])
    res = [system[:, outside & off], _divergence(B, D, ones, 0 * ones)[:, off]]
    if f is not None:
        fj = stack([embed(g, i, n) for i, g in enumerate(f)]).eval_jet(pts, 1)
        fv = fj.value.T  # (P, N)
        half_fd = 0.5 * np.einsum("ipi->pi", fj.grad)  # (f^i)'(u^i) / 2
        res.append(_divergence(B, D, fv, half_fd)[:, np.triu(off)])
    return tuple(float(np.max(np.abs(r), initial=0.0)) for r in res)


def reduction_residual(b, f, points):
    """Residual of the linear-in-f reduction (see lame_residuals)."""
    return lame_residuals(b, points, f)[2]


def scaled_rotation(b, f):
    """beta~_ik = sqrt(f^i(u^i)) / sqrt(f^k(u^k)) * beta_ik (field route only).

    Satisfies the system equations whenever beta does; its divergence
    equations are exactly the reduction.
    """
    if b.beta_fields is None:
        raise ValueError("scaling requires a field-backed rotation")
    roots = [sqrt(embed(fi, i, b.dim)) for i, fi in enumerate(f)]
    return _field_rotation(
        b.dim, lambda i, k: roots[i] * b.beta_fields[i][k] / roots[k])


def weighted_diagonal(w, f):
    """Contravariant diag(f^i(u^i) w_i) from N-variable weights w_i."""
    return MetricField.diagonal([embed(fi, i, len(w)) * wi
                                 for i, (fi, wi) in enumerate(zip(f, w))])


def diagonal_pair(w, f):
    """Contravariant (diag(f^i(u^i) w_i), diag(w_i)), the diagonal form."""
    return weighted_diagonal(w, f), MetricField.diagonal(w)


def assemble_pair(d):
    """Diagonal pair (g1, g2) with g2^i = 1/H_i^2, g1^i = f^i(u^i)/H_i^2."""
    return diagonal_pair([constant(1.0, d.dim) / (h * h) for h in d.H], d.f)


_HEADER = struct.Struct("<qqdd")


def write_beta_grid(path, beta, s_min, s_max):
    """Serialize beta_ij(s_a) samples of shape (N, N, m).

    Layout: little-endian int64 N, int64 m, float64 s_min, float64 s_max,
    then the (N, N, m) array in row-major order as interleaved
    (re, im) float64 pairs, which is numpy's '<c16'.
    """
    arr = np.ascontiguousarray(beta, dtype="<c16")
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
        raise ValueError("beta grid must have shape (N, N, m)")
    n, _, m = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(n, m, float(s_min), float(s_max)))
        fh.write(arr.tobytes())


def read_beta_grid(path):
    """Inverse of write_beta_grid; returns (beta, s_min, s_max)."""
    with open(path, "rb") as fh:
        n, m, s_min, s_max = _HEADER.unpack(fh.read(_HEADER.size))
        payload = bytearray(fh.read())  # writable, as the array it backs
    if len(payload) != 16 * n * n * m:
        raise ValueError("beta grid payload size mismatch")
    beta = np.frombuffer(payload, dtype="<c16").reshape(n, n, m)
    return beta, s_min, s_max
