"""Fixed-rank matrix manifold: tangent parametrization, projection, and the
AD-driven Riemannian gradient / approximate Hessian-by-vector product.

A point is stored in factored form X = U S V^T with orthonormal U, V.  A
tangent vector is parametrized by (dU, dV) under the gauge V^T dV = 0 and
materializes to dU V^T + U dV^T.

This is the d = 2 case of the TT manifold, applied to the transpose:
X^T = V (U S)^T is the 2-mode TT tensor with left-orthogonal core V[None],
right-orthogonal core U^T[:, :, None] and center cores (V S^T)[None] and
(S^T U^T)[:, :, None].  A tangent (dU, dV) is the TT tangent with deltas
(dV[None], dU^T[:, :, None]); the TT gauge on mode 0 is V^T dV = 0, and the
block cores [dV V] and [U^T; dU^T] are the factors R and L^T.  Everything
below delegates to :mod:`ttriem.ttmanifold`, so the routines never form the
m x n Euclidean gradient and never invert S, and remain valid when the rank
is overestimated and S carries zero singular values.
"""

import numpy as np

from . import ad
from .dense import as_tensor, frozen, svd_thin
from .errors import DimensionError
from .tt import MuOrthogonal
from .ttmanifold import TtTangent, _differentiate, tangent_dot_tt

__all__ = [
    "FixedRankPoint",
    "MatrixTangent",
    "tangent_materialize",
    "project_matrix",
    "riemannian_grad_matrix",
    "hess_vec_matrix",
    "tangent_dot_matrix",
]


class FixedRankPoint:
    """Factored point X = U S V^T with orthonormal U and V columns.

    ``ortho`` holds X^T as a 2-mode mu-orthogonal TT decomposition.
    """

    def __init__(self, u, s, v):
        u = as_tensor(u)
        v = as_tensor(v)
        s = as_tensor(s)
        if s.ndim == 1:
            s = np.diag(s)
        if u.ndim != 2 or v.ndim != 2 or s.ndim != 2:
            raise DimensionError("U, S, V must be matrices")
        r = u.shape[1]
        if r < 1:
            raise DimensionError("rank must be at least 1")
        if s.shape != (r, r) or v.shape[1] != r:
            raise DimensionError(
                f"inconsistent factor shapes: U {u.shape}, S {s.shape}, V {v.shape}"
            )
        if u.shape[0] < r or v.shape[0] < r:
            raise DimensionError("rank exceeds matrix dimensions")
        for name, q in (("U", u), ("V", v)):
            res = np.abs(q.T @ q - np.eye(r)).max()
            if res > 1e-11:
                raise DimensionError(f"{name} columns are not orthonormal (residual {res:.2e})")
        self.u = frozen(u)
        self.s = frozen(s)
        self.v = frozen(v)
        self.ortho = MuOrthogonal(
            [v[None], None], [None, u.T[:, :, None]], [(v @ s.T)[None], (s.T @ u.T)[:, :, None]]
        )

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])

    @property
    def rank(self):
        return self.u.shape[1]

    @classmethod
    def from_dense(cls, m, r):
        """Best rank-r point from a dense matrix via thin SVD."""
        m = as_tensor(m)
        if m.ndim != 2:
            raise DimensionError("expected a matrix")
        u, s, v = svd_thin(m)
        return cls(u[:, :r], np.diag(s[:r]), v[:, :r])

    def to_dense(self):
        return self.u @ self.s @ self.v.T

    def matches(self, other):
        """Whether two points anchor the same base point.

        This is the TT check on ``ortho``, whose cores are V, U^T and
        S^T U^T; the matrix routines reach it through
        :mod:`ttriem.ttmanifold`.
        """
        return self.ortho.matches(other.ortho)


class MatrixTangent:
    """Tangent vector at a fixed-rank point, parametrized by (dU, dV).

    Stored as the TT tangent ``tt`` of X^T.  Inputs nearly in gauge
    (residual below 1e-8) are re-gauged on construction; anything worse is
    rejected.
    """

    def __init__(self, base, du, dv):
        du = as_tensor(du)
        dv = as_tensor(dv)
        m, n = base.shape
        r = base.rank
        if du.shape != (m, r) or dv.shape != (n, r):
            raise DimensionError(
                f"delta shapes {du.shape}, {dv.shape} do not match point ({m}x{n}, rank {r})"
            )
        self.base = base
        self.tt = TtTangent(base.ortho, [dv[None], du.T[:, :, None]])

    @classmethod
    def _wrap(cls, base, tt):
        """Internal constructor around a TT tangent of ``base.ortho``."""
        t = object.__new__(cls)
        t.base = base
        t.tt = tt
        return t

    @property
    def du(self):
        return self.tt.deltas[1][:, :, 0].T

    @property
    def dv(self):
        return self.tt.deltas[0][0]

    def gauge_residual(self):
        return self.tt.gauge_residuals()[0]

    def norm(self):
        return self.tt.norm()


def tangent_materialize(t: MatrixTangent):
    """Low-rank factors (L, R) with L @ R.T = dU V^T + U dV^T."""
    L = np.concatenate([t.base.u, t.du], axis=1)
    R = np.concatenate([t.dv, t.base.v], axis=1)
    return L, R


def project_matrix(x: FixedRankPoint, z) -> MatrixTangent:
    """Orthogonal projection of a dense matrix onto the tangent space at x."""
    z = as_tensor(z)
    if z.shape != x.shape:
        raise DimensionError(f"shape {z.shape} does not match point shape {x.shape}")
    deltas = [(z.T @ x.u)[None], (x.v.T @ z.T)[:, :, None]]
    return MatrixTangent._wrap(x, TtTangent._projected(x.ortho, deltas))


def _core_program(p, x):
    """The factor program p(L, R) as a program over the two TT cores of X^T.

    The block cores are [dV V] = R and [U^T; dU^T] = L^T.
    """
    m, n = x.shape
    w = 2 * x.rank

    def program(cores):
        return p(ad.transpose(ad.reshape(cores[1], (w, m)), (1, 0)), ad.reshape(cores[0], (n, w)))

    return program


def riemannian_grad_matrix(p, x: FixedRankPoint) -> MatrixTangent:
    """Riemannian gradient of a program evaluating f at L @ R.T.

    The program is run on the width-2r factors L = [U dU], R = [dV V] and
    differentiated with respect to (dU, dV) as by :func:`riemannian_grad_tt`.
    For the :meth:`~ttriem.objectives.Objective.factor_program` of an
    objective of :mod:`ttriem.objectives`, the whole call is recorded for,
    and replayed on later calls with, ``p``; any other program runs eagerly.
    """
    return MatrixTangent._wrap(x, _differentiate(_core_program(p, x), x.ortho, None, p)[1])


def hess_vec_matrix(p, x: FixedRankPoint, z: MatrixTangent) -> MatrixTangent:
    """Approximate Riemannian Hessian applied to a tangent vector.

    The nested sweep of :func:`hess_vec_tt`, replayed whole for ``p`` as in
    :func:`riemannian_grad_matrix`; the curvature term of the exact Hessian
    is omitted.
    """
    return MatrixTangent._wrap(x, _differentiate(_core_program(p, x), x.ortho, z.tt, p)[1])


def tangent_dot_matrix(a: MatrixTangent, b: MatrixTangent) -> float:
    """Euclidean inner product of two tangent vectors at the same point."""
    return tangent_dot_tt(a.tt, b.tt)
