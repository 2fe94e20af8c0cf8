"""Dense brute-force reference computations for desk-scale verification.

Everything here deliberately avoids the chain-contraction code paths of the
library: tangent-space projections are computed by least squares against an
explicitly materialized tangent basis, and Euclidean derivatives come from
each objective's dense hooks or from finite differences.  These are the referees for the fast
implementations, not part of them.
"""

import numpy as np

from .errors import OversizeError
from .tt import DENSE_CAP, TtTensor, tt_to_dense

__all__ = [
    "dense_tangent_basis",
    "dense_project",
    "dense_objective",
    "dense_euclid_grad",
    "dense_euclid_hess_vec",
    "dense_oracle_grad",
    "dense_oracle_hvp",
    "fd_gradient",
]


def _guard_size(mode_sizes):
    if np.prod([float(n) for n in mode_sizes]) > DENSE_CAP:
        raise OversizeError("instance too large for the dense oracle")


def dense_tangent_basis(base):
    """Columns spanning the tangent space: one per delta-core entry.

    The generating map from (ungauged) delta cores to dense tensors is
    materialized column by column; its range is the tangent space, so a
    least-squares fit against it realizes the orthogonal projection without
    touching the projection formulas under test.
    """
    _guard_size(base.mode_sizes)
    d = base.ndim
    cols = []
    for k in range(d):
        shape = base.S[k].shape
        for flat in range(int(np.prod(shape))):
            delta = np.zeros(shape)
            delta.flat[flat] = 1.0
            cores = list(base.U[:k]) + [delta] + list(base.V[k + 1:])
            cols.append(tt_to_dense(TtTensor(cores)).ravel())
    return np.array(cols).T


def dense_project(base, z_dense):
    """Orthogonal projection of a dense tensor onto the tangent space."""
    basis = dense_tangent_basis(base)
    coef, *_ = np.linalg.lstsq(basis, z_dense.ravel(), rcond=None)
    return (basis @ coef).reshape(z_dense.shape)


def dense_objective(obj):
    """Dense evaluation function of an objective (its ``dense_value`` hook)."""
    return obj.hook("dense_value")


def dense_euclid_grad(obj, v):
    """Analytic dense Euclidean gradient at a dense point."""
    return obj.hook("dense_grad")(v)


def dense_euclid_hess_vec(obj, v, z):
    """Analytic dense Euclidean Hessian applied to a dense direction."""
    return obj.hook("dense_hess_vec")(v, z)


def fd_gradient(f, v, step=1e-6):
    """Central-difference gradient of a dense scalar function."""
    g = np.zeros_like(v)
    it = np.nditer(v, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        vp = v.copy()
        vp[i] += step
        vm = v.copy()
        vm[i] -= step
        g[i] = (f(vp) - f(vm)) / (2.0 * step)
    return g


def dense_oracle_grad(obj, base, use_fd=False):
    """Dense reference for the Riemannian gradient at the given base point."""
    v = tt_to_dense(base.to_tt())
    if use_fd:
        g = fd_gradient(dense_objective(obj), v)
    else:
        g = dense_euclid_grad(obj, v)
    return dense_project(base, g)


def dense_oracle_hvp(obj, base, z_dense, use_fd=False, step=1e-5):
    """Dense reference for the approximate Hessian-by-vector product."""
    v = tt_to_dense(base.to_tt())
    if use_fd:
        gp = dense_euclid_grad(obj, v + step * z_dense)
        gm = dense_euclid_grad(obj, v - step * z_dense)
        h = (gp - gm) / (2.0 * step)
    else:
        h = dense_euclid_hess_vec(obj, v, z_dense)
    return dense_project(base, h)
