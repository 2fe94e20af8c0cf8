"""Dense brute-force reference computations for desk-scale verification,
and the comparisons that hold the library to them.

The references deliberately avoid the chain-contraction code paths of the
library: tangent-space projections are computed by least squares against an
explicitly materialized tangent basis, and Euclidean derivatives come from
each objective's dense hooks or from finite differences.  These are the referees for the fast
implementations, not part of them.  The residual functions at the end are
the one definition of each comparison; ``ttriem check``, the acceptance
suite and the benchmark all call them.  They return numbers and never
assert, so they stay live under ``python -O``.
"""

import numpy as np

from .baselines import compute_method
from .errors import OversizeError, UnavailableMethodError
from .tt import DENSE_CAP, TtTensor, tt_to_dense, ttmat_to_dense
from .ttmanifold import hess_vec_tt, riemannian_grad_tt, tangent_axpy

__all__ = [
    "dense_tangent_basis",
    "dense_project",
    "dense_oracle_grad",
    "dense_oracle_hvp",
    "fd_gradient",
    "dense_preconditioned_residual",
    "tangent_residual",
    "dense_residual",
    "oracle_residuals",
    "method_residuals",
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
        g = fd_gradient(obj.hook("dense_value"), v)
    else:
        g = obj.hook("dense_grad")(v)
    return dense_project(base, g)


def dense_oracle_hvp(obj, base, z_dense, use_fd=False, step=1e-5):
    """Dense reference for the approximate Hessian-by-vector product."""
    v = tt_to_dense(base.to_tt())
    if use_fd:
        grad = obj.hook("dense_grad")
        h = (grad(v + step * z_dense) - grad(v - step * z_dense)) / (2.0 * step)
    else:
        h = obj.hook("dense_hess_vec")(v, z_dense)
    return dense_project(base, h)


def dense_preconditioned_residual(a, b, f, base):
    """Dense reference for the projected residual P_X B (A X - F)."""
    xd = tt_to_dense(base.to_tt())
    resid = ttmat_to_dense(b) @ (ttmat_to_dense(a) @ xd.ravel() - tt_to_dense(f).ravel())
    return dense_project(base, resid.reshape(xd.shape))


def tangent_residual(got, want):
    """Relative distance ||got - want|| / ||want|| of two tangent vectors.

    The denominator is floored at 1e-300, so two zero vectors are at 0.
    """
    return tangent_axpy(-1.0, want, got).norm() / max(want.norm(), 1e-300)


def dense_residual(got, want):
    """||dense(got) - want|| / max(||want||, 1): a tangent vector against a
    dense reference, absolute where the reference is small."""
    return float(np.linalg.norm(tt_to_dense(got.materialize()) - want)
                 / max(np.linalg.norm(want), 1.0))


def oracle_residuals(obj, base, z, use_fd=False):
    """(grad, hvp) residuals of the AD pipeline against the dense oracles."""
    zd = tt_to_dense(z.materialize())
    return (
        dense_residual(riemannian_grad_tt(obj.evaluate, base),
                       dense_oracle_grad(obj, base, use_fd=use_fd)),
        dense_residual(hess_vec_tt(obj.evaluate, base, z),
                       dense_oracle_hvp(obj, base, zd, use_fd=use_fd)),
    )


def method_residuals(obj, op, base, z):
    """``tangent_residual`` between every pair of available pipelines.

    Keys are ``(reference, other)`` pairs in the order ad, naive, optimized;
    a pipeline the objective does not provide is left out.
    """
    results = {}
    for method in ("ad", "naive", "optimized"):
        try:
            results[method] = compute_method(obj, method, op, base, z)
        except UnavailableMethodError:
            continue
    names = list(results)
    return {(ref, other): tangent_residual(results[other], results[ref])
            for i, ref in enumerate(names) for other in names[i + 1:]}
