"""The three comparison pipelines (naive / optimized / AD) plus a small
Riemannian gradient-descent demo.

naive: build the Euclidean derivative in TT form and project it.
optimized: fuse operator application or per-term projection with the
tangent projection, mode by mode, without forming intermediate high-rank
TT cores.  An observed entry is the rank-1 tensor of its unit mode
vectors, so the sparse projection has the rank-1-sum projection's chains,
with each unit vector's product replaced by picking a slice: one matrix
product per mode value through the same mode ops as the AD entries sweep.
The projections live here; each objective's constructor attaches the hooks
that combine them.
ad: differentiate the objective program directly (the library's own path).
"""

import warnings

import numpy as np

from . import ad, coreops, objectives
from .errors import DimensionError, UnavailableMethodError
from .tt import TtMatrix, TtTensor, orthogonalize, tt_axpy, tt_entries, tt_round
from .ttmanifold import (
    TtTangent,
    _apply_gauge,
    _as_ortho,
    hess_vec_tt,
    project_tt,
    riemannian_grad_tt,
)

__all__ = [
    "ad_grad",
    "ad_hvp",
    "naive_grad",
    "naive_hvp",
    "optimized_grad",
    "optimized_hvp",
    "compute_method",
    "project_matvec",
    "project_sparse",
    "project_rank1_sum",
    "riemannian_gd_demo",
    "demo_solve",
    "demo_eigen",
    "demo_complete",
]


# ---------------------------------------------------------------------------
# AD method (thin wrappers over the manifold module)


def ad_grad(obj, x) -> TtTangent:
    return riemannian_grad_tt(obj.evaluate, x)


def ad_hvp(obj, x, z: TtTangent) -> TtTangent:
    return hess_vec_tt(obj.evaluate, x, z)


# ---------------------------------------------------------------------------
# naive method: TT Euclidean derivative, then projection


def naive_grad(obj, x) -> TtTangent:
    base = _as_ortho(x)
    return project_tt(base, obj.hook("euclid_grad_tt")(base.to_tt()))


def naive_hvp(obj, x, z: TtTangent) -> TtTangent:
    base = _as_ortho(x)
    return project_tt(base, obj.hook("euclid_hess_vec_tt")(base.to_tt(), z.materialize()))


# ---------------------------------------------------------------------------
# optimized method: fused projections


def project_matvec(a: TtMatrix, y: TtTensor, base) -> TtTangent:
    """P_X (A Y) by per-mode partial contractions.

    Every step contracts two operands: an interface with the Y core, then
    the A core, then the X core (U, V, or the other interface for a delta).
    The interfaces carry (rank of Y, rank of A, rank of X) jointly, so the
    rank-R*r cores of A Y are never materialized.  ``A`` must map the modes
    of Y to those of X (``DimensionError`` otherwise).
    """
    base = _as_ortho(base)
    coreops._check_operator(a.cores, y.cores, base.mode_sizes, "project_matvec")
    d = base.ndim
    # Index letters: a, d rank Y; b, e rank A; c, f rank X; i, j the row and
    # column modes of A.  ly[k][c, d, i, e] is the left interface through
    # mode k-1 joined with the k-th cores of Y and A; left[k+1] and delta k
    # both start from it.
    left = np.ones((1, 1, 1))
    ly = []
    for k in range(d):
        t = np.tensordot(left, y.cores[k], axes=([0], [0]))  # (b, c, j, d)
        t = np.tensordot(t, a.cores[k], axes=([0, 2], [0, 2]))  # (c, d, i, e)
        ly.append(t)
        if k < d - 1:
            left = np.tensordot(t, base.U[k], axes=([0, 2], [0, 1]))  # (d, e, f)
    right = np.ones((1, 1, 1))
    deltas = [None] * d
    for k in range(d - 1, -1, -1):
        deltas[k] = np.tensordot(ly[k], right, axes=([1, 3], [0, 1]))  # (c, i, f)
        if k > 0:
            t = np.tensordot(y.cores[k], right, axes=([2], [0]))  # (a, j, e, f)
            t = np.tensordot(t, a.cores[k], axes=([1, 2], [2, 3]))  # (a, f, b, i)
            right = np.tensordot(t, base.V[k], axes=([1, 3], [2, 1]))  # (a, b, c)
    return TtTangent._trusted(base, _apply_gauge(base, deltas))


def project_sparse(base, indices, weights) -> TtTangent:
    """P_X of a sparse tensor given by entry positions and weights.

    An observed entry is the rank-1 tensor of its unit mode vectors, so this
    is :func:`project_rank1_sum` with each unit vector's product replaced by
    the slice it picks: the left (U) and right (V) chains are
    :func:`ttriem.ad.mode_matmul` calls and each delta is one
    :func:`ttriem.ad.mode_outer`, one matrix product per mode value.  The
    left rows into mode k and the right rows out of mode k + 1 are both kept
    sorted by mode k's index, so a chain step costs one row permutation and
    a delta none.  Time is O(N d r^2); no one-hot row or per-sample slice
    is formed.
    """
    base = _as_ortho(base)
    sizes = base.mode_sizes
    idx = coreops.check_indices(indices, sizes)
    w = np.asarray(weights, dtype=np.float64)
    d, count = base.ndim, len(idx)
    if w.shape != (count,):
        raise DimensionError(f"need one weight per index tuple: {w.shape} for {count}")
    sorts = [ad.ModeSort(idx[:, k], n) for k, n in enumerate(sizes)]
    # left[k] and right[k + 1] are (N, r_k) and (N, r_{k+1}) rows in
    # sorts[k]'s order; rows of ones are the same in every order.
    left = [np.ones((count, 1))]
    for k in range(d - 1):
        groups = sorts[k].groups(sorts[k + 1])
        left.append(ad.mode_matmul(left[k], base.U[k], groups))
    right = [None] * d + [np.ones((count, 1))]
    for k in range(d - 1, 0, -1):
        groups = sorts[k].groups(sorts[k - 1])
        right[k] = ad.mode_matmul(right[k + 1], np.transpose(base.V[k], (2, 1, 0)), groups)
    deltas = []
    for k, (s, n) in enumerate(zip(sorts, sizes)):
        rows = np.take(w, s.order)[:, None] * left[k]
        deltas.append(ad.mode_outer(rows, right[k + 1], s.groups(s), n))
    return TtTangent._trusted(base, _apply_gauge(base, deltas))


def project_rank1_sum(base, mode_vectors, coeffs) -> TtTangent:
    """P_X of sum_i c_i W_i for rank-1 tensors given by per-mode vectors.

    Each term's projection factors into left (U) and right (V) chains and
    its mode vectors; every chain step and delta is one product over terms.
    """
    base = _as_ortho(base)
    d = base.ndim
    c = np.asarray(coeffs, dtype=np.float64)
    n_terms = len(c)

    def transfer(core, k):
        # (N, rl, rr): core k contracted with every term's mode-k vector.
        rl, n_k, rr = core.shape
        flat = core.transpose(1, 0, 2).reshape(n_k, rl * rr)
        return (mode_vectors[k] @ flat).reshape(n_terms, rl, rr)

    left = [np.ones((n_terms, 1))]
    for k in range(d - 1):
        left.append(np.einsum("na,nab->nb", left[k], transfer(base.U[k], k)))
    right = [None] * (d + 1)
    right[d] = np.ones((n_terms, 1))
    for k in range(d - 1, 0, -1):
        right[k] = np.einsum("nab,nb->na", transfer(base.V[k], k), right[k + 1])
    deltas = []
    for k in range(d):
        rl, n_k, rr = base.S[k].shape
        outer = (c[:, None] * left[k])[:, :, None] * right[k + 1][:, None, :]
        flat = mode_vectors[k].T @ outer.reshape(n_terms, rl * rr)
        deltas.append(flat.reshape(n_k, rl, rr).transpose(1, 0, 2))
    return TtTangent._trusted(base, _apply_gauge(base, deltas))


def optimized_grad(obj, x) -> TtTangent:
    return obj.hook("optimized_grad")(_as_ortho(x))


def optimized_hvp(obj, x, z: TtTangent) -> TtTangent:
    return obj.hook("optimized_hvp")(_as_ortho(x), z)


def compute_method(obj, method: str, op: str, x, z=None) -> TtTangent:
    """Dispatch one of the three pipelines for a gradient or HVP."""
    table = {
        ("ad", "grad"): lambda: ad_grad(obj, x),
        ("ad", "hvp"): lambda: ad_hvp(obj, x, z),
        ("naive", "grad"): lambda: naive_grad(obj, x),
        ("naive", "hvp"): lambda: naive_hvp(obj, x, z),
        ("optimized", "grad"): lambda: optimized_grad(obj, x),
        ("optimized", "hvp"): lambda: optimized_hvp(obj, x, z),
    }
    key = (method, op)
    if key not in table:
        raise UnavailableMethodError(f"unknown method/op combination {key}")
    return table[key]()


# ---------------------------------------------------------------------------
# demo optimizer


def riemannian_gd_demo(obj, x0: TtTensor, steps: int, step_size: float,
                       max_rank):
    """Fixed-step Riemannian gradient descent with TT-rounding retraction.

    Returns the final iterate and the history of objective values
    (steps + 1 entries).  A tenfold increase over the starting value
    triggers a divergence warning, not an error.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x = x0
    history = [float(obj.evaluate([np.asarray(c) for c in x.cores]))]
    warned = False
    for _ in range(steps):
        base = orthogonalize(x)
        g = riemannian_grad_tt(obj.evaluate, base)
        x = tt_round(tt_axpy(-step_size, g.materialize(), base.to_tt()), max_rank)
        history.append(float(obj.evaluate([np.asarray(c) for c in x.cores])))
        if not warned and history[-1] > 10.0 * abs(history[0]) + 1e-12:
            warnings.warn("gradient descent demo appears to diverge", RuntimeWarning)
            warned = True
    return x, history


def _linear_system_objective(a: TtMatrix, rhs: TtTensor):
    """f(X) = 0.5 <A X, X> - <F, X>, the energy functional of A X = F."""

    def evaluate(cores):
        quad = ad.mul(coreops.operator_dot_cores(list(a.cores), cores, cores), 0.5)
        lin = coreops.dot_cores([c for c in rhs.cores], cores)
        return ad.sub(quad, lin)

    return objectives.Objective(name="linear_system", evaluate=evaluate, operator=a)


def demo_solve(steps=30, step_size=0.1, x0=None, seed=0):
    """Energy descent for A X = F with A = I, F = 0 (norm shrinks to zero)."""
    from .tt import random_tt, ttmat_identity

    rng = np.random.default_rng(seed)
    modes = (3, 4, 3)
    if x0 is None:
        x0 = random_tt(rng, modes, 2)
    obj = _linear_system_objective(
        ttmat_identity(x0.mode_sizes),
        TtTensor([np.zeros((1, n, 1)) for n in x0.mode_sizes]),
    )
    x, history = riemannian_gd_demo(obj, x0, steps, step_size, 2)
    return x, history


def demo_eigen(steps=600, step_size=0.4, x0=None, seed=0):
    """Rayleigh-quotient descent toward the smallest eigenvalue of a
    diagonal operator on a d=3, n=2 instance."""
    from .tt import random_tt

    rng = np.random.default_rng(seed)
    modes = (2, 2, 2)
    diag = np.linspace(1.0, 2.0, int(np.prod(modes))).reshape(modes)
    # diag(v) as a TT-matrix: decompose v exactly, then place each core
    # slice on the operator diagonal.
    cores = []
    for c in _tt_from_dense(diag).cores:
        rl, n, rr = c.shape
        core = np.zeros((rl, n, n, rr))
        for i in range(n):
            core[:, i, i, :] = c[:, i, :]
        cores.append(core)
    obj = objectives.rayleigh_quotient(TtMatrix(cores))
    if x0 is None:
        x0 = random_tt(rng, modes, 2)
    x, history = riemannian_gd_demo(obj, x0, steps, step_size, 2)
    return x, history, float(diag.min())


def demo_complete(steps=200, step_size=0.4, x0=None, seed=0):
    """Recover a true rank-2 tensor from fully observed entries."""
    from .tt import random_tt

    rng = np.random.default_rng(seed)
    modes = (3, 4, 3)
    truth = random_tt(rng, modes, 2)
    idx = np.indices(modes).reshape(len(modes), -1).T
    values = tt_entries(truth, idx)
    obj = objectives.completion_loss(objectives.IndexSet(idx, values))
    if x0 is None:
        x0 = random_tt(rng, modes, 2)
    x, history = riemannian_gd_demo(obj, x0, steps, step_size, 2)
    return x, history


def _tt_from_dense(a: np.ndarray) -> TtTensor:
    """Exact TT decomposition of a small dense tensor (full-rank sweep)."""
    shape = a.shape
    d = len(shape)
    cores = []
    work = a.reshape(1, -1)
    rl = 1
    for k in range(d - 1):
        m = work.reshape(rl * shape[k], -1)
        q, r = np.linalg.qr(m, mode="reduced")
        rr = q.shape[1]
        cores.append(q.reshape(rl, shape[k], rr))
        work = r
        rl = rr
    cores.append(work.reshape(rl, shape[d - 1], 1))
    return TtTensor(cores)
