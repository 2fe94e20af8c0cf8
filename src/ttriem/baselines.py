"""The three comparison pipelines (naive / optimized / AD) plus a small
Riemannian gradient-descent demo.

naive: build the Euclidean derivative in TT form and project it.
optimized: fuse operator application or per-term projection with the
tangent projection, mode by mode, without forming intermediate high-rank
TT cores.  An observed entry is the rank-1 tensor of its unit mode
vectors, so the sparse projection has the rank-1-sum projection's chains,
with each unit vector's product replaced by picking a slice.  It reads them
from the prefix and suffix tables that the AD entries use: one gather of
each table and one scatter back into it, then a walk through the table
chain, O(P r^2) per table mode for P table rows, plus O(N r) for the N
samples; only the modes between the tables take one matrix product per mode
value.  Memory is O(N r + P r) whatever d is.  The projections live here;
each objective's constructor attaches the hooks that combine them.
ad: differentiate the objective program directly (the library's own path).
"""

import warnings

import numpy as np

from . import ad, coreops, objectives
from .errors import DimensionError, NonFiniteError, UnavailableMethodError
from .tt import TtMatrix, TtTensor, orthogonalize, tt_axpy, tt_entries, tt_round
from .ttmanifold import (
    TtTangent,
    _as_ortho,
    hess_vec_tt,
    project_tt,
    riemannian_grad_tt,
    riemannian_value_and_grad_tt,
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
    return TtTangent._projected(base, deltas)


def project_sparse(base, indices, weights) -> TtTangent:
    """P_X of a sparse tensor given by entry positions and weights.

    An observed entry is the rank-1 tensor of its unit mode vectors, so this
    is :func:`project_rank1_sum` with each unit vector's product replaced by
    the slice it picks.  The chain is split at the modes (a, b) of
    :func:`ttriem.coreops.entries_cores`: the U-chain of modes 0..a-1 at
    every prefix and the V-chain of modes b..d-1 at every suffix are tables,
    with their intermediate tables kept, each gathered once at the samples'
    prefix and suffix ids.  w times the right rows is scattered by prefix id
    into a (P_L, r_a) array and walked back through the prefix tables: at
    mode j the delta is the table of modes 0..j-1 transposed times it, then
    V_j carries it to mode j - 1.  w times the left rows is scattered by
    suffix id into an (r_b, P_R) array and walked forward through the suffix
    tables with the U cores.  Only modes a..b-1, which the tables cannot
    reach, run the row sweep: :func:`ttriem.ad.mode_matmul` chains and one
    :func:`ttriem.ad.mode_outer` delta each, one matrix product per mode
    value on rows sorted by the mode, with one :func:`ttriem.ad.take_rows`
    into the next mode's order.  Time is O(P r^2) per table mode
    (P table rows, at most N beyond a boundary core) plus O(N r) for the
    gathers and scatters, plus O(N r^2) per swept mode.  Memory is
    O(N r + P r), independent of d, plus O(N r) per swept mode.  No one-hot
    row or per-sample slice is formed.
    """
    base = _as_ortho(base)
    sizes = base.mode_sizes
    idx = coreops.check_indices(indices, sizes)
    w = np.asarray(weights, dtype=np.float64)
    d, count = base.ndim, len(idx)
    if w.shape != (count,):
        raise DimensionError(f"need one weight per index tuple: {w.shape} for {count}")
    if d == 1:
        deltas = [ad.scatter_mode(w.reshape(count, 1, 1), idx[:, 0], sizes[0])]
        return TtTangent._projected(base, deltas)
    a, b = coreops._table_split(sizes, count)
    r_a, r_b = base.S[a].shape[0], base.S[b].shape[0]
    prefix, suffix = coreops._table_ids(idx, sizes, a, b)
    lefts = coreops._prefix_tables(base.U[:a])  # lefts[j] is (1, P_{j+1}, r_{j+1})
    rights = coreops._suffix_tables(base.V[b:])  # rights[j] is (r_{b+j}, Q_{b+j}, 1)
    deltas = [None] * d
    # Swept mode a + j works on rows sorted by sorts[j]: the left rows are
    # gathered in mode a's order, the right rows in mode b - 1's, and each
    # chain hands its last rows out in sample order (None).
    sorts = [ad.ModeSort(idx[:, k], sizes[k]) for k in range(a, b)]
    first, last = (sorts[0], sorts[-1]) if sorts else (None, None)
    left = [ad.gather_mode(lefts[-1], _in_order(prefix, first)).reshape(count, r_a)]
    for k, sort, following in zip(range(a, b), sorts, sorts[1:] + [None]):
        left.append(ad.take_rows(ad.mode_matmul(left[-1], base.U[k], sort), sort, following))
    # Each (N, r) array is weighted in place and dropped once scattered, so
    # at most one is alive beyond those the swept modes keep.
    rows = left.pop()
    rows *= w[:, None]
    g = ad.scatter_mode(rows.reshape(count, r_b, 1), suffix, rights[0].shape[1])
    del rows
    rows = ad.gather_mode(rights[0], _in_order(suffix, last)).reshape(count, r_b)
    rows *= _in_order(w, last)[:, None]
    for k, sort, preceding in reversed(list(zip(range(a, b), sorts, [None] + sorts[:-1]))):
        deltas[k] = ad.mode_outer(left.pop(), rows, sort)
        rows = ad.mode_matmul(rows, np.transpose(base.V[k], (2, 1, 0)), sort)
        rows = ad.take_rows(rows, sort, preceding)
    h = ad.scatter_mode(rows.reshape(count, 1, r_a), prefix, lefts[-1].shape[1])
    # g is (r_j, Q_j) at suffix mode j: its delta takes the chain of modes
    # j+1..d-1, then U_j carries it to mode j + 1.
    tails = rights[1:] + [np.ones((1, 1, 1))]
    for j in range(b, d):
        r, n, r_next = base.S[j].shape
        g = g.reshape(r * n, -1)
        deltas[j] = (g @ tails[j - b][:, :, 0].T).reshape(r, n, r_next)
        if j < d - 1:
            g = base.U[j].reshape(r * n, r_next).T @ g
    # h is (P_{j+1}, r_{j+1}) at prefix mode j: its delta takes the chain of
    # modes 0..j-1, then V_j carries it to mode j - 1.
    heads = [np.ones((1, 1, 1))] + lefts[:-1]
    for j in range(a - 1, -1, -1):
        r, n, r_next = base.S[j].shape
        h = h.reshape(-1, n * r_next)
        deltas[j] = (heads[j][0].T @ h).reshape(r, n, r_next)
        if j > 0:
            h = h @ base.V[j].reshape(r, n * r_next).T
    return TtTangent._projected(base, deltas)


def _in_order(values, sort):
    # values per sample, in the sorted order of ``sort`` (None: as given).
    return values if sort is None else np.take(values, sort.order, axis=0)


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
    return TtTangent._projected(base, deltas)


def optimized_grad(obj, x) -> TtTangent:
    return obj.hook("optimized_grad")(_as_ortho(x))


def optimized_hvp(obj, x, z: TtTangent) -> TtTangent:
    return obj.hook("optimized_hvp")(_as_ortho(x), z)


def compute_method(obj, method: str, op: str, x, z=None) -> TtTangent:
    """Dispatch one of the three pipelines for a gradient or HVP.

    Every pipeline fails alike on a non-finite result, with
    :class:`NonFiniteError`: every tangent is checked as it is built
    (:meth:`TtTangent._projected`), the AD one's value too, and a naive or
    optimized one's error is renamed here after ``op``.
    """
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
    try:
        return table[key]()
    except NonFiniteError as err:
        if err.stage != "tangent":
            raise
        raise NonFiniteError("gradient" if op == "grad" else "HVP", err.detail) from err


# ---------------------------------------------------------------------------
# demo optimizer


def riemannian_gd_demo(obj, x0: TtTensor, steps: int, step_size: float,
                       max_rank):
    """Fixed-step Riemannian gradient descent with TT-rounding retraction.

    Returns the final iterate and the history of objective values
    (steps + 1 entries).  Each iterate's value is the one its gradient call
    recorded; the objective is evaluated on its own only at the last
    iterate.  A tenfold increase over the starting value triggers a
    divergence warning, not an error; a non-finite value stops the descent
    with :class:`NonFiniteError`.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    history, warned = [], False

    def record(value):
        nonlocal warned
        if history and not warned and value > 10.0 * abs(history[0]) + 1e-12:
            warnings.warn("gradient descent demo appears to diverge", RuntimeWarning)
            warned = True
        history.append(value)

    x = x0
    for _ in range(steps):
        base = orthogonalize(x)
        value, g = riemannian_value_and_grad_tt(obj.evaluate, base)
        record(value)
        x = tt_round(tt_axpy(-step_size, g.materialize(), base.to_tt()), max_rank)
    value = float(obj.evaluate([np.asarray(c) for c in x.cores]))
    if not np.isfinite(value):
        raise NonFiniteError("value", f"the objective is {value} at the last iterate")
    record(value)
    return x, history


def _linear_system_objective(a: TtMatrix, rhs: TtTensor):
    """f(X) = 0.5 <A X, X> - <F, X>, the energy functional of A X = F."""

    def evaluate(cores):
        quad = ad.mul(coreops.operator_dot_cores(list(a.cores), cores, cores), 0.5)
        lin = coreops.dot_cores([c for c in rhs.cores], cores)
        return ad.sub(quad, lin)

    return objectives.Objective(name="linear_system", evaluate=objectives._static(evaluate),
                                operator=a)


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
