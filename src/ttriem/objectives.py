"""Objective functions as recordable TT-core programs.

Each objective is a program over TT cores (usable on plain arrays and on
tape variables).  Its constructor also attaches whatever else is known
about it: analytic Euclidean derivatives in TT form for the naive
baseline, fused projections for the optimized baseline, and dense formulas
for the oracles.  The factor-pair adapter reinterprets a 2-mode core
program as a program over low-rank matrix factors (L, R).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import ad, baselines, coreops, ttmanifold
from .errors import (
    DegeneratePointError,
    DimensionError,
    InvalidDataError,
    UnavailableMethodError,
)
from .tt import (
    TtMatrix,
    TtTensor,
    tt_axpy,
    tt_dot,
    tt_entries,
    tt_scale,
    tt_to_dense,
    tt_weighted_sum,
    ttmat_apply,
    ttmat_to_dense,
    ttmat_transpose,
)
from .ttmanifold import point_as_tangent, tangent_axpy, tangent_dot_tt, tangent_scale

__all__ = [
    "IndexSet",
    "Objective",
    "quadratic_form",
    "gram_quadratic_form",
    "rayleigh_quotient",
    "completion_loss",
    "expmachines_loss",
    "regularized_completion",
    "read_index_set",
    "write_index_set",
    "NAIVE_RANK_CAP",
]

# Largest TT rank the naive baseline may build for sparse/sum gradients;
# beyond it the method is reported unavailable (the out-of-memory analog).
NAIVE_RANK_CAP = 300


class IndexSet:
    """Observed entries for completion: (N, d) indices plus values, both
    held read-only, so an objective built on the set keeps them as fixed
    constants.  An intp index array or float64 value array that is already
    read-only and owns its data is taken over as it is; any other is
    copied."""

    def __init__(self, indices, values):
        indices = ad.index_array(indices)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 2:
            raise InvalidDataError("indices must form an (N, d) array")
        if values.shape != (indices.shape[0],):
            raise InvalidDataError("need exactly one value per index tuple")
        if not np.all(np.isfinite(values)):
            raise InvalidDataError("observation values must be finite")
        if indices.size and indices.min() < 0:
            raise IndexError("negative index in observation set")
        if len(np.unique(indices, axis=0)) != len(indices):
            raise InvalidDataError("duplicate index tuples in observation set")
        self.indices, self.values = _read_only(indices), _read_only(values)

    def __len__(self):
        return len(self.values)

    @property
    def ndim(self):
        return self.indices.shape[1]


def _read_only(a):
    # ``a`` itself when it is read-only and owns its data; otherwise a
    # read-only copy.
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy(order="K")
        a.flags.writeable = False
    return a


def read_index_set(path) -> IndexSet:
    """Parse the observation text format: d indices and a value per line."""
    rows = []
    vals = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) < 2:
                raise InvalidDataError(f"line {lineno}: need indices and a value")
            try:
                rows.append([int(p) for p in parts[:-1]])
                vals.append(float(parts[-1]))
            except ValueError as exc:
                raise InvalidDataError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise InvalidDataError("no observation lines")
    if any(len(r) != len(rows[0]) for r in rows):
        raise InvalidDataError("observation lines disagree on dimensionality")
    return IndexSet(np.array(rows), np.array(vals))


def write_index_set(omega: IndexSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, val in zip(omega.indices, omega.values):
            fh.write(" ".join(str(int(i)) for i in row) + f" {float(val)!r}\n")


@dataclass(frozen=True)
class Objective:
    """A differentiable objective plus optional hooks for the other methods.

    Only ``evaluate`` is required.  The hooks, each ``None`` when unknown:
    ``euclid_grad_tt(x)`` / ``euclid_hess_vec_tt(x, z)`` on TT tensors (naive
    method), ``optimized_grad(base)`` / ``optimized_hvp(base, z)`` at a
    mu-orthogonal base point (optimized method), and ``dense_value(v)`` /
    ``dense_grad(v)`` / ``dense_hess_vec(v, z)`` on dense arrays (oracles).
    Dense hooks densify the operator or data inside each call, never at
    construction, so objectives too large to densify stay cheap to build.
    Optimized hooks reach ``baselines.project_*`` through the module at call
    time, so a later rebinding of those names (a profiler's) is seen.
    """

    name: str
    evaluate: Callable
    euclid_grad_tt: Optional[Callable] = None
    euclid_hess_vec_tt: Optional[Callable] = None
    operator: Optional[TtMatrix] = None
    optimized_grad: Optional[Callable] = None
    optimized_hvp: Optional[Callable] = None
    dense_value: Optional[Callable] = None
    dense_grad: Optional[Callable] = None
    dense_hess_vec: Optional[Callable] = None

    def hook(self, name):
        """The named hook, or UnavailableMethodError if it is not attached."""
        fn = getattr(self, name)
        if fn is None:
            raise UnavailableMethodError(f"{self.name}: no {name} available")
        return fn

    def factor_program(self):
        """Adapter: evaluate the objective on matrix factors (L, R).

        Only meaningful for 2-mode data; the factors are reinterpreted as
        the two cores of a 2-mode TT chain.
        """

        def program(left, right):
            lshape, rshape = np.shape(left), np.shape(right)
            g1 = ad.reshape(left, (1, lshape[0], lshape[1]))
            g2 = ad.reshape(ad.transpose(right, (1, 0)), (rshape[1], rshape[0], 1))
            return self.evaluate([g1, g2])

        if self.evaluate in ttmanifold._static_programs:
            _static(program)
        return program


def _static(evaluate):
    """``evaluate``, registered as a program whose kernels and constants
    are fixed by the shapes and block masks of the cores it receives, so
    that a whole gradient or HVP call of it replays
    (``ttmanifold._static_programs``).  Only the constructors here, the
    factor programs of their objectives and the energy of
    ``ttriem.baselines`` register a program: each reads its cores through
    ``ttriem.ad`` ops alone, holds its data as read-only arrays, and checks
    values only by ``ttriem.ad._checked``."""
    ttmanifold._static_programs.add(evaluate)
    return evaluate


def _check_symmetric(a: TtMatrix, name):
    """Reject a non-square or nonsymmetric operator, at any size.

    Compares <A x, y> with <A y, x> for two rank-1 probes; for A - A^T != 0
    they differ for almost every draw.  The probes come from a fixed
    private seed, so the check consumes nothing of the caller's generator.
    """
    if a.row_sizes != a.col_sizes:
        raise InvalidDataError(
            f"{name} requires a square operator, got row sizes {a.row_sizes} "
            f"and column sizes {a.col_sizes}"
        )
    probe = np.random.default_rng(0)
    xs = [probe.standard_normal((1, n, 1)) for n in a.row_sizes]
    ys = [probe.standard_normal((1, n, 1)) for n in a.row_sizes]
    axy = float(coreops.operator_dot_cores(a.cores, xs, ys))
    ayx = float(coreops.operator_dot_cores(a.cores, ys, xs))
    if abs(axy - ayx) > 1e-10 * max(abs(axy), abs(ayx)):
        raise InvalidDataError(f"{name} requires a symmetric operator")


def quadratic_form(a: TtMatrix) -> Objective:
    """f(X) = <A X, X> for symmetric A; gradient 2 A X, Hessian map 2 A Z."""
    _check_symmetric(a, "quadratic_form")
    a_cores = list(a.cores)

    def evaluate(cores):
        return coreops.operator_dot_cores(a_cores, cores, cores)

    def fused(base, y):
        return tangent_scale(2.0, baselines.project_matvec(a, y, base))

    def dense_hess_vec(v, z):
        return (2.0 * (ttmat_to_dense(a) @ z.ravel())).reshape(v.shape)

    return Objective(
        name="quadratic_form",
        evaluate=_static(evaluate),
        euclid_grad_tt=lambda x: tt_scale(2.0, ttmat_apply(a, x)),
        euclid_hess_vec_tt=lambda x, z: tt_scale(2.0, ttmat_apply(a, z)),
        operator=a,
        optimized_grad=lambda base: fused(base, base.to_tt()),
        optimized_hvp=lambda base, z: fused(base, z.materialize()),
        dense_value=lambda v: float(v.ravel() @ ttmat_to_dense(a) @ v.ravel()),
        dense_grad=lambda v: dense_hess_vec(v, v),
        dense_hess_vec=dense_hess_vec,
    )


def gram_quadratic_form(a: TtMatrix) -> Objective:
    """f(X) = <A^T A X, X> = ||A X||^2 for arbitrary A."""
    a_cores = list(a.cores)
    at = ttmat_transpose(a)

    def evaluate(cores):
        return coreops.operator_pair_dot_cores(a_cores, cores, a_cores, cores)

    def dense_hess_vec(v, z):
        dense_a = ttmat_to_dense(a)
        return (2.0 * (dense_a.T @ (dense_a @ z.ravel()))).reshape(v.shape)

    return Objective(
        name="gram_quadratic_form",
        evaluate=_static(evaluate),
        euclid_grad_tt=lambda x: tt_scale(2.0, ttmat_apply(at, ttmat_apply(a, x))),
        euclid_hess_vec_tt=lambda x, z: tt_scale(2.0, ttmat_apply(at, ttmat_apply(a, z))),
        operator=a,
        dense_value=lambda v: float(np.sum((ttmat_to_dense(a) @ v.ravel()) ** 2)),
        dense_grad=lambda v: dense_hess_vec(v, v),
        dense_hess_vec=dense_hess_vec,
    )


def _rayleigh_denominator(sxx):
    """``sxx`` = <X, X> (a number or a 0-d array), checked once for every
    pipeline: a point this close to zero has no meaningful Rayleigh
    quotient.  The AD program applies it as a pass-through kernel
    (``ttriem.ad._checked``), so its replayed calls check it too."""
    if float(sxx) < 1e-28:
        raise DegeneratePointError("Rayleigh quotient evaluated too close to zero")
    return sxx


def rayleigh_quotient(a: TtMatrix) -> Objective:
    """f(X) = <A X, X> / <X, X> for symmetric A."""
    _check_symmetric(a, "rayleigh_quotient")
    a_cores = list(a.cores)

    def evaluate(cores):
        sxx = ad._checked(coreops.dot_cores(cores, cores), _rayleigh_denominator)
        sax = coreops.operator_dot_cores(a_cores, cores, cores)
        return ad.div(sax, sxx)

    def euclid_grad(x):
        s = _rayleigh_denominator(tt_dot(x, x))
        ax = ttmat_apply(a, x)
        f = tt_dot(ax, x) / s
        return tt_scale(2.0 / s, tt_axpy(-f, x, ax))

    def euclid_hess_vec(x, z):
        s = _rayleigh_denominator(tt_dot(x, x))
        ax = ttmat_apply(a, x)
        az = ttmat_apply(a, z)
        f = tt_dot(ax, x) / s
        saz = tt_dot(ax, z)
        sxz = tt_dot(x, z)
        return tt_weighted_sum(
            [2.0 / s, -2.0 * f / s, -4.0 * saz / s**2 + 8.0 * f * sxz / s**2, -4.0 * sxz / s**2],
            [az, z, x, ax],
        )

    def fused_parts(base):
        # P_X X, P_X A X, <X, X> and f at the base point.
        s = _rayleigh_denominator(float(np.vdot(base.S[-1], base.S[-1])))
        x_tan = point_as_tangent(base)
        ax_tan = baselines.project_matvec(a, base.to_tt(), base)
        return x_tan, ax_tan, s, tangent_dot_tt(ax_tan, x_tan) / s

    def optimized_grad(base):
        x_tan, ax_tan, s, f = fused_parts(base)
        return tangent_axpy(2.0 / s, ax_tan, tangent_scale(-2.0 * f / s, x_tan))

    def optimized_hvp(base, z):
        x_tan, ax_tan, s, f = fused_parts(base)
        az_tan = baselines.project_matvec(a, z.materialize(), base)
        saz = tangent_dot_tt(ax_tan, z)
        sxz = tangent_dot_tt(x_tan, z)
        out = tangent_axpy(2.0 / s, az_tan, tangent_scale(-2.0 * f / s, z))
        out = tangent_axpy(-4.0 * saz / s**2 + 8.0 * f * sxz / s**2, x_tan, out)
        return tangent_axpy(-4.0 * sxz / s**2, ax_tan, out)

    def dense_parts(v):
        # Dense A, A v, <v, v> and f at v.
        dense_a = ttmat_to_dense(a)
        av = dense_a @ v.ravel()
        s = float(np.vdot(v, v))
        return dense_a, av, s, float(v.ravel() @ av) / s

    def dense_grad(v):
        _, av, s, f = dense_parts(v)
        return (2.0 / s * (av - f * v.ravel())).reshape(v.shape)

    def dense_hess_vec(v, z):
        dense_a, av, s, f = dense_parts(v)
        az = dense_a @ z.ravel()
        saz = float(av @ z.ravel())
        sxz = float(np.vdot(v, z))
        h = (
            2.0 / s * az
            - 2.0 * f / s * z.ravel()
            - 4.0 * saz / s**2 * v.ravel()
            - 4.0 * sxz / s**2 * av
            + 8.0 * f * sxz / s**2 * v.ravel()
        )
        return h.reshape(v.shape)

    return Objective(
        name="rayleigh_quotient",
        evaluate=_static(evaluate),
        euclid_grad_tt=euclid_grad,
        euclid_hess_vec_tt=euclid_hess_vec,
        operator=a,
        optimized_grad=optimized_grad,
        optimized_hvp=optimized_hvp,
        dense_value=lambda v: float(v.ravel() @ ttmat_to_dense(a) @ v.ravel() / np.vdot(v, v)),
        dense_grad=dense_grad,
        dense_hess_vec=dense_hess_vec,
    )


def _unit_vectors(indices, mode_sizes):
    """Per-mode (N, n_k) one-hot rows: entry idx is the rank-1 tensor of these."""
    return [np.eye(n)[indices[:, k]] for k, n in enumerate(mode_sizes)]


def _rank1_sum_tt(mode_vectors, coeffs) -> TtTensor:
    """Sum of N rank-1 tensors given as per-mode (N, n_k) vector stacks."""
    n_terms = len(coeffs)
    if n_terms > NAIVE_RANK_CAP:
        raise UnavailableMethodError(
            f"rank-1 sum rank {n_terms} exceeds the naive-method cap {NAIVE_RANK_CAP}"
        )
    d = len(mode_vectors)
    if d == 1:
        return TtTensor([(coeffs[:, None] * mode_vectors[0]).sum(axis=0)[None, :, None]])
    cores = [np.ascontiguousarray((coeffs[:, None] * mode_vectors[0]).T[None, :, :])]
    for k in range(1, d - 1):
        vk = mode_vectors[k]
        core = np.zeros((n_terms, vk.shape[1], n_terms))
        core[np.arange(n_terms), :, np.arange(n_terms)] = vk
        cores.append(core)
    cores.append(np.ascontiguousarray(mode_vectors[d - 1][:, :, None]))
    return TtTensor(cores)


def completion_loss(omega: IndexSet) -> Objective:
    """f(X) = sum over observed entries of (X_w - a_w)^2.

    Entries are evaluated by batched core-chain products, never building
    the masked tensor, so the program costs O(|Omega| d r^2).
    """
    idx = tuple(omega.indices.T)

    def evaluate(cores):
        vals = coreops.entries_cores(list(cores), omega.indices)
        diff = ad.sub(vals, omega.values)
        return ad.reduce_sum(ad.mul(diff, diff))

    def euclid_grad(x):
        w = 2.0 * (tt_entries(x, omega.indices) - omega.values)
        return _rank1_sum_tt(_unit_vectors(omega.indices, x.mode_sizes), w)

    def euclid_hess_vec(x, z):
        w = 2.0 * tt_entries(z, omega.indices)
        return _rank1_sum_tt(_unit_vectors(omega.indices, x.mode_sizes), w)

    def optimized_grad(base):
        w = 2.0 * (tt_entries(base.to_tt(), omega.indices) - omega.values)
        return baselines.project_sparse(base, omega.indices, w)

    def optimized_hvp(base, z):
        w = 2.0 * tt_entries(z.materialize(), omega.indices)
        return baselines.project_sparse(base, omega.indices, w)

    def dense_grad(v):
        g = np.zeros_like(v)
        g[idx] = 2.0 * (v[idx] - omega.values)
        return g

    def dense_hess_vec(v, z):
        h = np.zeros_like(v)
        h[idx] = 2.0 * z[idx]
        return h

    return Objective(
        name="completion",
        evaluate=_static(evaluate),
        euclid_grad_tt=euclid_grad,
        euclid_hess_vec_tt=euclid_hess_vec,
        optimized_grad=optimized_grad,
        optimized_hvp=optimized_hvp,
        dense_value=lambda v: float(np.sum((v[idx] - omega.values) ** 2)),
        dense_grad=dense_grad,
        dense_hess_vec=dense_hess_vec,
    )


def _weight_mode_matrices(ws):
    """Per-mode (N, n_k) stacks of the rank-1 weight tensors' core vectors."""
    d = ws[0].ndim
    return [np.stack([w.cores[k][0, :, 0] for w in ws]) for k in range(d)]


def expmachines_loss(ws, ys) -> Objective:
    """Logistic risk sum_i log(1 + exp(-y_i <X, W_i>)) with rank-1 W_i."""
    ws = list(ws)
    if not ws:
        raise InvalidDataError("need at least one weight tensor")
    for w in ws:
        if any(r != 1 for r in w.ranks):
            raise InvalidDataError("weight tensors must have TT-rank 1")
        if w.mode_sizes != ws[0].mode_sizes:
            raise DimensionError("weight tensors disagree on mode sizes")
    ys = np.array(ys, dtype=np.float64)
    if ys.shape != (len(ws),) or not np.all(np.isin(ys, (-1.0, 1.0))):
        raise InvalidDataError("labels must be +1/-1, one per weight tensor")
    ys.flags.writeable = False
    wmats = _weight_mode_matrices(ws)
    sigmoid = ad._sigmoid_np

    def margins_program(cores):
        # <X, W_i> for all i at once: chain of per-sample rank transfers.
        e = None
        for core, wm in zip(cores, wmats):
            m = ad.contract(core, wm, [(1, 1)], (2, 0, 1))  # (N, rl, rr)
            e = m if e is None else ad.batch_matmul(e, m)
        return ad.reshape(e, (len(ws),))

    def evaluate(cores):
        if tuple(np.shape(c)[1] for c in cores) != ws[0].mode_sizes:
            raise DimensionError("mode sizes do not match the weight tensors")
        t = margins_program(cores)
        return ad.reduce_sum(ad.softplus(ad.neg(ad.mul(t, ys))))

    # The gradient and the Hessian map are sums of the W_i with these
    # coefficients, whether built in TT form or projected term by term.
    def grad_coeffs(x):
        t = margins_program(list(x.cores))
        return -ys * sigmoid(-ys * t)

    def hess_coeffs(x, z):
        t = margins_program(list(x.cores))
        h = sigmoid(-ys * t) * sigmoid(ys * t)
        return h * margins_program(list(z.cores))

    def dense_value(v):
        t = np.array([tt_to_dense(w).ravel() @ v.ravel() for w in ws])
        return float(np.sum(np.logaddexp(0.0, -ys * t)))

    def dense_grad(v):
        g = np.zeros_like(v)
        for w, y in zip(ws, ys):
            wd = tt_to_dense(w)
            t = float(np.vdot(wd, v))
            g += -y * sigmoid(-y * t) * wd
        return g

    def dense_hess_vec(v, z):
        h = np.zeros_like(v)
        for w, y in zip(ws, ys):
            wd = tt_to_dense(w)
            t = float(np.vdot(wd, v))
            h += sigmoid(-y * t) * sigmoid(y * t) * float(np.vdot(wd, z)) * wd
        return h

    return Objective(
        name="expmachines",
        evaluate=_static(evaluate),
        euclid_grad_tt=lambda x: _rank1_sum_tt(wmats, grad_coeffs(x)),
        euclid_hess_vec_tt=lambda x, z: _rank1_sum_tt(wmats, hess_coeffs(x, z)),
        optimized_grad=lambda base: baselines.project_rank1_sum(
            base, wmats, grad_coeffs(base.to_tt())),
        optimized_hvp=lambda base, z: baselines.project_rank1_sum(
            base, wmats, hess_coeffs(base.to_tt(), z.materialize())),
        dense_value=dense_value,
        dense_grad=dense_grad,
        dense_hess_vec=dense_hess_vec,
    )


def regularized_completion(omega: IndexSet, lam: float) -> Objective:
    """Completion loss plus Tikhonov term lam * <X, X>."""
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidDataError("lambda must be finite and nonnegative")
    loss = completion_loss(omega)

    def evaluate(cores):
        reg = ad.mul(coreops.dot_cores(list(cores), list(cores)), lam)
        return ad.add(loss.evaluate(cores), reg)

    return Objective(
        name="regularized_completion",
        evaluate=_static(evaluate),
        euclid_grad_tt=lambda x: tt_axpy(2.0 * lam, x, loss.euclid_grad_tt(x)),
        euclid_hess_vec_tt=lambda x, z: tt_axpy(2.0 * lam, z, loss.euclid_hess_vec_tt(x, z)),
        optimized_grad=lambda base: tangent_axpy(
            2.0 * lam, point_as_tangent(base), loss.optimized_grad(base)),
        optimized_hvp=lambda base, z: tangent_axpy(2.0 * lam, z, loss.optimized_hvp(base, z)),
        dense_value=lambda v: loss.dense_value(v) + lam * float(np.vdot(v, v)),
        dense_grad=lambda v: loss.dense_grad(v) + 2.0 * lam * v,
        dense_hess_vec=lambda v, z: loss.dense_hess_vec(v, z) + 2.0 * lam * z,
    )
