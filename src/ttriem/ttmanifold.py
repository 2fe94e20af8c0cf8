"""Fixed-TT-rank manifold: tangent vectors in delta parametrization, the
tangent-space projection, and AD-driven Riemannian gradients and approximate
Hessian-by-vector products.

A tangent vector at X (given through its shared mu-orthogonal core families
U, V, S) is a list of delta cores, one per mode, under the gauge condition
sum_i U_k[i]^T S^delta_k[i] = 0 for all modes but the last.  The block-core
construction turns deltas into an ordinary TT tensor of rank 2r.
"""

import weakref
from functools import lru_cache

import numpy as np

from . import ad, coreops
from .dense import frozen
from .errors import DimensionError, InvalidPairError, InvalidTangentError, NonFiniteError
from .tt import MuOrthogonal, TtMatrix, TtTensor, orthogonalize, ttmat_apply

__all__ = [
    "TtTangent",
    "deltas_to_cores",
    "project_tt",
    "riemannian_grad_tt",
    "riemannian_value_and_grad_tt",
    "hess_vec_tt",
    "tangent_dot_tt",
    "tangent_axpy",
    "tangent_scale",
    "zero_tangent",
    "point_as_tangent",
    "preconditioned_residual",
]

GAUGE_REJECT = 1e-8


def _as_ortho(x) -> MuOrthogonal:
    return x if isinstance(x, MuOrthogonal) else orthogonalize(x)


def _check_deltas(base, deltas):
    """``deltas`` as float64 arrays, one per mode with its center core's shape."""
    deltas = [np.asarray(d, dtype=np.float64) for d in deltas]
    if len(deltas) != base.ndim:
        raise DimensionError(f"need {base.ndim} delta cores, got {len(deltas)}")
    for k, (d, s) in enumerate(zip(deltas, base.S)):
        if d.shape != s.shape:
            raise DimensionError(f"delta core {k} has shape {d.shape}, expected {s.shape}")
    return deltas


def _gauge_residuals(base, deltas):
    """Per-mode relative norms of sum_i U_k[i]^T S^delta_k[i]."""
    out = []
    for k in range(base.ndim - 1):
        g = np.einsum("aib,aic->bc", base.U[k], deltas[k])
        out.append(float(np.linalg.norm(g) / max(1.0, np.linalg.norm(deltas[k]))))
    return out


def _tape_gauge(base, deltas):
    """One gauge pass: delta k minus U_k (U_k^T delta k), for every mode but
    the last, with U_k unfolded to (r_l n, r_r).  The modes whose cores
    share a shape go through one ``np.matmul`` pair over their stacked
    deltas (:func:`_gauge_factors`), each mode's product by the same BLAS
    call as on its own.

    The name is kept from when this pass was recorded on the HVP tape,
    because the benchmark's traced run expects a call to it and reports its
    per-layer metrics under it.
    """
    out = list(deltas)
    for modes, u, ut in _per_point(_gauges, base, _gauge_factors):
        stacked = _stacked([deltas[k] for k in modes])
        dk = stacked.reshape(u.shape)
        for k, d in zip(modes, (dk - u @ (ut @ dk)).reshape(stacked.shape)):
            out[k] = d
    return out


def _apply_gauge(base, deltas):
    """Project delta cores onto the gauge complement (all modes but last).

    The projection is applied twice: when a delta is dominated by its
    U-range component, one pass leaves a cancellation residue of order
    eps * ||input|| which can dwarf the tangential remainder.
    """
    return _tape_gauge(base, _tape_gauge(base, deltas))


class TtTangent:
    """Tangent vector at a TT point, stored as per-mode delta cores.

    Construction gauges every input: residuals up to 1e-8 are projected
    onto the gauge complement, anything larger is rejected.
    """

    def __init__(self, base: MuOrthogonal, deltas):
        deltas = _check_deltas(base, deltas)
        worst = max(_gauge_residuals(base, deltas), default=0.0)
        if worst > GAUGE_REJECT:
            raise InvalidTangentError(f"gauge violation {worst:.2e} exceeds {GAUGE_REJECT:.0e}")
        self.base = base
        self.deltas = tuple(frozen(d) for d in _apply_gauge(base, deltas))

    @property
    def ndim(self):
        return len(self.deltas)

    @classmethod
    def _trusted(cls, base, deltas, stage="tangent"):
        """Internal constructor for deltas already projected onto the gauge.

        Skips the relative-residual check: for results of exact cancellation
        (e.g. the difference of two nearly equal tangents) that check would
        compare roundoff against a collapsed norm and misfire.  The deltas
        are computed, not given, so a NaN or infinite one raises
        :class:`NonFiniteError` with ``stage``, naming the first such delta
        core, not the ``DimensionError`` of an invalid input.  The tangent
        takes over the float64 arrays it is given, which no one else may
        write to, and makes them read-only; it copies only one that is not
        C-contiguous.
        """
        t = object.__new__(cls)
        t.base = base
        t.deltas = tuple(_frozen_result(k, d, stage) for k, d in enumerate(deltas))
        return t

    @classmethod
    def _projected(cls, base, deltas, stage="tangent"):
        """The tangent of computed deltas: projected onto the gauge
        (:func:`_apply_gauge`), then checked and frozen as by
        :meth:`_trusted`.  The gauge writes the deltas of each group of
        equal core shapes as the rows of one array, so finiteness takes one
        check per group's array (their ``base``) and one for the last
        delta; only when one fails are the deltas checked one by one, to
        name the first non-finite delta core.  The gauge of mode k reads
        delta k alone, so that core is named as it was computed.  The
        projection's arrays are the tangent's own; the last delta, which it
        passes through, is copied."""
        *gauged, last = _apply_gauge(base, deltas)
        deltas = [*gauged, np.array(last, dtype=np.float64, order="C")]
        groups = _per_point(_gauges, base, _gauge_factors)
        if not (all(np.isfinite(gauged[modes[0]].base).all() for modes, _, _ in groups)
                and np.isfinite(deltas[-1]).all()):
            return cls._trusted(base, deltas, stage)
        for d in deltas:
            d.flags.writeable = False
        t = object.__new__(cls)
        t.base = base
        t.deltas = tuple(deltas)
        return t

    def gauge_residuals(self):
        return _gauge_residuals(self.base, self.deltas)

    def materialize(self) -> TtTensor:
        return deltas_to_cores(self.base, self.deltas)

    def norm(self):
        return float(np.sqrt(max(tangent_dot_tt(self, self), 0.0)))


@lru_cache(maxsize=256)
def _block_layouts(shapes):
    # Per mode, for center cores of the given shapes: the block core's
    # shape and the blocks of delta, V and U (None where there is none).
    d = len(shapes)
    out = []
    for k, (rl, n, rr) in enumerate(shapes):
        top = rl if k > 0 else 0  # rows of V above the delta
        right = rr if k < d - 1 else 0  # columns of U beside it
        out.append(((top + rl, n, rr + right),
                     ((top, top + rl), (0, n), (0, rr)),
                     ((0, rl), (0, n), (0, rr)) if k > 0 else None,
                     ((top, top + rl), (0, n), (rr, rr + right)) if k < d - 1 else None))
    return out


def _block_parts(base, deltas):
    # Per mode, the block core's shape and its parts: delta, V and U.
    layouts = _block_layouts(tuple(s.shape for s in base.S))
    for k, (delta, (shape, at, at_v, at_u)) in enumerate(zip(deltas, layouts)):
        parts = [(delta, at)]
        if at_v is not None:
            parts.append((base.V[k], at_v))
        if at_u is not None:
            parts.append((base.U[k], at_u))
        yield shape, parts


def _block_cores(base, deltas):
    """Block construction of tangent TT-cores, one :func:`ttriem.ad.block_core`
    per mode: [delta_0 U_0], then [[V_k 0], [delta_k U_k]], then
    [V_{d-1}; delta_{d-1}].  Works on arrays and Vars; a sweep takes each
    delta's adjoint out of its block core in one step.  At a point whose
    seed was made (:func:`_delta_seed`), a mode whose delta is its seed, or
    a tape input holding it, gets the block core kept for the point,
    recorded around its value without computing it."""
    seed = _seeds.get(base)
    if seed is not None:
        return [core.of(delta) for core, delta in zip(seed.cores, deltas)]
    return [ad.block_core(shape, parts) for shape, parts in _block_parts(base, deltas)]


def deltas_to_cores(base: MuOrthogonal, deltas) -> TtTensor:
    """Convert delta cores into a plain TT tensor of rank at most 2r."""
    return TtTensor(_block_cores(base, _check_deltas(base, deltas)))


def project_tt(x, z: TtTensor) -> TtTangent:
    """Orthogonal projection of a TT tensor onto the tangent space at x.

    Works entirely through partial contractions of the cores of z against
    the left (U) and right (V) orthogonal chains of the base point; the
    dense tensor is never formed.
    """
    base = _as_ortho(x)
    if base.mode_sizes != z.mode_sizes:
        raise DimensionError(
            f"mode sizes differ: {base.mode_sizes} vs {z.mode_sizes}"
        )
    d = base.ndim
    # Right chains: q[k] maps z-rank to tangent-rank over modes k..d-1.
    q = [None] * d + [np.ones((1, 1))]
    for k in range(d - 1, 0, -1):
        t = np.tensordot(z.cores[k], q[k + 1], axes=([2], [0]))  # (a, i, d)
        q[k] = np.tensordot(t, base.V[k], axes=([1, 2], [1, 2]))  # (a, b)
    # Left chain: p maps z-rank to tangent-rank over modes 0..k-1.  Its
    # product with z core k starts both delta k and the next p.
    p = np.ones((1, 1))
    deltas = []
    for k in range(d):
        t = np.tensordot(p, z.cores[k], axes=([0], [0]))  # (b, i, c)
        deltas.append(np.tensordot(t, q[k + 1], axes=([2], [0])))  # (b, i, d)
        if k < d - 1:
            p = np.tensordot(t, base.U[k], axes=([0, 1], [0, 1]))  # (c, d)
    return TtTangent._projected(base, deltas)


# What the tangent machinery derives from a base point alone, made on first
# use and freed with the point: its seed (_PointSeed) and its gauge factors
# (_gauge_factors).  A MuOrthogonal's factors cannot be reassigned, so
# neither goes stale.
_seeds = weakref.WeakKeyDictionary()
_gauges = weakref.WeakKeyDictionary()


def _per_point(kept, base, make):
    # ``make(base)``, kept in ``kept`` for as long as ``base`` lives.
    made = kept.get(base)
    if made is None:
        made = kept[base] = make(base)
    return made


class _PointSeed:
    # The read-only seed deltas, and per mode the ad.KeptBlockCore of the
    # block core at its seed.
    __slots__ = ("deltas", "cores")

    def __init__(self, base):
        deltas = [np.zeros(s.shape) for s in base.S]
        deltas[0] = base.S[0].copy()
        for delta in deltas:
            delta.flags.writeable = False
        self.deltas = tuple(deltas)
        self.cores = [ad.KeptBlockCore(shape, parts)
                      for shape, parts in _block_parts(base, self.deltas)]


def _gauge_factors(base):
    # Per shape of U_k, k < d - 1: the modes of that shape and their U_k
    # unfolded to (r_l n, r_r), stacked, with its transposed view.
    modes = {}
    for k, u in enumerate(base.U[:-1]):
        modes.setdefault(u.shape, []).append(k)
    groups = []
    for (rl, n, rr), ks in modes.items():
        u = _stacked([base.U[k] for k in ks]).reshape(len(ks), rl * n, rr)
        u.flags.writeable = False
        groups.append((ks, u, u.transpose(0, 2, 1)))
    return groups


def _stacked(arrays):
    # The arrays stacked along a new first axis; a lone one as a view.
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _delta_seed(base):
    """Delta values parametrizing the point itself: (S_1, 0, ..., 0),
    read-only and made once per point, with the block cores at them that
    :func:`_block_cores` keeps."""
    return _per_point(_seeds, base, _PointSeed).deltas


def _frozen_result(k, delta, stage):
    # Delta core k, checked as a computed result and made read-only, as a
    # C-ordered float64 array (:func:`ttriem.dense.frozen` stores the same).
    arr = np.asarray(delta, dtype=np.float64, order="C")
    if not np.isfinite(arr).all():
        raise NonFiniteError(stage, f"delta core {k} holds NaN or inf")
    arr.flags.writeable = False
    return arr


# The evaluate programs that ttriem.objectives' constructors build.  Their
# kernels and constants are fixed by the shapes, strides and block masks of
# the block cores they receive, so a whole call of one, forward pass
# included, replays (ttriem.ad._whole_call).  Only those constructors add to
# it.
_static_programs = weakref.WeakSet()


def _differentiate(p, base, z, owner):
    """The program's recorded value and its Riemannian gradient, or, given
    a tangent ``z`` at ``base``, its approximate Hessian applied to z.

    The schedules are kept for ``owner``, on one of two paths.  A program
    of ``_static_programs`` replays whole calls
    (:func:`ttriem.ad._whole_call`, keyed by the kind of call and the
    layouts of the point's seed block cores and of z's deltas): a later call
    runs the recorded forward kernels and sweeps on the point's kept block
    cores and z's deltas, with no tape.  Any other program runs its forward
    pass on a tape every call, and its sweeps, those of
    :func:`riemannian_grad_tt` and :func:`hess_vec_tt`, through
    :func:`ttriem.ad.swept`.  On both, the first call at a key or tape
    structure is eager and later ones replay.  The value and the gauged
    deltas are checked to be finite, the value by a check a replay runs too
    and the deltas by :meth:`TtTangent._projected`.
    """
    if z is not None and not z.base.matches(base):
        raise InvalidTangentError("tangent vector is anchored at a different point")
    if p in _static_programs:
        extra = () if z is None else z.deltas
        cores = [core.value for core in _per_point(_seeds, base, _PointSeed).cores]
        value, *raw = ad._whole_call(owner, "grad" if z is None else "hvp", cores + list(extra),
                                     lambda: _on_tape(p, base, z, None))
    else:
        value, *raw = _on_tape(p, base, z, owner)
    return float(value), TtTangent._projected(base, raw, "gradient" if z is None else "HVP")


def _finite_value(value):
    # The program's value, checked: the pass-through kernel of ad._checked.
    if np.ndim(value) == 0 and not np.isfinite(value):
        raise NonFiniteError("value", f"the program returned {float(value)}")
    return value


def _on_tape(p, base, z, owner):
    # The program's value and the raw deltas of its gradient, or of its
    # Hessian applied to z, from one forward pass on a tape, the sweeps
    # through ad.swept for ``owner`` unless that is None.
    tape = ad.Tape()
    try:
        rvars = [tape.input(v) for v in _delta_seed(base)]
        out = ad._checked(p(_block_cores(base, rvars)), _finite_value)
        if z is None:
            def sweeps():
                return ad.grad(tape, out, rvars)
        else:
            def sweeps():
                inner = ad.grad(tape, out, rvars, as_vars=True)
                w = ad.add_n([
                    ad.contract(g, dz, [(0, 0), (1, 1), (2, 2)])
                    for g, dz in zip(inner, z.deltas)
                ])
                return ad.grad(tape, w, rvars)
        if owner is not None and isinstance(out, ad.Var):
            kind = "grad" if z is None else "hvp"
            raw = ad.swept(owner, (kind, out.index), tape, sweeps, () if z is None else z.deltas)
        else:
            raw = sweeps()
        return [out.value if isinstance(out, ad.Var) else out, *raw]
    finally:
        tape.clear()


def riemannian_value_and_grad_tt(p, x):
    """The program's value at X and its Riemannian gradient, from one
    forward pass and one reverse sweep.

    The program receives the block cores of a rank-2r tangent
    parametrization whose delta blocks are the differentiation variables,
    seeded at the values representing the point itself, so the value it
    returns there is f(X).  A program that does not depend on the cores
    has the zero gradient.  Raises :class:`NonFiniteError` when the value
    or a delta of the gradient is NaN or infinite.  Repeated calls with the
    same program object replay what the second one recorded: for an
    objective of :mod:`ttriem.objectives` the whole call, forward pass
    included, at points whose block cores share their layout; for any
    other program the sweep, at tapes of the recorded structure
    (:func:`_differentiate`).
    """
    return _differentiate(p, _as_ortho(x), None, p)


def riemannian_grad_tt(p, x) -> TtTangent:
    """Riemannian gradient of a TT-core program via one reverse sweep: the
    tangent of :func:`riemannian_value_and_grad_tt`, replayed as that is,
    whole for an objective of :mod:`ttriem.objectives` and sweep only for
    any other program."""
    return riemannian_value_and_grad_tt(p, x)[1]


def hess_vec_tt(p, x, z: TtTangent) -> TtTangent:
    """Approximate Riemannian Hessian of a TT-core program times a tangent.

    Records w = sum_k <G_k(R), S_k^{Z,delta}>, where G_k(R) is the delta
    gradient left on the tape by an inner reverse sweep, then differentiates
    w by a second sweep.  The base factors enter as plain-array constants,
    which the tape never records, so the projection operator itself is
    frozen (the curvature term is dropped by construction).  The inner
    gradient is not gauged: the deltas of z already are, and the gauge
    projection P is self-adjoint, so <P G, z> = <G, z>.  Only the result
    is projected.  Raises :class:`NonFiniteError` when the program's value
    or a delta of the result is NaN or infinite.  Repeated calls with the
    same program object replay what the second one recorded, inner sweep
    and dot with z included: for an objective of :mod:`ttriem.objectives`
    the whole call, forward pass included, for directions of the recorded
    layout; for any other program the sweeps, the forward pass running on
    a tape each call (:func:`_differentiate`).
    """
    return _differentiate(p, _as_ortho(x), z, p)[1]


def tangent_dot_tt(a: TtTangent, b: TtTangent) -> float:
    """Inner product of two tangent vectors: sum of delta-core dots."""
    if not a.base.matches(b.base):
        raise InvalidPairError("tangent vectors live at different base points")
    return float(sum(np.vdot(da, db) for da, db in zip(a.deltas, b.deltas)))


def tangent_axpy(alpha: float, a: TtTangent, b: TtTangent) -> TtTangent:
    if not a.base.matches(b.base):
        raise InvalidPairError("tangent vectors live at different base points")
    combo = [float(alpha) * da + db for da, db in zip(a.deltas, b.deltas)]
    return TtTangent._projected(a.base, combo)


def tangent_scale(alpha: float, a: TtTangent) -> TtTangent:
    return TtTangent._trusted(a.base, [float(alpha) * d for d in a.deltas])


def zero_tangent(base) -> TtTangent:
    base = _as_ortho(base)
    return TtTangent._trusted(base, [np.zeros(s.shape) for s in base.S])


def point_as_tangent(base) -> TtTangent:
    """The point X itself as an element of its own tangent space (P_X X = X)."""
    base = _as_ortho(base)
    deltas = [np.zeros(s.shape) for s in base.S]
    deltas[-1] = base.S[-1].copy()
    return TtTangent._trusted(base, deltas)


def preconditioned_residual(a: TtMatrix, b: TtMatrix, f: TtTensor, x) -> TtTangent:
    """Tangent-space projection of the preconditioned residual B (A X - F).

    Implemented as the Riemannian AD gradient of
    h(X) = <A c(X), B^T X> - <B F, X>, where c is the stop-gradient
    operator.  The first term is one sweep of
    :func:`coreops.operator_pair_dot_cores`, so neither A c(X), B^T X nor
    the operator product B A is ever formed.  The core sweeps raise
    ``DimensionError`` when the mode sizes of ``a``, ``b``, ``f`` and ``x``
    do not fit together.
    """
    base = _as_ortho(x)
    bt_cores = [np.transpose(c, (0, 2, 1, 3)) for c in b.cores]
    bf = ttmat_apply(b, f)

    def program(cores):
        frozen = [ad.stop_gradient(c) for c in cores]
        # B^T is a transposed view, so it takes the first operator slot.
        lhs = coreops.operator_pair_dot_cores(bt_cores, cores, list(a.cores), frozen)
        rhs = coreops.dot_cores([c for c in bf.cores], cores)
        return ad.sub(lhs, rhs)

    return riemannian_grad_tt(program, base)
