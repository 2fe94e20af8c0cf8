"""Tensor-train containers: representation, orthogonalization, arithmetic,
operator application, rounding and (de)serialization.

A TT tensor of order d is a chain of cores ``G_k`` with shapes
``(r_{k-1}, n_k, r_k)`` and boundary ranks ``r_0 = r_d = 1``; the entry at a
multi-index is the product of the corresponding core slices.  A TT operator
("TT matrix") is the same chain with 4-way cores ``(R_{k-1}, m_k, n_k, R_k)``;
both share one constructor, one densifier (an operator is the tensor of its
merged (m_k, n_k) modes) and one codec (TMv1 is TTv1 with two size arrays).
"""

import math
import os
import struct

import numpy as np

from . import coreops
from .dense import frozen, qr_thin, svd_thin
from .errors import DimensionError, FormatError, OversizeError

__all__ = [
    "TtTensor",
    "TtMatrix",
    "MuOrthogonal",
    "orthogonalize",
    "tt_to_dense",
    "tt_dot",
    "tt_norm",
    "tt_entries",
    "ttmat_apply",
    "ttmat_transpose",
    "ttmat_identity",
    "ttmat_to_dense",
    "tt_axpy",
    "tt_scale",
    "tt_weighted_sum",
    "tt_round",
    "tt_read",
    "tt_write",
    "ttmat_read",
    "ttmat_write",
    "random_tt",
    "random_ttmat",
    "random_symmetric_ttmat",
    "feasible_ranks",
    "pad_ranks",
    "DENSE_CAP",
]

DENSE_CAP = 10**7


def _check_chain(shapes, what):
    for k in range(len(shapes) - 1):
        if shapes[k][-1] != shapes[k + 1][0]:
            raise DimensionError(
                f"{what}: right rank of core {k} is {shapes[k][-1]} but left rank "
                f"of core {k + 1} is {shapes[k + 1][0]}"
            )
    if shapes[0][0] != 1 or shapes[-1][-1] != 1:
        raise DimensionError(f"{what}: boundary ranks must be 1")


class _Chain:
    """Immutable chain of ``_arity``-way cores (left rank, mode axes, right rank)."""

    def __init__(self, cores):
        cores = tuple(frozen(c) for c in cores)
        what = type(self).__name__
        if not cores:
            raise DimensionError(f"a {what} needs at least one core")
        for c in cores:
            if c.ndim != self._arity:
                raise DimensionError(
                    f"{what} cores must be {self._arity}-way, got shape {c.shape}")
        _check_chain([c.shape for c in cores], what)
        self.cores = cores

    @property
    def ndim(self):
        return len(self.cores)

    @property
    def ranks(self):
        """Full rank chain (r_0, ..., r_d) including the unit boundaries."""
        return (self.cores[0].shape[0],) + tuple(c.shape[-1] for c in self.cores)


class TtTensor(_Chain):
    """Immutable TT tensor defined by its list of 3-way cores."""

    _arity = 3

    @property
    def mode_sizes(self):
        return tuple(c.shape[1] for c in self.cores)

    def __repr__(self):
        return f"TtTensor(modes={self.mode_sizes}, ranks={self.ranks})"


class TtMatrix(_Chain):
    """Immutable TT operator defined by its list of 4-way cores."""

    _arity = 4

    @property
    def row_sizes(self):
        return tuple(c.shape[1] for c in self.cores)

    @property
    def col_sizes(self):
        return tuple(c.shape[2] for c in self.cores)

    def __repr__(self):
        return f"TtMatrix(rows={self.row_sizes}, cols={self.col_sizes}, ranks={self.ranks})"


class MuOrthogonal:
    """All mu-orthogonal decompositions of one tensor, sharing cores.

    ``U[k]`` (k = 0..d-2) are left-orthogonal, ``V[k]`` (k = 1..d-1) are
    right-orthogonal, and ``S[k]`` is the center core of the k-orthogonal
    representation; the unused boundary slots hold None.  The center cores
    form a private chain that gives ``ndim``, ``mode_sizes`` and ``ranks``;
    it is not exposed as ``cores``, since its product is not the tensor.
    ``U``, ``V`` and ``S`` are read-only tuples of read-only arrays, so what
    is derived from a point once (the tangent setup of
    :mod:`ttriem.ttmanifold`) stays valid for as long as the point lives.
    """

    def __init__(self, U, V, S):
        self._center = TtTensor(S)
        self._U = tuple(None if u is None else frozen(u) for u in U)
        self._V = tuple(None if v is None else frozen(v) for v in V)

    U = property(lambda self: self._U)
    V = property(lambda self: self._V)
    S = property(lambda self: self._center.cores)
    ndim = property(lambda self: self._center.ndim)
    mode_sizes = property(lambda self: self._center.mode_sizes)
    ranks = property(lambda self: self._center.ranks)

    def mu_cores(self, mu):
        """Core list of the mu-orthogonal representation (0-based mu)."""
        d = self.ndim
        if not 0 <= mu < d:
            raise DimensionError(f"mu must be in [0, {d}), got {mu}")
        return list(self.U[:mu]) + [self.S[mu]] + list(self.V[mu + 1:])

    def to_tt(self, mu=None):
        return TtTensor(self.mu_cores(self.ndim - 1 if mu is None else mu))

    def matches(self, other):
        """Whether two decompositions anchor the same base point.

        Orthogonalization is deterministic, so tangents at the same point
        carry bit-identical factors.  The V cores are compared too: where S
        has a zero singular value they are not fixed by U and S, and the
        tangent space depends on them.
        """
        if self is other:
            return True
        if self.mode_sizes != other.mode_sizes or self.ranks != other.ranks:
            return False
        return (
            all(np.array_equal(a, b) for a, b in zip(self.U[:-1], other.U[:-1]))
            and all(np.array_equal(a, b) for a, b in zip(self.V[1:], other.V[1:]))
            and np.array_equal(self.S[-1], other.S[-1])
        )


def orthogonalize(x: TtTensor) -> MuOrthogonal:
    """Left/right-orthogonal core families and all center cores of ``x``.

    One QR sweep in each direction, O(d n r^3); the transfer matrices of the
    two sweeps meet at every mode to form the center cores.
    """
    d = x.ndim
    attainable = feasible_ranks(x.mode_sizes, x.ranks[1:-1])
    if attainable != x.ranks[1:-1]:
        raise DimensionError(f"TT ranks {x.ranks} exceed what mode sizes {x.mode_sizes} allow: "
                             f"internal ranks can be at most {attainable}; truncate with tt_round")
    cores = list(x.cores)

    # Left-to-right sweep: G_1..G_k = U_1..U_k @ left_tf[k].
    U = [None] * d
    left_tf = [None] * d  # left_tf[k]: transfer after core k (r_k x r_k)
    work = cores[0]
    for k in range(d - 1):
        rl, n, rr = work.shape
        q, r = qr_thin(work.reshape(rl * n, rr))
        U[k] = np.ascontiguousarray(q.reshape(rl, n, rr))
        left_tf[k] = r
        work = np.einsum("ab,bic->aic", r, cores[k + 1])
    s_last = work

    # Right-to-left sweep: G_k..G_d = right_tf[k] @ V_k..V_d.
    V = [None] * d
    right_tf = [None] * d  # right_tf[k]: transfer before core k (r_{k-1} x r_{k-1})
    work = cores[d - 1]
    for k in range(d - 1, 0, -1):
        rl, n, rr = work.shape
        q, r = qr_thin(work.reshape(rl, n * rr).T)
        V[k] = np.ascontiguousarray(q.T.reshape(rl, n, rr))
        right_tf[k] = r.T
        work = np.einsum("aib,bc->aic", cores[k - 1], right_tf[k])
    s_first = work

    S = [None] * d
    S[0] = s_first
    S[d - 1] = s_last
    for k in range(1, d - 1):
        t = np.tensordot(left_tf[k - 1], cores[k], axes=([1], [0]))
        S[k] = np.tensordot(t, right_tf[k + 1], axes=([2], [0]))
    return MuOrthogonal(U, V, S)


def tt_to_dense(x: TtTensor) -> np.ndarray:
    """Materialize the full tensor (guarded by the dense safety cap)."""
    size = math.prod(x.mode_sizes)
    if size > DENSE_CAP:
        raise OversizeError(f"dense materialization of {size} entries exceeds cap")
    res = x.cores[0][0]  # (n_1, r_1)
    for core in x.cores[1:]:
        res = np.tensordot(res, core, axes=(res.ndim - 1, 0))
    return res[..., 0]


def tt_dot(x: TtTensor, y: TtTensor) -> float:
    """Inner product by a left-to-right rank-space sweep."""
    return float(coreops.dot_cores(list(x.cores), list(y.cores)))


def tt_norm(x: TtTensor) -> float:
    return float(np.sqrt(max(tt_dot(x, x), 0.0)))


def tt_entries(x: TtTensor, idx) -> np.ndarray:
    """Entries of ``x`` at the rows of the (N, d) index array.

    Raises ``IndexError`` for a non-integral index or one out of range.
    """
    return coreops.entries_cores(list(x.cores), idx)


def ttmat_apply(a: TtMatrix, x: TtTensor) -> TtTensor:
    """Operator application; output ranks are the elementwise products."""
    return TtTensor(coreops.matvec_cores(list(a.cores), list(x.cores)))


def ttmat_transpose(a: TtMatrix) -> TtMatrix:
    return TtMatrix([np.transpose(c, (0, 2, 1, 3)) for c in a.cores])


def ttmat_identity(mode_sizes) -> TtMatrix:
    return TtMatrix([np.eye(n).reshape(1, n, n, 1) for n in mode_sizes])


def ttmat_to_dense(a: TtMatrix) -> np.ndarray:
    """Materialize the operator as a (prod m) x (prod n) matrix (same cap as
    :func:`tt_to_dense`, which densifies its merged (m_k, n_k) modes)."""
    merged = TtTensor([c.reshape(c.shape[0], c.shape[1] * c.shape[2], c.shape[3])
                       for c in a.cores])
    res = tt_to_dense(merged).reshape([s for c in a.cores for s in c.shape[1:3]])
    perm = list(range(0, 2 * a.ndim, 2)) + list(range(1, 2 * a.ndim, 2))
    return res.transpose(perm).reshape(math.prod(a.row_sizes), math.prod(a.col_sizes))


def tt_scale(alpha: float, x: TtTensor) -> TtTensor:
    return TtTensor([x.cores[0] * float(alpha)] + [c.copy() for c in x.cores[1:]])


def tt_axpy(alpha: float, x: TtTensor, y: TtTensor) -> TtTensor:
    """``alpha * x + y`` by block-diagonal core concatenation (rank sum)."""
    if x.mode_sizes != y.mode_sizes:
        raise DimensionError(f"mode sizes differ: {x.mode_sizes} vs {y.mode_sizes}")
    d = x.ndim
    alpha = float(alpha)
    if d == 1:
        return TtTensor([alpha * x.cores[0] + y.cores[0]])
    cores = [np.concatenate([alpha * x.cores[0], y.cores[0]], axis=2)]
    for k in range(1, d - 1):
        xc, yc = x.cores[k], y.cores[k]
        top = np.concatenate([xc, np.zeros((xc.shape[0], xc.shape[1], yc.shape[2]))], axis=2)
        bot = np.concatenate([np.zeros((yc.shape[0], yc.shape[1], xc.shape[2])), yc], axis=2)
        cores.append(np.concatenate([top, bot], axis=0))
    cores.append(np.concatenate([x.cores[d - 1], y.cores[d - 1]], axis=0))
    return TtTensor(cores)


def tt_weighted_sum(weights, tensors) -> TtTensor:
    """Weighted sum of TT tensors; the result rank is the sum of ranks."""
    if len(weights) != len(tensors) or not tensors:
        raise DimensionError("need equally many weights and tensors (at least one)")
    out = tt_scale(weights[0], tensors[0])
    for w, t in zip(weights[1:], tensors[1:]):
        out = tt_axpy(w, t, out)
    return out


def tt_round(x: TtTensor, max_rank, tol: float = 0.0) -> TtTensor:
    """Truncate TT ranks by an orthogonalize-then-SVD sweep.

    ``max_rank`` is an int or a per-bond vector, each cap at least 1;
    ``tol`` is a relative target for the total truncation error.  The
    sweep first makes the chain left-orthogonal, then truncates
    right-to-left so each local SVD sees the true singular values of the
    corresponding unfolding.
    """
    if tol < 0.0:
        raise DimensionError("tol must be nonnegative")
    d = x.ndim
    bonds = d - 1
    if np.isscalar(max_rank):
        caps = [int(max_rank)] * bonds
    else:
        caps = [int(r) for r in max_rank]
        if len(caps) != bonds:
            raise DimensionError(f"max_rank must have {bonds} entries")
    if min(caps, default=1) < 1:
        raise DimensionError(f"max_rank must be at least 1, got {max_rank}")

    # Left-to-right orthogonalization.  Unlike `orthogonalize`, rounding may
    # see over-ranked chains (e.g. fresh axpy output), where the unfolding is
    # wide and reduced QR already shrinks the rank structurally.
    cores = []
    work = x.cores[0]
    for k in range(d - 1):
        rl, n, rr = work.shape
        q, r = np.linalg.qr(work.reshape(rl * n, rr), mode="reduced")
        signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
        q, r = q * signs, r * signs[:, None]
        cores.append(q.reshape(rl, n, q.shape[1]))
        work = np.einsum("ab,bic->aic", r, x.cores[k + 1])
    cores.append(work)

    norm = float(np.linalg.norm(cores[-1]))
    step_budget = tol * norm / np.sqrt(bonds) if bonds else 0.0

    # Right-to-left truncation sweep.
    for k in range(d - 1, 0, -1):
        rl, n, rr = cores[k].shape
        u, s, v = svd_thin(cores[k].reshape(rl, n * rr))
        keep = min(caps[k - 1], len(s))
        if step_budget > 0.0:
            tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[j] = ||s[j:]||
            while keep > 1 and tail[keep - 1] <= step_budget:
                keep -= 1
        cores[k] = np.ascontiguousarray(v.T[:keep].reshape(keep, n, rr))
        carry = u[:, :keep] * s[:keep]
        cores[k - 1] = np.einsum("aib,bc->aic", cores[k - 1], carry)
    return TtTensor(cores)


# ---------------------------------------------------------------------------
# binary serialization

_TT_MAGIC = b"TTv1"
_TM_MAGIC = b"TMv1"
_READ_CHUNK = 1 << 24


def _read_exact(fh, count, what):
    # A corrupt header can ask for more bytes than memory or an index-sized
    # integer holds.  Where the size is known, compare before one read; a pipe
    # is read in bounded chunks, so it fails where its data ends.
    if fh.seekable():
        if count <= os.fstat(fh.fileno()).st_size - fh.tell():
            data = fh.read(count)
            if len(data) == count:
                return data
        raise FormatError(f"truncated file while reading {what}")
    data = bytearray()
    while len(data) < count:
        part = fh.read(min(count - len(data), _READ_CHUNK))
        if not part:
            raise FormatError(f"truncated file while reading {what}")
        data += part
    return data


def _write_chain(path, magic, chain, size_arrays):
    """Magic, u32 order, one u64 array per core mode axis, u64 ranks, cores."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", chain.ndim))
        for sizes in [*size_arrays, chain.ranks]:
            np.asarray(sizes, dtype="<u8").tofile(fh)
        for core in chain.cores:
            np.ascontiguousarray(core, dtype="<f8").tofile(fh)


def _read_chain(path, magic, size_names, cls):
    """Read a file written by :func:`_write_chain` into a ``cls`` chain."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != magic:
            raise FormatError(f"bad magic: not a {magic.decode()} file")
        (d,) = struct.unpack("<I", _read_exact(fh, 4, "order"))
        if d == 0:
            raise FormatError("order must be positive")
        sizes = [np.frombuffer(_read_exact(fh, 8 * d, n), dtype="<u8") for n in size_names]
        ranks = np.frombuffer(_read_exact(fh, 8 * (d + 1), "ranks"), dtype="<u8")
        if ranks[0] != 1 or ranks[-1] != 1:
            raise FormatError("boundary ranks must be 1")
        cores = []
        for k in range(d):
            shape = (int(ranks[k]), *(int(s[k]) for s in sizes), int(ranks[k + 1]))
            buf = _read_exact(fh, 8 * math.prod(shape), f"core {k}")
            try:  # a zero extent lets an empty core name any other extent
                cores.append(np.frombuffer(buf, dtype="<f8").reshape(shape))  # cls copies
            except ValueError as exc:
                raise FormatError(f"core {k} of shape {shape}: {exc}") from exc
        if fh.read(1):
            raise FormatError("trailing bytes after last core")
    try:
        return cls(cores)
    except DimensionError as exc:
        raise FormatError(f"inconsistent header: {exc}") from exc


def tt_write(x: TtTensor, path) -> None:
    _write_chain(path, _TT_MAGIC, x, [x.mode_sizes])


def tt_read(path) -> TtTensor:
    return _read_chain(path, _TT_MAGIC, ["mode sizes"], TtTensor)


def ttmat_write(a: TtMatrix, path) -> None:
    _write_chain(path, _TM_MAGIC, a, [a.row_sizes, a.col_sizes])


def ttmat_read(path) -> TtMatrix:
    return _read_chain(path, _TM_MAGIC, ["row sizes", "col sizes"], TtMatrix)


# ---------------------------------------------------------------------------
# random instances

def feasible_ranks(mode_sizes, ranks):
    """Clip a requested rank chain to dimensionally attainable values."""
    d = len(mode_sizes)
    ranks = list(ranks)
    if len(ranks) != d - 1:
        raise DimensionError(f"need {d - 1} internal ranks, got {len(ranks)}")
    full = [1] + ranks + [1]
    for k in range(1, d + 1):
        full[k] = min(full[k], full[k - 1] * mode_sizes[k - 1])
    for k in range(d - 1, -1, -1):
        full[k] = min(full[k], full[k + 1] * mode_sizes[k])
    return tuple(full[1:-1])


def pad_ranks(x: TtTensor, rank) -> TtTensor:
    """The same tensor at internal ranks raised to ``rank`` (clipped to
    feasible values) by zero blocks, so its unfoldings gain zero singular
    values."""
    full = (1,) + feasible_ranks(x.mode_sizes, [max(rank, rk) for rk in x.ranks[1:-1]]) + (1,)
    cores = []
    for k, c in enumerate(x.cores):
        core = np.zeros((full[k], x.mode_sizes[k], full[k + 1]))
        core[: c.shape[0], :, : c.shape[2]] = c
        cores.append(core)
    return TtTensor(cores)


def random_tt(rng, mode_sizes, ranks) -> TtTensor:
    """TT tensor with i.i.d. standard normal core entries (ranks clipped)."""
    ranks = feasible_ranks(mode_sizes, ranks if not np.isscalar(ranks) else
                           [int(ranks)] * (len(mode_sizes) - 1))
    full = (1,) + tuple(ranks) + (1,)
    cores = [
        rng.standard_normal((full[k], mode_sizes[k], full[k + 1]))
        for k in range(len(mode_sizes))
    ]
    return TtTensor(cores)


def _random_operator_cores(rng, row_sizes, col_sizes, rank):
    # One standard normal core per mode, drawn in mode order.
    d = len(row_sizes)
    full = (1,) + tuple([int(rank)] * (d - 1)) + (1,)
    for k in range(d):
        yield rng.standard_normal((full[k], row_sizes[k], col_sizes[k], full[k + 1]))


def random_ttmat(rng, row_sizes, col_sizes, rank) -> TtMatrix:
    return TtMatrix(_random_operator_cores(rng, row_sizes, col_sizes, rank))


def _symmetrized(c):
    c += np.transpose(c, (0, 2, 1, 3))  # numpy buffers the overlapping operand
    c /= 2.0
    return c


def random_symmetric_ttmat(rng, mode_sizes, rank) -> TtMatrix:
    """Symmetric operator: every core is symmetrized in its (row, col) pair.

    Each core is symmetrized in place as it is drawn, and the operator
    copies it once.
    """
    return TtMatrix(_symmetrized(c)
                    for c in _random_operator_cores(rng, mode_sizes, mode_sizes, rank))
