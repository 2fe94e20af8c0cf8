"""Core-chain algebra shared by the TT container and recordable programs.

All functions here take bare lists of cores (3-way for tensors, 4-way for
operators) and are written in terms of the :mod:`ttriem.ad` operations, so
they run on plain ndarrays and on tape variables alike.

The operator sandwiches <A X, Y> and <A X, B Y> are sweeps over a rank
interface with one pairwise contraction per core; they never form the
rank-R*r cores of A X that :func:`matvec_cores` builds for ``ttmat_apply``.

Entries at N multi-indices (:func:`entries_cores`) come from two boundary
tables, the chain of the leading modes at every prefix and that of the
trailing modes at every suffix, each built by contractions, at most N rows
beyond its boundary core, and gathered once at the samples' ids.  Only the
modes that the tables cannot reach under that cap are swept as (N, r)
interface rows sorted by the mode they go through, with one ``take_rows``
per core into the next mode's order.  The cost is the table work plus
O(N r) (plus O(N r^2) per swept mode), not O(N d r^2), and every tape value
holds O(N r) numbers, in the forward pass and in both reverse sweeps of an
HVP.  The
fused sparse projection, ``baselines.project_sparse``, splits the chain at
the same modes and builds the same tables, keeping every intermediate one.
Indices are validated once, by :func:`check_indices`, for entries and for
the fused sparse projection alike.
"""

import numpy as np

from . import ad
from .errors import DimensionError

__all__ = [
    "dot_cores",
    "operator_dot_cores",
    "operator_pair_dot_cores",
    "matvec_cores",
    "entries_cores",
    "check_indices",
]


def dot_cores(xs, ys):
    """Inner product of two TT tensors given as core lists (scalar output).

    Sweeps left to right through the shared rank space, never materializing
    the dense tensors.
    """
    if len(xs) != len(ys):
        raise DimensionError(f"core counts differ: {len(xs)} vs {len(ys)}")
    for cx, cy in zip(xs, ys):
        if np.shape(cx)[1] != np.shape(cy)[1]:
            raise DimensionError("mode sizes differ in dot_cores")
    m = ad.contract(xs[0], ys[0], [(0, 0), (1, 1)])  # (rx_1, ry_1)
    for cx, cy in zip(xs[1:], ys[1:]):
        t = ad.contract(m, cx, [(0, 0)])  # (ry, n, rx')
        m = ad.contract(t, cy, [(0, 0), (1, 1)])  # (rx', ry')
    return ad.reshape(m, ())


def _check_operator(op_cores, xs, rows, what):
    # rows[k] is the mode size the operator's k-th row index must match.
    if not len(op_cores) == len(xs) == len(rows):
        raise DimensionError(
            f"core counts differ in {what}: {len(op_cores)} operator, "
            f"{len(xs)} tensor, {len(rows)} expected"
        )
    for a, x, m in zip(op_cores, xs, rows):
        a_shape = np.shape(a)
        if a_shape[2] != np.shape(x)[1] or a_shape[1] != m:
            raise DimensionError(
                f"operator core {a_shape[1:3]} does not map mode size "
                f"{np.shape(x)[1]} to {m} in {what}"
            )


def operator_dot_cores(op_cores, xs, ys):
    """<A X, Y> for TT operator cores (R, m, n, R'), X cores (r_x, n, r_x')
    and Y cores (r_y, m, r_y') (scalar output).

    The sweep carries an (r_x, R, r_y) interface and folds in the Y core,
    the A core over its leading (R, m) axes, then the X core; the rank-R*r
    cores of A X are never formed.  Each step orders its result so that the
    next step's larger operand has its contracted axes in one run, so
    :func:`ttriem.ad.contract` reads every intermediate of an interior mode
    in place, in this sweep and in both reverse sweeps of an HVP.  An
    operator core is contracted over its leading (R, m) axes and its
    adjoint over its trailing (n, R') axes, both runs, so a core that is the
    larger operand (as the (1, m, m, R) cores of a matrix operator are) is
    never copied, and a smaller one is copied only by the adjoint.
    """
    _check_operator(op_cores, xs, [np.shape(y)[1] for y in ys], "operator_dot_cores")
    m = np.ones((1, 1, 1))
    for a, x, y in zip(op_cores, xs, ys):
        t = ad.contract(m, y, [(2, 0)])  # (r_x, R, m, r_y')
        t = ad.contract(t, a, [(1, 0), (2, 1)], (0, 2, 3, 1))  # (r_x, n, R', r_y')
        m = ad.contract(t, x, [(0, 0), (1, 1)], (2, 0, 1))  # (r_x', R', r_y')
    return ad.reshape(m, ())


def operator_pair_dot_cores(a_cores, xs, b_cores, ys):
    """<A X, B Y> for TT operator cores A (R_A, m, n, R_A') and B
    (R_B, m, l, R_B'), X cores (r_x, n, r_x') and Y cores (r_y, l, r_y')
    (scalar output).

    The sweep carries an (r_y, R_B, R_A, r_x) interface and folds in the X
    core, the A core over (R_A, n), the B core over its leading (R_B, m)
    axes, then the Y core; neither A X, B Y nor the product A^T B is formed.
    As in :func:`operator_dot_cores`, each step orders its result so that
    every intermediate of an interior mode is read in place.  Only A is
    contracted over non-adjacent axes: the smaller operand of its step, it
    is rearranged into (R_A, n, m, R_A') order by the forward sweep, which
    is no copy for the transposed view of a contiguous (R, n, m, R') core.
    So a caller holding a transposed view of an operator passes it as A.
    """
    rows = [np.shape(b)[1] for b in b_cores]
    _check_operator(a_cores, xs, rows, "operator_pair_dot_cores")
    _check_operator(b_cores, ys, rows, "operator_pair_dot_cores")
    m = np.ones((1, 1, 1, 1))
    for a, x, b, y in zip(a_cores, xs, b_cores, ys):
        t = ad.contract(m, x, [(3, 0)])  # (r_y, R_B, R_A, n, r_x')
        t = ad.contract(t, a, [(2, 0), (3, 2)], (0, 1, 3, 4, 2))  # (r_y, R_B, m, R_A', r_x')
        t = ad.contract(t, b, [(1, 0), (2, 1)], (0, 3, 4, 1, 2))  # (r_y, l, R_B', R_A', r_x')
        m = ad.contract(t, y, [(0, 0), (1, 1)], (3, 0, 1, 2))  # (r_y', R_B', R_A', r_x')
    return ad.reshape(m, ())


def matvec_cores(op_cores, xs):
    """Apply a TT operator (cores (R, m, n, R')) to TT cores (r, n, r').

    Output core k has shape (R_{k-1} r_{k-1}, m_k, R_k r_k): the usual
    Kronecker growth of TT ranks under operator application.
    """
    _check_operator(op_cores, xs, [np.shape(a)[1] for a in op_cores], "matvec_cores")
    out = []
    for a, x in zip(op_cores, xs):
        a_shape, x_shape = np.shape(a), np.shape(x)
        t = ad.contract(a, x, [(2, 1)], (0, 3, 1, 2, 4))  # (R, r, m, R', r')
        out.append(
            ad.reshape(t, (a_shape[0] * x_shape[0], a_shape[1], a_shape[3] * x_shape[2]))
        )
    return out


def check_indices(idx, sizes):
    """``idx`` as an (N, d) intp array of multi-indices into modes of the
    given sizes.

    Raises ``DimensionError`` for another shape and ``IndexError`` naming
    the mode for an entry that is not an integer or lies outside [0, n_k):
    a negative index is not wrapped and a float is not truncated.
    """
    idx = ad.index_array(idx)
    d = len(sizes)
    if idx.ndim != 2 or idx.shape[1] != d:
        raise DimensionError(f"index array must be (N, {d}), got shape {idx.shape}")
    for k, n in enumerate(sizes):
        ad.index_vector(idx[:, k], n, f"mode {k}")
    return idx


def _table_split(sizes, count):
    """The modes (a, b) at which :func:`entries_cores` and the fused sparse
    projection split the chain.

    Modes 0..a-1 form the left table and b..d-1 the right one; the boundary
    cores alone are the tables of a = 1 and b = d - 1.  A table grows by one
    mode while its rows, the product of its mode sizes, stay within
    ``count``, the side with the smaller next table first, until the tables
    meet (a = b) or neither can grow.
    """
    a, b = 1, len(sizes) - 1
    left, right = sizes[0], sizes[-1]
    while a < b:
        grow_left, grow_right = left * sizes[a], right * sizes[b - 1]
        if min(grow_left, grow_right) > count:
            break
        if grow_left <= grow_right:
            left, a = grow_left, a + 1
        else:
            right, b = grow_right, b - 1
    return a, b


def _table_ids(idx, sizes, a, b):
    """The samples' row ids in the left table (modes 0..a-1) and in the
    right one (modes b..d-1): the index tuples there in C order, as
    ``np.ravel_multi_index`` gives them, by a Horner loop over the columns
    of ``idx``, which :func:`check_indices` has validated.  An id is below
    its table's row count, so no id overflows (:func:`_table_split`)."""
    ids = []
    for lo, hi in ((0, a), (b, len(sizes))):
        flat = idx[:, lo].copy()
        for k in range(lo + 1, hi):
            flat *= sizes[k]
            flat += idx[:, k]
        ids.append(flat)
    return ids


def _prefix_tables(cores):
    # Table j is (1, n_0 ... n_j, r_{j+1}): the chain of cores 0..j at every
    # prefix, rows in C order of the prefix's indices; the last one is the
    # chain of all the given leading cores.
    tables = [cores[0]]
    for core in cores[1:]:
        rows, (_, n, r) = np.shape(tables[-1])[1], np.shape(core)
        tables.append(ad.reshape(ad.contract(tables[-1], core, [(2, 0)]), (1, rows * n, r)))
    return tables


def _suffix_tables(cores):
    # Table j is (r_j, n_j ... n_{m-1}, 1) for m given trailing cores: the
    # chain of cores j..m-1 at every suffix, rows in C order of the suffix's
    # indices; the first one is the chain of all of them.
    tables = [cores[-1]]
    for core in cores[-2::-1]:
        rows, (r, n, _) = np.shape(tables[0])[1], np.shape(core)
        tables.insert(0, ad.reshape(ad.contract(core, tables[0], [(2, 0)]), (r, n * rows, 1)))
    return tables


def entries_cores(cores, idx):
    """Evaluate the core-chain product at a batch of multi-indices.

    ``idx`` is an (N, d) integer array with column k in [0, n_k); the
    result is the length-N vector of tensor entries.  Samples share their
    prefixes and suffixes, so the chain of modes 0..a-1 is built once per
    prefix, as a (1, P_L, r_a) table, and that of modes b..d-1 once per
    suffix, as an (r_b, P_R, 1) table, each by a chain of contractions and
    no larger than N rows beyond its boundary core (:func:`_table_split`).
    Each table is gathered once at the samples' flattened prefix and suffix
    ids, and the two are multiplied per sample.  Modes a..b-1, which the
    tables cannot reach under that cap, are swept as (N, r_k) rows, each
    core applied by :func:`ttriem.ad.mode_matmul` to rows sorted by mode
    k's index (a :class:`ttriem.ad.ModeSort` computed once here) and the
    result put in mode k + 1's sorted order by one
    :func:`ttriem.ad.take_rows`, so each core costs one row permutation.
    Time is the table work, at most N r^2 per table mode, plus O(N r) for
    the gathers and the product, plus O(N r^2) per swept mode; every tape
    value, adjoints included, holds O(N r) numbers.
    """
    sizes = [np.shape(core)[1] for core in cores]
    idx = check_indices(idx, sizes)
    d = len(cores)
    count = idx.shape[0]
    if d == 1:
        return ad.reshape(ad.gather_mode(cores[0], idx[:, 0]), (count,))
    a, b = _table_split(sizes, count)
    left, right = _table_ids(idx, sizes, a, b)
    # sorts[j] is the sorted order of swept mode a + j.  The left table is
    # gathered straight into mode a's order, and the closing None is sample
    # order, in which the last swept core hands its rows out.
    sorts = [ad.ModeSort(idx[:, k], sizes[k]) for k in range(a, b)] + [None]
    if a < b:
        left = left[sorts[0].order]
    rows = ad.gather_mode(_prefix_tables(cores[:a])[-1], left)  # (N, 1, r_a)
    if a < b:
        rows = ad.reshape(rows, (count, np.shape(cores[a])[0]))
        for core, sort, following in zip(cores[a:b], sorts, sorts[1:]):
            rows = ad.take_rows(ad.mode_matmul(rows, core, sort), sort, following)  # (N, r')
        rows = ad.reshape(rows, (count, 1, np.shape(cores[b])[0]))
    e = ad.batch_matmul(rows, ad.gather_mode(_suffix_tables(cores[b:])[0], right))  # (N, 1, 1)
    return ad.reshape(e, (count,))
