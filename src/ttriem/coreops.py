"""Core-chain algebra shared by the TT container and recordable programs.

All functions here take bare lists of cores (3-way for tensors, 4-way for
operators) and are written in terms of the :mod:`ttriem.ad` operations, so
they run on plain ndarrays and on tape variables alike.
"""

import numpy as np

from . import ad
from .errors import DimensionError

__all__ = ["dot_cores", "matvec_cores", "entries_cores"]


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


def matvec_cores(op_cores, xs):
    """Apply a TT operator (cores (R, m, n, R')) to TT cores (r, n, r').

    Output core k has shape (R_{k-1} r_{k-1}, m_k, R_k r_k): the usual
    Kronecker growth of TT ranks under operator application.
    """
    if len(op_cores) != len(xs):
        raise DimensionError("operator and tensor dimensionality differ")
    out = []
    for a, x in zip(op_cores, xs):
        a_shape, x_shape = np.shape(a), np.shape(x)
        if a_shape[2] != x_shape[1]:
            raise DimensionError(
                f"operator column size {a_shape[2]} does not match mode size {x_shape[1]}"
            )
        t = ad.contract(a, x, [(2, 1)])  # (R, m, R', r, r')
        t = ad.transpose(t, (0, 3, 1, 2, 4))  # (R, r, m, R', r')
        out.append(
            ad.reshape(t, (a_shape[0] * x_shape[0], a_shape[1], a_shape[3] * x_shape[2]))
        )
    return out


def entries_cores(cores, idx):
    """Evaluate the core-chain product at a batch of multi-indices.

    ``idx`` is an (N, d) integer array; the result is the length-N vector of
    tensor entries, computed with d batched small-matrix products.
    """
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[1] != len(cores):
        raise DimensionError(f"index array must be (N, {len(cores)})")
    e = ad.gather_mode(cores[0], idx[:, 0])  # (N, 1, r_1)
    for k in range(1, len(cores)):
        e = ad.batch_matmul(e, ad.gather_mode(cores[k], idx[:, k]))
    return ad.reshape(e, (idx.shape[0],))
