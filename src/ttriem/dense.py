"""Dense tensor values and the small linear-algebra kernel set.

Tensors are plain ``numpy.ndarray`` objects in C order (last index fastest)
with dtype float64.  ``as_tensor`` is the validating constructor used at
every external boundary; internal code passes arrays through unchecked.
"""

import numpy as np

from .errors import DimensionError

__all__ = ["as_tensor", "frozen", "qr_thin", "svd_thin"]


def as_tensor(data) -> np.ndarray:
    """Validate external input and return it as a C-ordered float64 array.

    Raises
    ------
    DimensionError
        If the input contains NaN or Inf entries.
    """
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DimensionError("tensor entries must be finite (no NaN/Inf)")
    return arr


def frozen(data) -> np.ndarray:
    """Validated, defensively copied, read-only array (container storage)."""
    arr = as_tensor(data).copy()
    arr.flags.writeable = False
    return arr


def qr_thin(m: np.ndarray):
    """Thin QR of a p x q matrix with p >= q.

    The sign convention forces a nonnegative diagonal of R, which makes the
    factorization deterministic (bit-identical for identical inputs).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"qr_thin expects a matrix, got shape {m.shape}")
    p, q = m.shape
    if p < q:
        raise DimensionError(f"qr_thin requires p >= q, got {p} x {q}")
    qmat, rmat = np.linalg.qr(m, mode="reduced")
    # Flip rows of R / columns of Q where the diagonal went negative.
    signs = np.where(np.diagonal(rmat) < 0.0, -1.0, 1.0)
    return qmat * signs, rmat * signs[:, None]


def svd_thin(m: np.ndarray):
    """Thin SVD ``m = U @ diag(s) @ V.T`` with nonincreasing singular values."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"svd_thin expects a matrix, got shape {m.shape}")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # LAPACK gesdd can fail to converge on exactly rank-deficient input;
        # the transpose takes another path through it.  m.T = V diag(s) U.T.
        v, s, ut = np.linalg.svd(m.T, full_matrices=False)
        return ut.T, s, v
    return u, s, vt.T
